"""Event-driven (SAX-style) single-pass XML scanning.

This module is the ingest fast path: :class:`XmlScanner` walks the text
once and emits ``start``/``text``/``end`` events to a handler, so consumers
can build whatever they need in a single pass — a full node tree
(:class:`TreeBuilder`, behind :func:`repro.xmlmodel.parser.parse_document`)
or Stage-1 witnesses directly (:mod:`repro.xpath.streaming`) without ever
materializing :class:`~repro.xmlmodel.node.XmlNode` objects.

The scanner accepts exactly the XML subset of the original recursive
parser (:class:`repro.xmlmodel.parser._Parser`, kept as the reference
implementation for differential tests): elements, attributes, character
data, CDATA, comments, a prolog/DOCTYPE before the root, and the five
predefined entities.  Error messages and reported positions are identical
— property tests assert parity on malformed inputs.
"""

from __future__ import annotations

import re

from repro.xmlmodel.document import XmlDocument
from repro.xmlmodel.node import XmlNode

_TAG_RE = re.compile(r"[A-Za-z_][\w.\-:]*")
_ATTR_RE = re.compile(r"\s*([A-Za-z_][\w.\-:]*)\s*=\s*(\"[^\"]*\"|'[^']*')")
#: A run of complete, attribute-free leaf elements (``<tag>text</tag>``),
#: the dominant shape of element-dense documents.  Validation consumes a
#: whole run in one C-level match; the per-iteration backreference pins
#: each end tag to its own start tag, and the possessive quantifiers keep
#: a failed continuation from re-scanning the run.  Anything the pattern
#: does not cover (attributes, children, markup in text) falls back to the
#: general loop at the exact position the run ended.
_LEAF_RUN_RE = re.compile(r"(?:\s*<([A-Za-z_][\w.\-:]*+)>[^<]*</\1>)++")
#: Entity and character references are decoded in a single pass:
#: ``&amp;quot;`` is one ``&amp;`` followed by literal ``quot;`` and must
#: decode to ``&quot;``, never to ``"`` (the sequential str.replace
#: implementation double-decoded).  Numeric references (``&#252;``,
#: ``&#xFC;``) decode to their character when it is an XML ``Char``; any
#: other reference — unknown names, code points outside Unicode, surrogates,
#: disallowed control characters — stays verbatim.
_ENTITY_RE = re.compile(r"&(?:(lt|gt|amp|quot|apos)|#([0-9]+)|#x([0-9A-Fa-f]+));")
_ENTITY_CHARS = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'"}


class XmlParseError(ValueError):
    """Raised when the input text is not well-formed (for the supported subset)."""


def _is_xml_char(code: int) -> bool:
    """Whether ``code`` is a character the XML ``Char`` production allows."""
    return (
        code in (0x9, 0xA, 0xD)
        or 0x20 <= code <= 0xD7FF
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    )


def _entity_char(match: "re.Match[str]") -> str:
    name, decimal, hexadecimal = match.groups()
    if name is not None:
        return _ENTITY_CHARS[name]
    digits, base = (decimal, 10) if decimal is not None else (hexadecimal, 16)
    digits = digits.lstrip("0")
    # No Unicode code point needs more than 7 digits; the length check also
    # keeps int() off arbitrarily long digit runs.
    if len(digits) > 7:
        return match.group(0)
    code = int(digits or "0", base)
    return chr(code) if _is_xml_char(code) else match.group(0)


def _unescape(text: str) -> str:
    if "&" not in text:
        return text
    return _ENTITY_RE.sub(_entity_char, text)


class XmlScanner:
    """A cursor over XML text emitting parse events in document order.

    The handler duck type::

        handler.start(tag, attributes)   # element start (attributes: dict)
        handler.text(data)               # one unescaped character-data part
        handler.end()                    # element end (matches the last open start)

    A self-closing element emits ``start`` immediately followed by ``end``.
    Comments, processing instructions and DOCTYPE are skipped silently.
    """

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> XmlParseError:
        line = self.text.count("\n", 0, self.pos) + 1
        return XmlParseError(f"{message} (near position {self.pos}, line {line})")

    def skip_misc(self) -> None:
        """Skip whitespace, comments, processing instructions and the prolog."""
        while self.pos < len(self.text):
            if self.text[self.pos].isspace():
                self.pos += 1
            elif self.text.startswith("<!--", self.pos):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            elif self.text.startswith("<?", self.pos):
                end = self.text.find("?>", self.pos)
                if end < 0:
                    raise self.error("unterminated processing instruction")
                self.pos = end + 2
            elif self.text.startswith("<!DOCTYPE", self.pos):
                end = self.text.find(">", self.pos)
                if end < 0:
                    raise self.error("unterminated DOCTYPE")
                self.pos = end + 1
            else:
                return

    def scan(self, handler) -> None:
        """Scan one element (with its subtree) starting at the cursor.

        The loop body keeps the cursor in a local and dispatches on the
        character *after* a ``<`` (name start / ``/`` / ``!``): this is the
        per-event hot path of every ingest mode, so it avoids attribute
        round trips and prefix probes that a profile shows dominating.
        ``self.pos`` is synced back before every raise so error positions
        match the reference parser exactly.
        """
        text = self.text
        length = len(text)
        pos = self.pos
        emit_start = handler.start
        emit_text = handler.text
        emit_end = handler.end
        tag_match = _TAG_RE.match
        attr_match = _ATTR_RE.match
        stack: list[str] = []
        while True:
            # One start tag at the cursor.
            if pos >= length or text[pos] != "<":
                self.pos = pos
                raise self.error("expected element start tag")
            m = tag_match(text, pos + 1)
            if not m:
                self.pos = pos + 1
                raise self.error("expected element name")
            tag = m.group(0)
            pos = m.end()

            attributes: dict[str, str] = {}
            # The first attribute always follows whitespace (a name char
            # would still be part of the tag), so attr-less elements — the
            # common case — skip the regex probe entirely.
            if pos < length and text[pos] in " \t\r\n":
                while True:
                    m = attr_match(text, pos)
                    if not m:
                        break
                    attributes[m.group(1)] = _unescape(m.group(2)[1:-1])
                    pos = m.end()

            while pos < length and text[pos].isspace():
                pos += 1
            head = text[pos] if pos < length else ""
            if head == ">":
                pos += 1
                emit_start(tag, attributes)
                stack.append(tag)
            elif head == "/" and text.startswith("/>", pos):
                pos += 2
                emit_start(tag, attributes)
                emit_end()
                if not stack:
                    self.pos = pos
                    return
            else:
                self.pos = pos
                raise self.error(f"malformed start tag for <{tag}>")

            # Content of the innermost open element, up to either its end
            # tag (possibly closing ancestors too) or a child start tag.
            while stack:
                if pos >= length:
                    self.pos = pos
                    raise self.error(f"unexpected end of input inside <{stack[-1]}>")
                if text[pos] != "<":
                    nxt = text.find("<", pos)
                    if nxt < 0:
                        self.pos = pos
                        raise self.error(
                            f"unexpected end of input inside <{stack[-1]}>"
                        )
                    emit_text(_unescape(text[pos:nxt]))
                    pos = nxt
                    continue
                head = text[pos + 1] if pos + 1 < length else ""
                if head == "/":
                    open_tag = stack[-1]
                    end = pos + 2 + len(open_tag)
                    if text.startswith(open_tag, pos + 2) and text.startswith(
                        ">", end
                    ):
                        pos = end + 1  # the overwhelmingly common exact match
                    else:
                        end = text.find(">", pos)
                        if end < 0:
                            self.pos = pos
                            raise self.error(
                                f"unterminated end tag for <{open_tag}>"
                            )
                        closing = text[pos + 2 : end].strip()
                        if closing != open_tag:
                            self.pos = pos
                            raise self.error(
                                f"mismatched end tag </{closing}> for <{open_tag}>"
                            )
                        pos = end + 1
                    stack.pop()
                    emit_end()
                elif head != "!":
                    break  # a child element; the outer loop parses its start tag
                elif text.startswith("<!--", pos):
                    end = text.find("-->", pos)
                    if end < 0:
                        self.pos = pos
                        raise self.error("unterminated comment")
                    pos = end + 3
                elif text.startswith("<![CDATA[", pos):
                    end = text.find("]]>", pos)
                    if end < 0:
                        self.pos = pos
                        raise self.error("unterminated CDATA section")
                    emit_text(text[pos + 9 : end])
                    pos = end + 3
                else:
                    break  # "<!" with no known form: fails as a start tag
            if not stack:
                self.pos = pos
                return

    def validate(self) -> None:
        """Check well-formedness of one element without emitting events.

        The same grammar and error messages as :meth:`scan`, minus every
        piece of work that only matters to a consumer: no attribute dicts,
        no entity decoding, no handler calls.  This is the ``matcher=None``
        publish path — documents on streams nobody subscribes to must still
        reject malformed input exactly like the tree path, but nothing
        reads their content.
        """
        text = self.text
        length = len(text)
        pos = self.pos
        tag_match = _TAG_RE.match
        attr_match = _ATTR_RE.match
        leaf_run = _LEAF_RUN_RE.match
        stack: list[str] = []
        while True:
            if pos >= length or text[pos] != "<":
                self.pos = pos
                raise self.error("expected element start tag")
            m = tag_match(text, pos + 1)
            if not m:
                self.pos = pos + 1
                raise self.error("expected element name")
            tag = m.group(0)
            pos = m.end()
            if pos < length and text[pos] in " \t\r\n":
                while True:
                    m = attr_match(text, pos)
                    if not m:
                        break
                    pos = m.end()
            while pos < length and text[pos].isspace():
                pos += 1
            head = text[pos] if pos < length else ""
            if head == ">":
                pos += 1
                stack.append(tag)
            elif head == "/" and text.startswith("/>", pos):
                pos += 2
                if not stack:
                    self.pos = pos
                    return
            else:
                self.pos = pos
                raise self.error(f"malformed start tag for <{tag}>")

            while stack:
                m = leaf_run(text, pos)
                if m:
                    pos = m.end()
                if pos >= length:
                    self.pos = pos
                    raise self.error(f"unexpected end of input inside <{stack[-1]}>")
                if text[pos] != "<":
                    nxt = text.find("<", pos)
                    if nxt < 0:
                        self.pos = pos
                        raise self.error(
                            f"unexpected end of input inside <{stack[-1]}>"
                        )
                    pos = nxt
                    continue
                head = text[pos + 1] if pos + 1 < length else ""
                if head == "/":
                    open_tag = stack[-1]
                    end = pos + 2 + len(open_tag)
                    if text.startswith(open_tag, pos + 2) and text.startswith(
                        ">", end
                    ):
                        pos = end + 1
                    else:
                        end = text.find(">", pos)
                        if end < 0:
                            self.pos = pos
                            raise self.error(
                                f"unterminated end tag for <{open_tag}>"
                            )
                        closing = text[pos + 2 : end].strip()
                        if closing != open_tag:
                            self.pos = pos
                            raise self.error(
                                f"mismatched end tag </{closing}> for <{open_tag}>"
                            )
                        pos = end + 1
                    stack.pop()
                elif head != "!":
                    break
                elif text.startswith("<!--", pos):
                    end = text.find("-->", pos)
                    if end < 0:
                        self.pos = pos
                        raise self.error("unterminated comment")
                    pos = end + 3
                elif text.startswith("<![CDATA[", pos):
                    end = text.find("]]>", pos)
                    if end < 0:
                        self.pos = pos
                        raise self.error("unterminated CDATA section")
                    pos = end + 3
                else:
                    break
            if not stack:
                self.pos = pos
                return


def scan_text(text: str, handler) -> None:
    """Scan a whole document: prolog, one root element, trailing misc."""
    scanner = XmlScanner(text)
    scanner.skip_misc()
    scanner.scan(handler)
    scanner.skip_misc()
    if scanner.pos != len(text):
        raise scanner.error("trailing content after the root element")


def validate_text(text: str) -> None:
    """Validate a whole document without building anything.

    Raises :class:`XmlParseError` with the same message :func:`scan_text`
    would; returns nothing on success.
    """
    scanner = XmlScanner(text)
    scanner.skip_misc()
    scanner.validate()
    scanner.skip_misc()
    if scanner.pos != len(text):
        raise scanner.error("trailing content after the root element")


class TreeBuilder:
    """Build an :class:`XmlNode` tree from scan events in a single pass.

    Pre-order ids, post-order ids, depths and parent links are assigned as
    the events arrive (pre id = start-event count, post id = end-event
    count), so the finished tree needs no ``_assign_ids`` walk.
    """

    __slots__ = ("root", "nodes", "_stack", "_parts", "_post")

    def __init__(self):
        self.root: XmlNode | None = None
        self.nodes: list[XmlNode] = []
        self._stack: list[XmlNode] = []
        self._parts: list[list[str]] = []
        self._post = 0

    def start(self, tag: str, attributes: dict[str, str]) -> None:
        node = XmlNode(tag, attributes=attributes)
        nodes = self.nodes
        node.node_id = len(nodes)
        stack = self._stack
        if stack:
            parent = stack[-1]
            node.parent = parent
            node.depth = parent.depth + 1
            parent.children.append(node)
        else:
            self.root = node
        nodes.append(node)
        stack.append(node)
        self._parts.append([])

    def text(self, data: str) -> None:
        self._parts[-1].append(data)

    def end(self) -> None:
        node = self._stack.pop()
        parts = self._parts.pop()
        if parts:
            joined = "".join(parts).strip()
            node.text = joined if joined else None
        node.post_id = self._post
        self._post += 1


def parse_node_streaming(text: str) -> XmlNode:
    """Parse XML text into a fully-indexed root :class:`XmlNode`."""
    builder = TreeBuilder()
    scan_text(text, builder)
    return builder.root


def parse_document_streaming(
    text: str,
    docid: str | None = None,
    timestamp: float = 0.0,
    stream: str = "S",
) -> XmlDocument:
    """Parse XML text into an :class:`XmlDocument` in a single pass."""
    builder = TreeBuilder()
    scan_text(text, builder)
    return XmlDocument.from_indexed(
        builder.root, builder.nodes, docid=docid, timestamp=timestamp, stream=stream
    )
