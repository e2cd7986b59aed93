"""Unit tests for the XML parser and serializer round trips."""

import pytest

from repro.xmlmodel import XmlDocument, parse_document, to_xml
from repro.xmlmodel.parser import XmlParseError, parse_node


def test_parse_simple_document():
    doc = parse_document("<item><title>Hello</title><author>Ada</author></item>")
    assert doc.root.tag == "item"
    assert [c.tag for c in doc.root.children] == ["title", "author"]
    assert doc.node(1).text == "Hello"


def test_parse_assigns_preorder_ids():
    doc = parse_document("<a><b><c/></b><d/></a>")
    assert [doc.node(i).tag for i in range(4)] == ["a", "b", "c", "d"]


def test_parse_attributes():
    node = parse_node('<item id="1" lang=\'en\'>x</item>')
    assert node.attributes == {"id": "1", "lang": "en"}
    assert node.text == "x"


def test_parse_self_closing():
    node = parse_node("<feed><entry/><entry/></feed>")
    assert len(node.children) == 2
    assert all(c.is_leaf for c in node.children)


def test_parse_entities_unescaped():
    node = parse_node("<t>Scripting &amp; Programming &lt;3</t>")
    assert node.text == "Scripting & Programming <3"


def test_parse_prolog_comments_and_doctype_skipped():
    text = """<?xml version="1.0"?>
    <!DOCTYPE item>
    <!-- a comment -->
    <item><x>1</x></item>"""
    doc = parse_document(text)
    assert doc.root.tag == "item"


def test_parse_inner_comment_ignored():
    node = parse_node("<a><!-- hi --><b>1</b></a>")
    assert [c.tag for c in node.children] == ["b"]


def test_parse_cdata():
    node = parse_node("<a><![CDATA[x < y]]></a>")
    assert node.text == "x < y"


def test_parse_whitespace_between_elements_ignored():
    node = parse_node("<a>\n  <b>1</b>\n  <c>2</c>\n</a>")
    assert node.text is None
    assert [c.tag for c in node.children] == ["b", "c"]


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "<a><b></a>",
        "<a>",
        "<a></b>",
        "<a></a><b></b>",
        "<a attr=1></a>",
        "plain text",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(XmlParseError):
        parse_node(bad)


def test_parse_document_metadata():
    doc = parse_document("<a/>", docid="x", timestamp=9.0, stream="T")
    assert (doc.docid, doc.timestamp, doc.stream) == ("x", 9.0, "T")


def test_roundtrip_through_serializer():
    original = "<item><title>Joins &amp; Streams</title><n>42</n></item>"
    doc = parse_document(original)
    text = to_xml(doc, pretty=False)
    again = parse_document(text)
    assert again.root.tag == "item"
    assert again.node(1).text == "Joins & Streams"
    assert again.node(2).text == "42"


def test_serializer_pretty_output_indented():
    doc = parse_document("<a><b>1</b></a>")
    text = to_xml(doc)
    assert "\n" in text
    assert "  <b>1</b>" in text


def test_serializer_escapes_attributes():
    doc = XmlDocument(parse_node('<a name="x"/>'))
    doc.root.attributes["name"] = 'say "hi" & <bye>'
    text = to_xml(doc, pretty=False)
    assert "&quot;hi&quot;" in text
    assert "&lt;bye&gt;" in text


def test_parse_all_five_entities():
    node = parse_node("<t>&lt;&gt;&amp;&quot;&apos;</t>")
    assert node.text == "<>&\"'"


def test_parse_entities_single_pass():
    # A literal "&amp;quot;" denotes the five characters "&quot;": the
    # decoded "&" must not combine with the following text and decode
    # again (the historical sequential str.replace bug).
    node = parse_node("<t>&amp;quot;</t>")
    assert node.text == "&quot;"
    node = parse_node("<t>&amp;amp;lt;</t>")
    assert node.text == "&amp;lt;"


def test_parse_entities_in_attributes():
    node = parse_node('<t a="&quot;x&quot; &amp; &apos;y&apos;">z</t>')
    assert node.attributes["a"] == "\"x\" & 'y'"
    node = parse_node('<t a="&amp;lt;"/>')
    assert node.attributes["a"] == "&lt;"


@pytest.mark.parametrize(
    "text, message",
    [
        ("<t>H&uuml;tter</t>", "undeclared entity reference &uuml; (near position 4,"),
        ("<t>&amp; &nosuch;</t>", "undeclared entity reference &nosuch; (near position 9,"),
        ('<t a="H&uuml;tter"/>', "undeclared entity reference &uuml; (near position 7,"),
        ("<t>H&bogus</t>", "'&' must start an entity or character reference (near position 4,"),
        ("<t>a & b</t>", "'&' must start an entity or character reference (near position 5,"),
        ('<t a="x&y"/>', "'&' must start an entity or character reference (near position 7,"),
        ("<t>&#;</t>", "'&' must start an entity or character reference (near position 3,"),
        ("<t>&lt</t>", "'&' must start an entity or character reference (near position 3,"),
    ],
    ids=[
        "undeclared-text",
        "undeclared-after-amp",
        "undeclared-attribute",
        "bare-in-word",
        "bare-spaced",
        "bare-attribute",
        "empty-charref",
        "unterminated-entity",
    ],
)
def test_parse_rejects_undeclared_entities_and_bare_ampersands(text, message):
    # No DTD is read, so only the five predefined entities exist: anything
    # else would otherwise pass through verbatim and never join its decoded
    # spelling.  Both parsers, the streaming ingest path and the
    # validate-only path reject it at the offending "&".
    from repro import RuntimeConfig
    from repro.pubsub import Broker
    from repro.xmlmodel.parser import _parse_node_reference
    from repro.xmlmodel.stream import validate_text

    for parse in (parse_node, _parse_node_reference, validate_text):
        with pytest.raises(XmlParseError) as error:
            parse(text)
        assert str(error.value).startswith(message)
    # The streaming ingest path, which builds witnesses without a tree.
    with Broker(RuntimeConfig(ingest="stream", construct_outputs=False)) as broker:
        broker.subscribe("S//t->t FOLLOWED BY{t=t, 10} S//t->t")
        with pytest.raises(XmlParseError) as error:
            broker.publish(text)
        assert str(error.value).startswith(message)


def test_doctype_internal_subset_rejected_with_clear_message():
    text = '<!DOCTYPE t [<!ENTITY uuml "&#252;">]><t>H&uuml;tter</t>'
    from repro.xmlmodel.parser import _parse_node_reference

    for parse in (parse_node, _parse_node_reference):
        with pytest.raises(XmlParseError, match="DTD internal subsets are not supported"):
            parse(text)
    # A DOCTYPE without an internal subset is still skipped.
    assert parse_node("<!DOCTYPE t><t>x</t>").text == "x"


def test_parse_numeric_character_references():
    assert parse_node("<t>H&#252;tter</t>").text == "Hütter"
    assert parse_node("<t>H&#xFC;tter &#x1F600;</t>").text == "Hütter \U0001F600"
    assert parse_node('<t a="H&#xfc;tter"/>').attributes["a"] == "Hütter"
    # single pass: an escaped "&" never starts a reference
    assert parse_node("<t>&amp;#252;</t>").text == "&#252;"


def test_parse_undecodable_character_references_left_verbatim():
    # Outside Unicode, NUL, a surrogate, and a digit run too long to be a
    # code point: like unknown entities, they pass through undecoded.
    text = "&#1114112; &#x110000; &#0; &#xD800; &#" + "9" * 5000 + ";"
    assert parse_node(f"<t>{text}</t>").text == text


def test_entity_roundtrip_through_serializer():
    doc = parse_document("<t>&amp;quot; &lt;tag&gt;</t>")
    assert doc.root.text == "&quot; <tag>"
    again = parse_document(to_xml(doc, pretty=False))
    assert again.root.text == doc.root.text
