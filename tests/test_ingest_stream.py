"""Property tests for the streaming ingest fast path.

Three equivalences pin the fast path to the tree-building baseline:

* the streaming scanner produces the exact same indexed node tree as the
  recursive-descent reference parser, over hypothesis-generated documents
  with attributes, entities, comments, PIs and CDATA sections;
* malformed input fails identically — same :class:`XmlParseError`
  message from either parser;
* a broker in ``ingest="stream"`` throughput mode delivers the exact
  same match sets as an ``ingest="tree"`` broker, for ``publish`` and
  ``publish_many`` alike.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import RuntimeConfig
from repro.config import resolve_ingest
from repro.pubsub.broker import Broker
from repro.xmlmodel import XmlDocument, to_xml
from repro.xmlmodel.parser import XmlParseError, _parse_node_reference
from repro.xmlmodel.stream import parse_node_streaming

from tests.conftest import (
    PAPER_Q1,
    PAPER_Q2,
    make_blog_article,
    make_book_announcement,
)

@pytest.fixture(autouse=True)
def _no_ingest_override(monkeypatch):
    """These tests pin config-level ingest semantics; a suite-wide
    REPRO_INGEST replay (the ingest-stream CI job) must not leak in."""
    monkeypatch.delenv("REPRO_INGEST", raising=False)


# --------------------------------------------------------------------- #
# document generator
# --------------------------------------------------------------------- #

_tag = st.sampled_from(["a", "b", "item", "x-y", "ns_1"])
_attr_key = st.sampled_from(["id", "lang", "data-k"])
# Text fragments mix plain runs with every escapable character and the
# historically buggy nested-escape sequence (&amp;quot; must stay "&quot;").
_text = st.sampled_from(
    ["plain", "a & b", "<", ">", '"q"', "'a'", "&quot;", "  pad  ", "1 < 2 > 0"]
)
# Miscellaneous constructs legal inside element content (processing
# instructions are prolog-only for both parsers).
_misc = st.sampled_from(["", "<!-- a comment -->", "<![CDATA[raw <&> text]]>"])
# Raw character references: decodable ones and ones that must stay verbatim
# (outside Unicode, NUL, a surrogate, an escaped "&").
_charref = st.sampled_from(
    ["", "&#252;", "&#xFC;", "&#x1F600;", "&#1114112;", "&#0;", "&#xD800;", "&amp;#252;"]
)
# References that must be rejected, drawn rarely so most documents stay
# well-formed: an undeclared named entity and bare ampersands.
_bad_ref = st.sampled_from([""] * 30 + ["&uuml;", "H&bogus", "&", "&#;"])
_prolog = st.sampled_from(
    [
        "",
        '<?xml version="1.0"?>',
        "<!-- lead -->",
        "<?pi data?>",
        "<!DOCTYPE a>",
        '<!DOCTYPE a [<!ENTITY uuml "&#252;">]>',
    ]
)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@st.composite
def xml_text(draw, depth: int = 0) -> str:
    tag = draw(_tag)
    attrs = draw(st.dictionaries(_attr_key, _text, max_size=2))
    rendered_attrs = "".join(
        f' {k}="{_escape(v).replace(chr(34), "&quot;")}{draw(_bad_ref)}"'
        for k, v in attrs.items()
    )
    if draw(st.booleans()) and depth > 0:
        return f"<{tag}{rendered_attrs}/>"
    children = (
        []
        if depth >= 2
        else draw(st.lists(xml_text(depth=depth + 1), max_size=3))
    )
    body = (
        draw(_misc)
        + _escape(draw(_text))
        + draw(_charref)
        + draw(_bad_ref)
        + "".join(children)
        + draw(_misc)
    )
    element = f"<{tag}{rendered_attrs}>{body}</{tag}>"
    if depth == 0:
        element = draw(_prolog) + element + draw(st.sampled_from(["", "<!-- tail -->"]))
    return element


def _assert_same_tree(left, right) -> None:
    assert left.tag == right.tag
    assert left.text == right.text
    assert left.attributes == right.attributes
    assert (left.node_id, left.post_id, left.depth) == (
        right.node_id,
        right.post_id,
        right.depth,
    )
    assert len(left.children) == len(right.children)
    for a, b in zip(left.children, right.children):
        _assert_same_tree(a, b)


# --------------------------------------------------------------------- #
# parse equivalence
# --------------------------------------------------------------------- #


@settings(max_examples=200, deadline=None)
@given(text=xml_text())
def test_streaming_parse_matches_reference(text):
    # Generated documents with a rejected reference or DTD internal subset
    # must fail identically; all others must build identical trees.
    # Wrapping the reference root in an XmlDocument assigns pre/post ids,
    # so the comparison also pins the scanner's inline id assignment.
    try:
        expected = XmlDocument(_parse_node_reference(text)).root
    except XmlParseError as exc:
        with pytest.raises(XmlParseError) as streamed:
            parse_node_streaming(text)
        assert str(streamed.value) == str(exc)
        return
    _assert_same_tree(parse_node_streaming(text), expected)


@settings(max_examples=200, deadline=None)
@given(text=xml_text(), cut=st.data())
def test_malformed_input_error_parity(text, cut):
    # Corrupt a valid document by truncation or single-character deletion;
    # both parsers must agree on accept/reject and on the exact message.
    i = cut.draw(st.integers(min_value=0, max_value=len(text) - 1))
    mutated = cut.draw(st.sampled_from([text[:i], text[:i] + text[i + 1 :]]))

    def outcome(parse):
        try:
            parse(mutated)
            return ("accepted", None)
        except XmlParseError as exc:
            return ("rejected", str(exc))

    assert outcome(parse_node_streaming) == outcome(_parse_node_reference)


@pytest.mark.parametrize(
    "bad",
    ["", "<a><b></a>", "<a>", "<a></b>", "<a></a><b></b>", "<a attr=1></a>", "plain"],
)
def test_malformed_classics_rejected_identically(bad):
    with pytest.raises(XmlParseError) as stream_err:
        parse_node_streaming(bad)
    with pytest.raises(XmlParseError) as ref_err:
        _parse_node_reference(bad)
    assert str(stream_err.value) == str(ref_err.value)


# --------------------------------------------------------------------- #
# broker match equivalence
# --------------------------------------------------------------------- #

_AUTHORS = ["Danny Ayers", "Andrew Watt", "Grace Hopper"]
_TITLES = ["Beginning RSS and Atom Programming", "Streams & Joins"]


def _throughput_config(ingest: str) -> RuntimeConfig:
    return RuntimeConfig(
        ingest=ingest, store_documents=False, construct_outputs=False
    )


def _match_keys(deliveries):
    keys = []
    for result in deliveries:
        match = result.match
        keys.append(
            (
                result.subscription_id,
                match.lhs_timestamp,
                match.rhs_timestamp,
                tuple(sorted(match.lhs_bindings.items())),
                tuple(sorted(match.rhs_bindings.items())),
            )
        )
    return sorted(keys)


def _workload(specs):
    docs = []
    for i, (is_book, author, title) in enumerate(specs):
        if is_book:
            doc = make_book_announcement(docid=f"d{i}", timestamp=float(i + 1))
        else:
            doc = make_blog_article(
                docid=f"d{i}",
                timestamp=float(i + 1),
                author=_AUTHORS[author],
                title=_TITLES[title],
            )
        docs.append((to_xml(doc, pretty=False), doc.timestamp))
    return docs


doc_specs = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=len(_AUTHORS) - 1),
        st.integers(min_value=0, max_value=len(_TITLES) - 1),
    ),
    min_size=2,
    max_size=8,
)


@settings(max_examples=25, deadline=None)
@given(specs=doc_specs)
def test_stream_broker_matches_tree_broker(specs):
    workload = _workload(specs)
    keys = {}
    for ingest in ("stream", "tree"):
        broker = Broker(_throughput_config(ingest))
        broker.subscribe(PAPER_Q1.replace("T1", "100"))
        broker.subscribe(PAPER_Q2.replace("T2", "100"))
        deliveries = []
        for text, timestamp in workload:
            deliveries.extend(broker.publish(text, timestamp=timestamp))
        keys[ingest] = _match_keys(deliveries)
    assert keys["stream"] == keys["tree"]


@settings(max_examples=15, deadline=None)
@given(specs=doc_specs)
def test_stream_broker_publish_many_matches_tree(specs):
    workload = [text for text, _ in _workload(specs)]
    keys = {}
    for ingest in ("stream", "tree"):
        broker = Broker(_throughput_config(ingest))
        broker.subscribe(PAPER_Q1.replace("T1", "100"))
        keys[ingest] = _match_keys(broker.publish_many(workload))
    assert keys["stream"] == keys["tree"]


def test_join_fires_on_stream_fast_path():
    broker = Broker(_throughput_config("stream"))
    sub = broker.subscribe(PAPER_Q1.replace("T1", "100"))
    book = to_xml(make_book_announcement(), pretty=False)
    blog = to_xml(make_blog_article(), pretty=False)
    assert broker.publish(book, timestamp=1.0) == []
    deliveries = broker.publish(blog, timestamp=2.0)
    assert len(deliveries) == 1
    assert deliveries[0].subscription_id == sub.subscription_id


@pytest.mark.parametrize("ingest", ["stream", "tree"])
def test_character_reference_joins_its_decoded_value(ingest):
    broker = Broker(_throughput_config(ingest))
    broker.subscribe(PAPER_Q1.replace("T1", "100"))
    book = to_xml(make_book_announcement(), pretty=False)
    blog = to_xml(make_blog_article(author="Hütter"), pretty=False)
    assert "Danny Ayers" in book
    book = book.replace("Danny Ayers", "H&#252;tter", 1)
    assert broker.publish(book, timestamp=1.0) == []
    assert len(broker.publish(blog, timestamp=2.0)) == 1


# --------------------------------------------------------------------- #
# knob plumbing and eligibility
# --------------------------------------------------------------------- #


def test_fast_path_skips_tree_construction(monkeypatch):
    # Neither the broker's nor the engine's parse_document may run on the
    # fast path: poisoning both proves no intermediate tree is ever built.
    def boom(*args, **kwargs):
        raise AssertionError("tree parser called on the streaming fast path")

    monkeypatch.setattr("repro.pubsub.broker.parse_document", boom)
    monkeypatch.setattr("repro.core.engine.parse_document", boom)
    broker = Broker(_throughput_config("stream"))
    broker.subscribe(PAPER_Q1.replace("T1", "100"))
    broker.publish(to_xml(make_book_announcement(), pretty=False), timestamp=1.0)
    deliveries = broker.publish(
        to_xml(make_blog_article(), pretty=False), timestamp=2.0
    )
    assert len(deliveries) == 1


def test_default_broker_keeps_tree_path():
    # The default config stores documents, so the fast path must not engage
    # even with ingest="stream" — outputs need the stored trees.
    broker = Broker()
    assert not broker._text_fast_path()
    broker.subscribe(PAPER_Q1.replace("T1", "100"))
    broker.publish(to_xml(make_book_announcement(), pretty=False), timestamp=1.0)
    deliveries = broker.publish(
        to_xml(make_blog_article(), pretty=False), timestamp=2.0
    )
    assert len(deliveries) == 1
    assert deliveries[0].output is not None


@pytest.mark.parametrize(
    "changes",
    [
        {"ingest": "tree"},
        {"stream_history": 4},
    ],
)
def test_fast_path_eligibility_fallbacks(changes):
    config = _throughput_config("stream").replace(**changes)
    broker = Broker(config)
    assert not broker._text_fast_path()
    broker.subscribe(PAPER_Q1.replace("T1", "100"))
    broker.publish(to_xml(make_book_announcement(), pretty=False), timestamp=1.0)
    assert len(broker.publish(to_xml(make_blog_article(), pretty=False), 2.0)) == 1


def test_filter_subscription_disables_fast_path():
    broker = Broker(_throughput_config("stream"))
    assert broker._text_fast_path()
    broker.subscribe("S//book->b")
    assert not broker._text_fast_path()
    # Filter delivery still works on the tree path.
    deliveries = broker.publish(to_xml(make_book_announcement(), pretty=False))
    assert len(deliveries) == 1
    assert deliveries[0].document is not None


def test_repro_ingest_overrides_config(monkeypatch):
    monkeypatch.setenv("REPRO_INGEST", "tree")
    assert resolve_ingest(RuntimeConfig(ingest="stream")) == "tree"
    assert not Broker(_throughput_config("stream"))._text_fast_path()
    monkeypatch.setenv("REPRO_INGEST", "stream")
    assert resolve_ingest(RuntimeConfig(ingest="tree")) == "stream"
    assert Broker(_throughput_config("tree"))._text_fast_path()
    monkeypatch.setenv("REPRO_INGEST", "turbo")
    with pytest.raises(ValueError, match="REPRO_INGEST"):
        resolve_ingest(RuntimeConfig())


def test_ablation_preset_pins_tree_ingest():
    assert RuntimeConfig.ablation().ingest == "tree"
    assert RuntimeConfig().ingest == "stream"


def test_timestamp_semantics_match_tree_path():
    # Explicit stamps, the 0.0 auto-stamp asymmetry and default auto
    # timestamps must all agree between the two ingest paths.
    for stamps in ([0.0, 0.0], [7.5, 9.25], [None, None]):
        keys = {}
        for ingest in ("stream", "tree"):
            broker = Broker(_throughput_config(ingest))
            broker.subscribe(PAPER_Q1.replace("T1", "100"))
            deliveries = []
            docs = [make_book_announcement(), make_blog_article()]
            for doc, ts in zip(docs, stamps):
                deliveries.extend(
                    broker.publish(to_xml(doc, pretty=False), timestamp=ts)
                )
            keys[ingest] = _match_keys(deliveries)
        assert keys["stream"] == keys["tree"], stamps


def test_outputs_off_takes_the_fast_path_without_store_documents(monkeypatch):
    # store_documents=None follows construct_outputs on every broker, so an
    # unsharded throughput broker needs no explicit store_documents=False
    # to skip tree construction.
    def boom(*args, **kwargs):
        raise AssertionError("tree parser called on the streaming fast path")

    monkeypatch.setattr("repro.pubsub.broker.parse_document", boom)
    monkeypatch.setattr("repro.core.engine.parse_document", boom)
    broker = Broker(RuntimeConfig(construct_outputs=False))
    assert broker.engine.store_documents is False
    broker.subscribe(PAPER_Q1.replace("T1", "100"))
    broker.publish(to_xml(make_book_announcement(), pretty=False), timestamp=1.0)
    deliveries = broker.publish(
        to_xml(make_blog_article(), pretty=False), timestamp=2.0
    )
    assert len(deliveries) == 1
