"""Integration tests reproducing the paper's running example (Section 4.4.1).

The two documents of Figures 1 and 2 are streamed through both engines with
the three queries of Table 2 registered; the expected outcome is spelled out
in Table 4(f): Q1 and Q2 each produce exactly one result joining d1 with d2,
Q3 produces none, and all three queries share a single query template
(Figure 5).
"""

from __future__ import annotations

import pytest

from repro.config import RuntimeConfig
from repro.core import MMQJPEngine, SequentialEngine
from repro.xmlmodel import to_xml
from tests.conftest import (
    PAPER_WINDOWS,
    make_blog_article,
    make_book_announcement,
)


def _engine_with_paper_queries(engine_cls, config=None):
    engine = engine_cls(config)
    from tests.conftest import PAPER_Q1, PAPER_Q2, PAPER_Q3

    for qid, text in (("Q1", PAPER_Q1), ("Q2", PAPER_Q2), ("Q3", PAPER_Q3)):
        engine.register_query(text, qid=qid, window_symbols=PAPER_WINDOWS)
    return engine


@pytest.mark.parametrize("engine_cls", [MMQJPEngine, SequentialEngine])
def test_running_example_matches(engine_cls):
    engine = _engine_with_paper_queries(engine_cls)
    first = engine.process_document(make_book_announcement())
    assert first == []

    matches = engine.process_document(make_blog_article())
    by_qid = {m.qid: m for m in matches}
    assert sorted(by_qid) == ["Q1", "Q2"]
    assert all(m.lhs_docid == "d1" and m.rhs_docid == "d2" for m in matches)


@pytest.mark.parametrize(
    "engine_kwargs",
    [
        {},
        {"engine": "mmqjp-vm"},
        {"engine": "mmqjp-vm", "view_cache_size": 64},
    ],
)
def test_running_example_mmqjp_variants(engine_kwargs):
    engine = _engine_with_paper_queries(MMQJPEngine, RuntimeConfig(**engine_kwargs))
    engine.process_document(make_book_announcement())
    matches = engine.process_document(make_blog_article())
    assert sorted(m.qid for m in matches) == ["Q1", "Q2"]


def test_single_template_for_all_three_queries():
    """Q1, Q2 and Q3 all belong to the single template of Figure 5."""
    engine = _engine_with_paper_queries(MMQJPEngine)
    assert engine.num_templates == 1
    template = engine.registry.templates[0]
    assert len(template.meta_order) == 6
    assert len(template.value_edges) == 2
    assert len(template.structural_edges) == 4


def test_q1_node_bindings_match_table4f():
    """Q1's bindings are (node1..node6) = (0, 2, 4, 0, 2, 3) as in Table 4(f)."""
    engine = _engine_with_paper_queries(MMQJPEngine)
    engine.process_document(make_book_announcement())
    matches = engine.process_document(make_blog_article())
    q1 = next(m for m in matches if m.qid == "Q1")
    assert q1.lhs_bindings == {"x1": 0, "x2": 2, "x3": 4}
    assert q1.rhs_bindings == {"x4": 0, "x5": 2, "x6": 3}


def test_q2_node_bindings_match_table4f():
    """Q2's bindings are (0, 2, 5, 0, 2, 5) as in Table 4(f)."""
    engine = _engine_with_paper_queries(MMQJPEngine)
    engine.process_document(make_book_announcement())
    matches = engine.process_document(make_blog_article())
    q2 = next(m for m in matches if m.qid == "Q2")
    assert q2.lhs_bindings == {"x1": 0, "x2": 2, "x7": 5}
    assert q2.rhs_bindings == {"x4": 0, "x5": 2, "x8": 5}


def test_q3_matches_on_blog_cross_posting():
    """Q3 fires when two blog articles share author and title."""
    engine = _engine_with_paper_queries(MMQJPEngine)
    engine.process_document(make_blog_article(docid="b1", timestamp=1.0))
    matches = engine.process_document(make_blog_article(docid="b2", timestamp=2.0))
    assert any(m.qid == "Q3" for m in matches)
    q3 = next(m for m in matches if m.qid == "Q3")
    assert (q3.lhs_docid, q3.rhs_docid) == ("b1", "b2")


def test_window_constraint_excludes_late_followups():
    """A blog article arriving after the window produces no Q1/Q2 results."""
    engine = _engine_with_paper_queries(MMQJPEngine)
    engine.process_document(make_book_announcement(timestamp=1.0))
    matches = engine.process_document(make_blog_article(timestamp=100.0))
    assert matches == []


def test_no_match_when_author_differs():
    engine = _engine_with_paper_queries(MMQJPEngine)
    engine.process_document(make_book_announcement())
    matches = engine.process_document(make_blog_article(author="Somebody Else"))
    assert all(m.qid != "Q1" for m in matches)
    # Q2 also requires the author join, so nothing fires at all.
    assert matches == []


def test_order_matters_for_followed_by():
    """FOLLOWED BY is directional: blog before book produces nothing."""
    engine = _engine_with_paper_queries(MMQJPEngine)
    engine.process_document(make_blog_article(timestamp=1.0))
    matches = engine.process_document(make_book_announcement(timestamp=2.0))
    assert matches == []


def test_output_document_contains_both_subtrees():
    engine = _engine_with_paper_queries(MMQJPEngine)
    engine.process_document(make_book_announcement())
    matches = engine.process_document(make_blog_article())
    q1 = next(m for m in matches if m.qid == "Q1")
    output = engine.output_document(q1)
    assert output.root.tag == "result"
    assert [child.tag for child in output.root.children] == ["book", "blog"]
    text = to_xml(output)
    assert "Danny Ayers" in text
    assert "Beginning RSS and Atom Programming" in text


def test_engines_agree_on_example(blog_document, book_document):
    mmqjp = _engine_with_paper_queries(MMQJPEngine)
    sequential = _engine_with_paper_queries(SequentialEngine)
    for engine in (mmqjp, sequential):
        engine.process_document(make_book_announcement())
    keys_mmqjp = {m.key() for m in mmqjp.process_document(make_blog_article())}
    keys_seq = {m.key() for m in sequential.process_document(make_blog_article())}
    assert keys_mmqjp == keys_seq
