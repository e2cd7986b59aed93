"""Property-based tests for the engine-level invariants.

The central invariant (shared template evaluation ≡ per-query evaluation) is
exercised with hypothesis-generated workloads: random queries over a small
schema and random document streams with colliding values.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import RuntimeConfig, open_broker
from repro.core import MMQJPEngine, SequentialEngine
from repro.templates import JoinGraph, reduce_join_graph
from repro.workloads.querygen import generate_query
from repro.workloads.synthetic import build_document
from repro.xmlmodel.schema import two_level_schema
from repro.xscl.ast import ValueJoinPredicate

SCHEMA = two_level_schema(4)

# A workload description: per query (k, seed); per document a tuple of leaf
# value indices drawn from a tiny pool so that joins actually fire.
query_specs = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10_000)),
    min_size=1,
    max_size=8,
)
doc_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=2,
    max_size=5,
)


def _make_queries(specs):
    return [generate_query(SCHEMA, k, random.Random(seed), window=10.0) for k, seed in specs]


def _make_documents(specs):
    docs = []
    for i, leaf_values in enumerate(specs):
        docs.append(
            build_document(
                SCHEMA,
                docid=f"doc{i}",
                timestamp=float(i + 1),
                leaf_values=[f"v{x}" for x in leaf_values],
            )
        )
    return docs


def _run(engine, queries, doc_specs):
    for i, query in enumerate(queries):
        engine.register_query(query, qid=f"q{i}")
    keys = set()
    for document in _make_documents(doc_specs):
        keys.update(m.key() for m in engine.process_document(document))
    return keys


@given(query_specs, doc_specs)
@settings(max_examples=25, deadline=None)
def test_mmqjp_equivalent_to_sequential(q_specs, d_specs):
    queries = _make_queries(q_specs)
    mmqjp = _run(MMQJPEngine(RuntimeConfig(store_documents=False)), queries, d_specs)
    sequential = _run(SequentialEngine(RuntimeConfig(store_documents=False)), queries, d_specs)
    assert mmqjp == sequential


@given(query_specs, doc_specs)
@settings(max_examples=15, deadline=None)
def test_view_materialization_equivalent_to_plain(q_specs, d_specs):
    queries = _make_queries(q_specs)
    plain = _run(MMQJPEngine(RuntimeConfig(store_documents=False)), queries, d_specs)
    materialized = _run(
        MMQJPEngine(RuntimeConfig(engine="mmqjp-vm", view_cache_size=16, store_documents=False)),
        queries,
        d_specs,
    )
    assert plain == materialized


@given(query_specs, doc_specs)
@settings(max_examples=15, deadline=None)
def test_matches_respect_window_and_order(q_specs, d_specs):
    queries = _make_queries(q_specs)
    engine = MMQJPEngine(RuntimeConfig(store_documents=False))
    for i, query in enumerate(queries):
        engine.register_query(query, qid=f"q{i}")
    for document in _make_documents(d_specs):
        for match in engine.process_document(document):
            assert match.rhs_timestamp > match.lhs_timestamp
            assert match.rhs_timestamp - match.lhs_timestamp <= match.window
            assert match.rhs_docid == document.docid


@given(query_specs)
@settings(max_examples=30, deadline=None)
def test_template_count_bounded_by_schema(q_specs):
    """The Figure 17 workload creates at most one template per value-join count."""
    queries = _make_queries(q_specs)
    engine = MMQJPEngine(RuntimeConfig(store_documents=False))
    for i, query in enumerate(queries):
        engine.register_query(query, qid=f"q{i}")
    assert engine.num_templates <= SCHEMA.num_leaves


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=5000))
@settings(max_examples=40, deadline=None)
def test_reduction_preserves_value_joins_and_removes_unused_leaves(k, seed):
    query = generate_query(SCHEMA, k, random.Random(seed))
    graph = JoinGraph.from_query(query)
    reduced = reduce_join_graph(graph)
    assert reduced.value_edges == graph.value_edges
    assert reduced.nodes <= graph.nodes
    participants = {n for edge in graph.value_edges for n in edge}
    assert participants <= reduced.nodes
    # Every kept node is a participant or an ancestor (LCA) of participants.
    for node in reduced.nodes:
        assert node in participants or any(
            node in set(graph.ancestors(p)) for p in participants
        )


# --------------------------------------------------------------------------- #
# delta-driven evaluation ≡ full-state evaluation
# --------------------------------------------------------------------------- #
def _delta_config(engine: str, delta_join: bool, **overrides) -> RuntimeConfig:
    return RuntimeConfig(
        engine=engine, delta_join=delta_join, store_documents=False, **overrides
    )


def _assert_delta_stats_consistent(engine, delta_join: bool, num_docs: int) -> None:
    """The skipped/reduced-state-row counters must add up either way."""
    stats = engine.delta_stats
    if not delta_join:
        assert stats == {
            "documents": 0,
            "reductions_computed": 0,
            "reductions_reused": 0,
            "rows_scanned": 0,
            "rows_kept": 0,
        }
        return
    assert stats["documents"] == num_docs
    assert 0 <= stats["rows_kept"] <= stats["rows_scanned"]
    assert stats["reductions_computed"] >= 0
    assert stats["reductions_reused"] >= 0


@given(query_specs, doc_specs)
@settings(max_examples=20, deadline=None)
def test_delta_join_equivalent_on_both_engines(q_specs, d_specs):
    """delta_join on/off produces identical match sets on MMQJP and Sequential."""
    queries = _make_queries(q_specs)
    for engine_name in ("mmqjp", "sequential"):
        results = {}
        for delta_join in (True, False):
            engine = (MMQJPEngine if engine_name == "mmqjp" else SequentialEngine)(
                _delta_config(engine_name, delta_join)
            )
            results[delta_join] = _run(engine, queries, d_specs)
            _assert_delta_stats_consistent(engine, delta_join, len(d_specs))
        assert results[True] == results[False]


@given(query_specs, doc_specs)
@settings(max_examples=10, deadline=None)
def test_delta_join_equivalent_under_knob_matrix(q_specs, d_specs):
    """delta_join × plan_cache × prune_dispatch all agree with the baseline."""
    queries = _make_queries(q_specs)
    baseline = _run(
        MMQJPEngine(_delta_config("mmqjp", False, plan_cache=False, prune_dispatch=False)),
        queries,
        d_specs,
    )
    for delta_join in (True, False):
        for plan_cache in (True, False):
            for prune_dispatch in (True, False):
                engine = MMQJPEngine(
                    _delta_config(
                        "mmqjp",
                        delta_join,
                        plan_cache=plan_cache,
                        prune_dispatch=prune_dispatch,
                    )
                )
                assert _run(engine, queries, d_specs) == baseline


@given(query_specs, doc_specs)
@settings(max_examples=8, deadline=None)
def test_delta_join_equivalent_under_interleavings(q_specs, d_specs):
    """Register/process/prune/deregister interleavings agree across delta modes.

    Half the documents are processed, then the oldest state is pruned and
    the first query deregistered, then the rest of the stream runs — the
    delta-reduced path must track every state mutation exactly.
    """
    queries = _make_queries(q_specs)
    documents = _make_documents(d_specs)
    split = len(documents) // 2

    def run(delta_join: bool):
        engine = MMQJPEngine(_delta_config("mmqjp", delta_join))
        for i, query in enumerate(queries):
            engine.register_query(query, qid=f"q{i}")
        keys = set()
        for document in documents[:split]:
            keys.update((m.key() for m in engine.process_document(document)))
        engine.prune(documents[split - 1].timestamp - 2.0 if split else 0.0)
        engine.deregister_query("q0")
        for document in documents[split:]:
            keys.update((m.key() for m in engine.process_document(document)))
        return keys

    assert run(True) == run(False)


def test_delta_join_equivalent_across_shards():
    """delta_join on/off × engines × 1/2/4 shards: identical deliveries."""
    rng = random.Random(11)
    queries = [generate_query(SCHEMA, k, rng, window=10.0) for k in (1, 2, 2, 3)]
    specs = [(0, 1, 0, 2), (1, 1, 2, 0), (0, 0, 1, 1), (2, 1, 0, 0)]

    reference = None
    for engine in ("mmqjp", "sequential"):
        for delta_join in (True, False):
            for shards in (1, 2, 4):
                broker = open_broker(
                    RuntimeConfig(
                        engine=engine,
                        delta_join=delta_join,
                        construct_outputs=False,
                        shards=shards,
                    )
                )
                try:
                    for i, query in enumerate(queries):
                        broker.subscribe(query, subscription_id=f"q{i}")
                    keys = set()
                    for delivery in broker.publish_many(_make_documents(specs)):
                        if delivery.match is not None:
                            keys.add(delivery.match.key())
                finally:
                    broker.close()
                if reference is None:
                    reference = keys
                assert keys == reference, (engine, delta_join, shards)
    assert reference  # the workload must actually produce matches


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
@settings(max_examples=20, deadline=None)
def test_duplicate_queries_share_templates(leaf_tags):
    """Registering the same query twice reuses the template and doubles RT."""
    from repro.xpath.pattern import simple_pattern
    from repro.xscl.ast import JoinOperator, JoinSpec, QueryBlock, XsclQuery

    leaves = {f"v_{tag}": f".//{tag}" for tag in leaf_tags}
    block = QueryBlock(simple_pattern("S", "v_root", "//item", leaves))
    predicates = tuple(ValueJoinPredicate(f"v_{t}", f"v_{t}") for t in leaf_tags)
    query = XsclQuery(
        left=block,
        right=QueryBlock(simple_pattern("S", "v_root", "//item", dict(leaves))),
        join=JoinSpec(JoinOperator.FOLLOWED_BY, predicates, 5.0),
    )
    engine = MMQJPEngine(RuntimeConfig(store_documents=False))
    engine.register_query(query, qid="first")
    engine.register_query(query, qid="second")
    assert engine.num_templates == 1
    template = engine.registry.templates[0]
    assert len(engine.registry.rt_relation(template)) == 2
