"""The incremental indexed join pipeline.

Covers the three layers the indexing refactor touches:

* relational — live :class:`HashIndex` maintenance under inserts, partition
  drops and lazy rebuilds; :class:`PartitionedRelation` semantics; the
  mutation-counter NDV cache (a prune followed by equal-size inserts must
  not serve stale estimates).
* evaluator — :class:`IndexedDatabase` environments produce exactly the
  same results as plain per-call hashing.
* engine/runtime — any interleaving of ``register_query`` /
  ``process_document`` / ``prune`` yields identical matches across
  ``indexing="eager"``, ``"lazy"``, ``"off"``, both engines, and the
  sharded broker with 1/2/4 shards (property-based).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import RuntimeConfig
from repro.core import JoinState, MMQJPEngine, SequentialEngine
from repro.pubsub import Broker
from repro.relational import (
    ConjunctiveQuery,
    IndexedDatabase,
    PartitionedRelation,
    Relation,
    Var,
    evaluate_conjunctive,
)
from repro.runtime import ShardedBroker
from repro.workloads.querygen import generate_query
from repro.workloads.synthetic import build_document
from repro.xmlmodel.schema import two_level_schema

# --------------------------------------------------------------------------- #
# live indexes on relations
# --------------------------------------------------------------------------- #
def test_index_on_is_memoized_and_live_under_inserts():
    rel = Relation(["docid", "var", "node"], name="Rvar")
    rel.insert(("d1", "a", 1))
    index = rel.index_on(("var",))
    assert index is rel.index_on(("var",))
    assert index is rel.index_on(["var"])  # names or positions, same key
    assert index.lookup("a") == [("d1", "a", 1)]
    rel.insert(("d2", "a", 2))
    rel.insert(("d2", "b", 3))
    assert index.lookup("a") == [("d1", "a", 1), ("d2", "a", 2)]
    assert index.lookup("b") == [("d2", "b", 3)]


def test_lazy_maintenance_rebuilds_on_next_use():
    rel = Relation(["x", "y"], name="lazy", index_maintenance="lazy")
    rel.insert((1, "a"))
    index = rel.index_on((0,))
    assert index.lookup(1) == [(1, "a")]
    rel.insert((1, "b"))
    # Stale until the next index_on call (lazy mode does not update inline)...
    assert index.lookup(1) == [(1, "a")]
    refreshed = rel.index_on((0,))
    assert refreshed is index
    assert index.lookup(1) == [(1, "a"), (1, "b")]


def test_wholesale_rows_assignment_leaves_index_stale_until_next_use():
    # A wholesale ``rows`` assignment bypasses incremental maintenance; a
    # subsequent eager insert must not re-stamp the stale index as current.
    rel = PartitionedRelation(["docid", "v"], name="p")
    rel.insert(("d1", "a"))
    index = rel.index_on(("v",))
    rel.rows = [("d1", "a"), ("d2", "b")]
    rel.insert(("d3", "c"))
    refreshed = rel.index_on(("v",))
    assert refreshed is index
    assert index.lookup("b") == [("d2", "b")]
    assert index.lookup("c") == [("d3", "c")]
    rel.drop_partitions({"d2"})
    assert rel.index_on(("v",)).lookup("b") == []


def test_index_bulk_removal_with_duplicate_rows():
    rel = PartitionedRelation(["docid", "v"], name="p")
    rel.insert_many([("d1", "x"), ("d1", "x"), ("d2", "x"), ("d2", "y")])
    index = rel.index_on(("v",))
    rel.drop_partitions({"d1"})
    assert index.lookup("x") == [("d2", "x")]
    assert index.lookup("y") == [("d2", "y")]


def test_index_survives_clear():
    rel = Relation(["x"], name="r")
    rel.insert((1,))
    index = rel.index_on((0,))
    rel.clear()
    assert index.lookup(1) == []
    rel.insert((1,))
    assert rel.index_on((0,)).lookup(1) == [(1,)]


# --------------------------------------------------------------------------- #
# partitioned relations
# --------------------------------------------------------------------------- #
def test_partitioned_relation_flat_view_and_drop():
    rel = PartitionedRelation(
        ["docid", "node", "strVal"], name="Rdoc", partition_attribute="docid"
    )
    rows = [("d1", 1, "x"), ("d1", 2, "y"), ("d2", 1, "x"), ("d3", 5, "z")]
    rel.insert_many(rows)
    assert rel.rows == rows
    assert len(rel) == 4
    assert rel.num_partitions == 3
    assert rel.partition("d1") == [("d1", 1, "x"), ("d1", 2, "y")]

    removed = rel.drop_partitions({"d1", "d3", "missing"})
    assert removed == 3
    assert len(rel) == 1
    assert rel.rows == [("d2", 1, "x")]
    assert list(rel) == [("d2", 1, "x")]
    assert rel.partition_keys() == ["d2"]


def test_partitioned_drop_updates_live_indexes():
    rel = PartitionedRelation(["docid", "v"], name="p")
    rel.insert_many([("d1", "x"), ("d2", "x"), ("d2", "y")])
    index = rel.index_on(("v",))
    assert index.lookup("x") == [("d1", "x"), ("d2", "x")]
    rel.drop_partitions({"d1"})
    assert index.lookup("x") == [("d2", "x")]
    rel.insert(("d3", "x"))
    assert index.lookup("x") == [("d2", "x"), ("d3", "x")]


def test_partitioned_drop_with_lazy_indexes():
    rel = PartitionedRelation(["docid", "v"], name="p", index_maintenance="lazy")
    rel.insert_many([("d1", "x"), ("d2", "x")])
    rel.index_on(("v",))
    rel.drop_partitions({"d1"})
    assert rel.index_on(("v",)).lookup("x") == [("d2", "x")]


def test_ndv_cache_keyed_on_mutation_counter():
    # The historical bug: a prune followed by equal-size inserts left the
    # row count unchanged, so a count-keyed cache served stale NDV values.
    rel = PartitionedRelation(["docid", "v"], name="p")
    rel.insert_many([("d1", "a"), ("d1", "b"), ("d2", "c")])
    assert rel.distinct_count(1) == 3
    rel.drop_partitions({"d1"})
    rel.insert_many([("d3", "c"), ("d4", "c")])
    assert len(rel) == 3  # same row count as before the prune
    assert rel.distinct_count(1) == 1
    assert rel.distinct_count(0) == 3


def test_base_relation_ndv_cache_invalidated_by_clear_and_reinsert():
    rel = Relation(["v"], name="r")
    rel.insert_many([("a",), ("b",)])
    assert rel.distinct_count(0) == 2
    rel.clear()
    rel.insert_many([("c",), ("c",)])
    assert len(rel) == 2
    assert rel.distinct_count(0) == 1


# --------------------------------------------------------------------------- #
# the indexed evaluation environment
# --------------------------------------------------------------------------- #
def _random_env(rng: random.Random):
    edges = PartitionedRelation(["docid", "a", "b"], name="edge")
    for _ in range(rng.randrange(1, 30)):
        edges.insert((f"d{rng.randrange(4)}", rng.randrange(5), rng.randrange(5)))
    probe = Relation(["b"], name="probe")
    for _ in range(rng.randrange(1, 8)):
        probe.insert((rng.randrange(5),))
    return edges, probe


@pytest.mark.parametrize("indexing", ["eager", "lazy", "off"])
def test_indexed_evaluation_matches_plain(indexing):
    rng = random.Random(42)
    cq = ConjunctiveQuery("out", ["d", "x", "z"], [Var("d"), Var("x"), Var("z")])
    cq.add_atom("probe", [Var("y")])
    cq.add_atom("edge", [Var("d"), Var("x"), Var("y")])
    cq.add_atom("edge", [Var("d"), Var("y"), Var("z")])

    for _ in range(25):
        edges, probe = _random_env(rng)
        plain = evaluate_conjunctive(cq, {"edge": edges, "probe": probe})
        env = IndexedDatabase(indexing=indexing)
        env.bind("edge", edges, indexed=True)
        env.bind("probe", probe)
        indexed = evaluate_conjunctive(cq, env)
        assert sorted(indexed.rows) == sorted(plain.rows)
        if indexing == "off":
            assert edges.num_indexes == 0


def test_indexed_database_mapping_protocol():
    env = IndexedDatabase()
    rel = Relation(["x"], name="r")
    env.bind("r", rel, indexed=True)
    assert env["r"] is rel and env.get("r") is rel
    assert env.get("missing") is None
    assert "r" in env and list(env) == ["r"] and len(env) == 1
    assert env.is_indexed("r")
    env.bind("r", rel, indexed=False)  # rebinding ephemerally clears the flag
    assert not env.is_indexed("r")
    assert env.index_for("r", (0,)) is None
    with pytest.raises(ValueError):
        IndexedDatabase(indexing="sometimes")


def test_join_state_index_on_respects_off_mode():
    assert JoinState(indexing="off").index_on("Rdoc", ("strVal",)) is None
    state = JoinState(indexing="eager")
    index = state.index_on("Rdoc", ("strVal",))
    state.rdoc.insert(("d1", 3, "v"))
    assert index.lookup("v") == [("d1", 3, "v")]
    with pytest.raises(ValueError):
        JoinState(indexing="sometimes")


# --------------------------------------------------------------------------- #
# interleavings of register / process / prune across all configurations
# --------------------------------------------------------------------------- #
SCHEMA = two_level_schema(4)

# An operation stream: queries register mid-stream, documents arrive with
# increasing timestamps, prunes drop everything older than a random horizon.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.integers(1, 4), st.integers(0, 10_000)),
        st.tuples(st.just("doc"), st.tuples(*[st.integers(0, 2)] * 4)),
        st.tuples(st.just("prune"), st.integers(1, 4)),
    ),
    min_size=3,
    max_size=10,
).filter(
    lambda ops: sum(op[0] == "query" for op in ops) >= 1
    and sum(op[0] == "doc" for op in ops) >= 2
)


def _replay_engine(engine, ops):
    """Replay an operation stream against a two-stage engine; match keys."""
    keys = set()
    qid = 0
    ts = 0.0
    for op in ops:
        if op[0] == "query":
            query = generate_query(SCHEMA, op[1], random.Random(op[2]), window=6.0)
            engine.register_query(query, qid=f"q{qid}")
            qid += 1
        elif op[0] == "doc":
            ts += 1.0
            doc = build_document(
                SCHEMA,
                docid=f"doc{int(ts)}",
                timestamp=ts,
                leaf_values=[f"v{x}" for x in op[1]],
            )
            keys.update(m.key() for m in engine.process_document(doc))
        else:
            engine.prune(ts - float(op[1]))
    return keys


def _replay_broker(broker, ops):
    """Replay the same stream through a broker; delivered join-match keys."""
    keys = set()
    qid = 0
    ts = 0.0
    try:
        for op in ops:
            if op[0] == "query":
                query = generate_query(SCHEMA, op[1], random.Random(op[2]), window=6.0)
                broker.subscribe(query, subscription_id=f"q{qid}")
                qid += 1
            elif op[0] == "doc":
                ts += 1.0
                doc = build_document(
                    SCHEMA,
                    docid=f"doc{int(ts)}",
                    timestamp=ts,
                    leaf_values=[f"v{x}" for x in op[1]],
                )
                for result in broker.publish(doc, timestamp=ts):
                    if result.match is not None:
                        keys.add(result.match.key())
            else:
                broker.prune(ts - float(op[1]))
    finally:
        if hasattr(broker, "close"):
            broker.close()
    return keys


@given(_ops)
@settings(max_examples=12, deadline=None)
def test_interleavings_equal_across_modes_and_engines(ops):
    reference = _replay_engine(
        MMQJPEngine(RuntimeConfig(store_documents=False, auto_prune=False, indexing="off")), ops
    )
    for indexing in ("eager", "lazy"):
        for engine_cls in (MMQJPEngine, SequentialEngine):
            engine = engine_cls(RuntimeConfig(
                store_documents=False, auto_prune=False, indexing=indexing
            ))
            assert _replay_engine(engine, ops) == reference
    sequential_off = SequentialEngine(RuntimeConfig(
        store_documents=False, auto_prune=False, indexing="off",
    ))
    assert _replay_engine(sequential_off, ops) == reference


@given(_ops)
@settings(max_examples=8, deadline=None)
def test_interleavings_equal_under_sharded_broker(ops):
    # Register every query up front: shard layouts legitimately disagree
    # about *mid-stream* registration (a late query cannot retroactively see
    # witnesses of documents that arrived before it reached its shard, while
    # on one engine an earlier query with overlapping variables may have
    # captured them) — that is a property of sharding, not of indexing.
    ops = sorted(ops, key=lambda op: op[0] != "query")
    reference = _replay_broker(
        Broker(RuntimeConfig(construct_outputs=False, auto_prune=False, indexing="off")), ops
    )
    for shards in (2, 4):
        for indexing in ("eager", "lazy", "off"):
            broker = ShardedBroker(RuntimeConfig(
                construct_outputs=False, auto_prune=False, shards=shards, indexing=indexing,
            ))
            assert _replay_broker(broker, ops) == reference


def test_auto_prune_equivalence_across_modes():
    """A deterministic stream with automatic window pruning enabled."""
    rng = random.Random(5)
    queries = [generate_query(SCHEMA, k, random.Random(s), window=3.0)
               for k, s in [(1, 11), (2, 22), (3, 33), (2, 44)]]
    docs = [
        build_document(
            SCHEMA,
            docid=f"doc{i}",
            timestamp=float(i + 1),
            leaf_values=[f"v{rng.randrange(3)}" for _ in range(SCHEMA.num_leaves)],
        )
        for i in range(10)
    ]

    results = {}
    for indexing in ("eager", "lazy", "off"):
        engine = MMQJPEngine(RuntimeConfig(store_documents=False, indexing=indexing))
        for i, q in enumerate(queries):
            engine.register_query(q, qid=f"q{i}")
        keys = set()
        for doc in docs:
            keys.update(m.key() for m in engine.process_document(doc))
        results[indexing] = keys
        # auto-pruning kept only the window horizon in state
        assert engine.processor.state.num_documents <= 4
    assert results["eager"] == results["lazy"] == results["off"]
