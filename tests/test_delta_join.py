"""Delta-driven evaluation: reduction operators, programs, knob threading.

The equivalence of delta-driven and full-state evaluation at the engine
level is covered property-style in ``test_properties_engine.py``; this file
unit-tests the machinery underneath — the semi-join primitives, the
per-document :class:`~repro.relational.conjunctive.DeltaContext` memoization,
the plan integration, and the ``delta_join`` knob's path through the config,
the processors, the engines and the brokers.
"""

from __future__ import annotations

import pytest

from repro import Broker, RuntimeConfig, open_broker
from repro.core.engine import make_engine
from repro.core.processor import MMQJPJoinProcessor, SequentialJoinProcessor
from repro.relational.conjunctive import (
    ConjunctiveQuery,
    DeltaContext,
    build_delta_program,
    evaluate_conjunctive,
)
from repro.relational.database import IndexedDatabase
from repro.relational.operators import column_value_set, semijoin_in
from repro.relational.plan import PlanCache, compile_plan
from repro.relational.relation import PartitionedRelation, Relation
from repro.relational.terms import Var
from repro.templates.cqt import RELATION_SCHEMAS
from tests.conftest import PAPER_WINDOWS, make_blog_article, make_book_announcement

CROSS = (
    "S//book->x1[.//author->x2] "
    "FOLLOWED BY{x2=x5, 100} "
    "S//blog->x4[.//author->x5]"
)


# --------------------------------------------------------------------------- #
# operators
# --------------------------------------------------------------------------- #
def test_semijoin_in_scan_path_keeps_multiplicity():
    relation = Relation(["a", "b"], rows=[(1, "x"), (2, "y"), (1, "x"), (3, "x")])
    out = semijoin_in(relation, 0, {1, 3})
    assert out.rows == [(1, "x"), (1, "x"), (3, "x")]
    assert out.schema == relation.schema


def test_semijoin_in_with_extra_constraints():
    relation = Relation(["a", "b"], rows=[(1, "x"), (1, "y"), (2, "x")])
    out = semijoin_in(relation, 0, {1, 2}, extra=(((1, frozenset({"x"}))),))
    assert out.rows == [(1, "x"), (2, "x")]


def test_semijoin_in_index_path_matches_scan_path():
    relation = Relation(["a", "b"], rows=[(i % 5, f"v{i % 3}") for i in range(30)])
    index = relation.index_on((0,))
    values = {1, 4}
    extra = ((1, frozenset({"v0", "v2"})),)
    probed = semijoin_in(relation, 0, values, extra=extra, index=index)
    scanned = semijoin_in(relation, 0, values, extra=extra)
    assert sorted(probed.rows) == sorted(scanned.rows)


def test_column_value_set_with_const_checks():
    relation = Relation(["a", "b"], rows=[(1, "x"), (2, "y"), (1, "z")])
    assert column_value_set(relation, 1) == {"x", "y", "z"}
    assert column_value_set(relation, 1, ((0, 1),)) == {"x", "z"}


# --------------------------------------------------------------------------- #
# a small state + witness environment shared by the reduction tests
# --------------------------------------------------------------------------- #
def _environment(indexing: str = "eager", num_docs: int = 40, alive: int = 4):
    env = IndexedDatabase(indexing=indexing)
    rdoc = PartitionedRelation(RELATION_SCHEMAS["Rdoc"], name="Rdoc")
    rbin = PartitionedRelation(RELATION_SCHEMAS["Rbin"], name="Rbin")
    for d in range(num_docs):
        docid = f"s{d}"
        names = ("v_root", "v_leaf") if d < alive else ("dead_root", "dead_leaf")
        for leaf in range(3):
            rdoc.insert((docid, leaf + 1, f"v{d % 4}"))
            rbin.insert((docid, names[0], names[1], 0, leaf + 1))
    env.bind("Rdoc", rdoc, indexed=True)
    env.bind("Rbin", rbin, indexed=True)

    rdocw = Relation(RELATION_SCHEMAS["RdocW"], name="RdocW")
    rbinw = Relation(RELATION_SCHEMAS["RbinW"], name="RbinW")
    for leaf in range(3):
        rdocw.insert((leaf + 1, "v1"))
        rbinw.insert(("v_root", "v_leaf", 0, leaf + 1))
    env.bind("RdocW", rdocw)
    env.bind("RbinW", rbinw)
    return env


def _query() -> ConjunctiveQuery:
    cq = ConjunctiveQuery(
        "Out", ["docid", "n1", "m1"], [Var("docid"), Var("n1"), Var("m1")]
    )
    cq.add_atom("Rdoc", [Var("docid"), Var("n1"), Var("s")])
    cq.add_atom("RdocW", [Var("m1"), Var("s")])
    cq.add_atom("Rbin", [Var("docid"), Var("p"), Var("c"), Var("nr"), Var("n1")])
    cq.add_atom("RbinW", [Var("p"), Var("c"), Var("mr"), Var("m1")])
    return cq


# --------------------------------------------------------------------------- #
# the reduction program
# --------------------------------------------------------------------------- #
def test_build_delta_program_classifies_stable_and_delta_atoms():
    env = _environment()
    program = build_delta_program(_query().body, env)
    assert program is not None and program.reducible


def test_build_delta_program_requires_stability_information():
    plain = {"Rdoc": Relation(RELATION_SCHEMAS["Rdoc"], name="Rdoc")}
    assert build_delta_program(_query().body, plain) is None


def test_delta_reduction_prunes_dead_state_rows():
    env = _environment(num_docs=40, alive=4)
    program = build_delta_program(_query().body, env)
    ctx = DeltaContext()
    reduced = program.reduce(env, ctx)
    assert reduced is not None
    by_position = dict(enumerate(reduced))
    # Rbin (body position 2) shrinks to the alive documents' rows: the dead
    # tail's decoy variable names are unreachable from the witness delta.
    assert by_position[2] is not None
    assert {row[0] for row in by_position[2].rows} <= {f"s{d}" for d in range(4)}
    # Delta (witness) atoms are never reduced.
    assert by_position[1] is None and by_position[3] is None
    assert ctx.rows_kept <= ctx.rows_scanned


def test_delta_evaluation_equivalence_across_paths_and_indexing():
    cq = _query()
    for indexing in ("eager", "lazy", "off"):
        env = _environment(indexing=indexing)
        baseline = evaluate_conjunctive(cq, env)
        assert len(baseline.rows) > 0
        assert evaluate_conjunctive(cq, env, delta=DeltaContext()) == baseline
        cache = PlanCache()
        assert cache.evaluate(cq, env, delta=DeltaContext()) == baseline
        assert cache.evaluate(cq, env) == baseline


def test_delta_context_memoizes_across_templates():
    env = _environment()
    cq = _query()
    cache = PlanCache()
    ctx = DeltaContext()
    cache.evaluate(cq, env, delta=ctx)
    computed = ctx.reductions_computed
    assert computed > 0 and ctx.reductions_reused == 0
    for _ in range(3):
        cache.evaluate(cq, env, delta=ctx)
    # Re-evaluations only hit the memo: nothing new is computed.
    assert ctx.reductions_computed == computed
    assert ctx.reductions_reused == 3 * computed


def test_delta_context_meet_preserves_identity():
    ctx = DeltaContext()
    a = frozenset({1, 2, 3})
    b = frozenset({2, 3, 4})
    assert ctx.meet(None, a) is a
    assert ctx.meet(a, a) is a
    assert ctx.meet(a, frozenset({1, 2, 3, 9})) is a
    assert ctx.meet(a, b) == {2, 3}


def test_compiled_plan_carries_delta_program():
    env = _environment()
    plan = compile_plan(_query(), env)
    assert plan.delta_program is not None
    step_relations = plan.reduced_step_relations(env, DeltaContext())
    assert step_relations is not None and len(step_relations) == len(plan.steps)
    assert any(rel is not None for rel in step_relations)


# --------------------------------------------------------------------------- #
# knob threading: config -> engines -> processors -> brokers
# --------------------------------------------------------------------------- #
def test_config_delta_join_defaults_and_ablation():
    assert RuntimeConfig().delta_join is True
    assert RuntimeConfig.ablation().delta_join is False
    assert RuntimeConfig.throughput().delta_join is True


def test_engines_expose_delta_join_knob():
    for engine_name in ("mmqjp", "sequential"):
        on = make_engine(config=RuntimeConfig(engine=engine_name))
        off = make_engine(
            config=RuntimeConfig(engine=engine_name, delta_join=False)
        )
        assert on.delta_join is True
        assert off.delta_join is False
        assert set(on.delta_stats) == {
            "documents",
            "reductions_computed",
            "reductions_reused",
            "rows_scanned",
            "rows_kept",
        }


def test_processor_accepts_explicit_delta_join_knob():
    from repro.templates.registry import TemplateRegistry

    processor = MMQJPJoinProcessor(TemplateRegistry(), config=RuntimeConfig(delta_join=False))
    assert processor.delta_join is False
    sequential = SequentialJoinProcessor(config=RuntimeConfig(delta_join=False))
    assert sequential.delta_join is False
    # Config fills the knob when it is not given explicitly.
    configured = SequentialJoinProcessor(config=RuntimeConfig(delta_join=False))
    assert configured.delta_join is False


def test_engine_delta_stats_track_documents():
    engine = make_engine(config=RuntimeConfig(store_documents=False))
    engine.register_query(CROSS, window_symbols=PAPER_WINDOWS)
    engine.process_document(make_book_announcement("b1", 1.0))
    engine.process_document(make_blog_article("g1", 2.0))
    stats = engine.delta_stats
    assert stats["documents"] == 2
    assert stats["rows_kept"] <= stats["rows_scanned"]

    ablated = make_engine(config=RuntimeConfig.ablation(store_documents=False))
    ablated.register_query(CROSS, window_symbols=PAPER_WINDOWS)
    ablated.process_document(make_book_announcement("b1", 1.0))
    assert ablated.delta_stats["documents"] == 0


# --------------------------------------------------------------------------- #
# brokers: batched fast path and the single-document sharded path
# --------------------------------------------------------------------------- #
def _paper_documents():
    return [
        make_book_announcement("b1", 1.0),
        make_blog_article("g1", 2.0),
        make_book_announcement("b2", 3.0),
        make_blog_article("g2", 4.0, author="Andrew Watt"),
    ]


def _delivery_keys(deliveries):
    return {
        (d.subscription_id, d.match.key()) for d in deliveries if d.match is not None
    }


def test_publish_many_matches_publish_loop():
    """The batched ingestion fast path delivers exactly what a loop does."""
    loop_broker = Broker(RuntimeConfig())
    batch_broker = Broker(RuntimeConfig())
    for broker in (loop_broker, batch_broker):
        broker.subscribe(CROSS, window_symbols=PAPER_WINDOWS, subscription_id="q")
    looped = []
    for document in _paper_documents():
        looped.extend(loop_broker.publish(document))
    batched = batch_broker.publish_many(_paper_documents())
    assert _delivery_keys(batched) == _delivery_keys(looped)
    assert len(batched) == len(looped)
    assert [d.subscription_id for d in batched] == [d.subscription_id for d in looped]


def test_sharded_publish_single_document_path():
    """ShardedBroker.publish (direct path) ≡ publish_many([doc])."""
    direct = open_broker(RuntimeConfig(shards=2))
    batched = open_broker(RuntimeConfig(shards=2))
    try:
        for broker in (direct, batched):
            broker.subscribe(CROSS, window_symbols=PAPER_WINDOWS, subscription_id="q")
        direct_deliveries = []
        for document in _paper_documents():
            direct_deliveries.extend(direct.publish(document))
        batch_deliveries = []
        for document in _paper_documents():
            batch_deliveries.extend(batched.publish_many([document]))
        assert _delivery_keys(direct_deliveries) == _delivery_keys(batch_deliveries)
        assert len(direct_deliveries) == len(batch_deliveries)
    finally:
        direct.close()
        batched.close()


def test_sharded_publish_skips_empty_shards():
    broker = open_broker(RuntimeConfig(shards=4))
    try:
        broker.subscribe(CROSS, window_symbols=PAPER_WINDOWS, subscription_id="q")
        deliveries = []
        for document in _paper_documents():
            deliveries.extend(broker.publish(document))
        assert _delivery_keys(deliveries)
        stats = broker.stats()
        # Only the owning shard processed documents; empty shards skipped.
        per_shard = {row["shard"]: row for row in stats["per_shard"]}
        owner = broker.shard_of("q")
        assert per_shard[owner]["num_documents_processed"] == len(_paper_documents())
        for shard_id, row in per_shard.items():
            if shard_id != owner:
                assert row["num_documents_processed"] == 0
    finally:
        broker.close()


def test_relevance_sync_hoisted_across_batch():
    """begin_batch syncs the relevance index once for the whole batch."""
    engine = make_engine(config=RuntimeConfig(store_documents=False))
    engine.register_query(CROSS, window_symbols=PAPER_WINDOWS)
    processor = engine.processor
    processor.begin_batch()
    try:
        assert processor._in_batch is True
        assert processor.relevance is not None
        assert processor.relevance.num_members > 0
    finally:
        processor.end_batch()
    assert processor._in_batch is False


def test_delta_join_off_reproduces_default_results_end_to_end():
    keys = {}
    for delta_join in (True, False):
        broker = Broker(RuntimeConfig(delta_join=delta_join))
        broker.subscribe(CROSS, window_symbols=PAPER_WINDOWS, subscription_id="q")
        deliveries = broker.publish_many(_paper_documents())
        keys[delta_join] = _delivery_keys(deliveries)
        broker.close()
    assert keys[True] == keys[False]
    assert keys[True]
