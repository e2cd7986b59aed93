"""Compiled query plans: equivalence with the per-call evaluator, the stats
epoch of the plan cache, and the adaptive growth budget."""

import pytest

from repro.relational.conjunctive import ConjunctiveQuery, evaluate_conjunctive
from repro.relational.database import IndexedDatabase
from repro.relational.plan import (
    CompiledPlan,
    PlanBudgetExceeded,
    PlanCache,
    compile_plan,
)
from repro.relational.relation import Relation
from repro.relational.schema import SchemaError
from repro.relational.terms import Const, Var


def _db(**relations):
    return dict(relations)


def _rel(attrs, rows):
    return Relation(attrs, rows)


def _query(head_schema, head_terms, atoms, distinct=True):
    cq = ConjunctiveQuery(
        head_name="out", head_schema=head_schema, head_terms=head_terms, distinct=distinct
    )
    for name, terms in atoms:
        cq.add_atom(name, terms)
    return cq


def assert_same_result(cq, relations):
    expected = evaluate_conjunctive(cq, relations)
    plan = compile_plan(cq, relations)
    actual = plan.execute(relations)
    assert sorted(actual.rows) == sorted(expected.rows)
    assert actual.schema == expected.schema
    return plan


# --------------------------------------------------------------------------- #
# result equivalence
# --------------------------------------------------------------------------- #
def test_simple_join_matches_evaluator():
    relations = _db(
        R=_rel(["a", "b"], [(1, 10), (2, 20), (2, 21)]),
        S=_rel(["b", "c"], [(10, "x"), (20, "y"), (21, "y"), (99, "z")]),
    )
    cq = _query(
        ["a", "c"], [Var("a"), Var("c")],
        [("R", [Var("a"), Var("b")]), ("S", [Var("b"), Var("c")])],
    )
    assert_same_result(cq, relations)


def test_constants_and_repeated_variables():
    relations = _db(
        R=_rel(["a", "b", "c"], [(1, 1, "k"), (1, 2, "k"), (3, 3, "m"), (4, 4, "k")]),
    )
    # Repeated fresh variable within the atom plus a constant check.
    cq = _query(
        ["a"], [Var("a")],
        [("R", [Var("a"), Var("a"), Const("k")])],
    )
    assert_same_result(cq, relations)


def test_cartesian_step():
    relations = _db(
        R=_rel(["a"], [(1,), (2,)]),
        S=_rel(["b"], [(10,), (20,)]),
    )
    cq = _query(
        ["a", "b"], [Var("a"), Var("b")],
        [("R", [Var("a")]), ("S", [Var("b")])],
    )
    assert_same_result(cq, relations)


def test_empty_body_constant_head():
    cq = _query(["k"], [Const(7)], [])
    result = compile_plan(cq, {}).execute({})
    assert result.rows == [(7,)]
    assert result.rows == evaluate_conjunctive(cq, {}).rows


def test_empty_relation_short_circuits():
    relations = _db(
        R=_rel(["a"], []),
        S=_rel(["a", "b"], [(1, 2)]),
    )
    cq = _query(
        ["b"], [Var("b")],
        [("R", [Var("a")]), ("S", [Var("a"), Var("b")])],
    )
    plan = assert_same_result(cq, relations)
    assert plan.execute(relations).rows == []


def test_unbound_head_variable_raises_only_with_solutions():
    relations = _db(R=_rel(["a"], [(1,)]))
    cq = _query(["z"], [Var("z")], [("R", [Var("a")])])
    plan = compile_plan(cq, relations)
    with pytest.raises(SchemaError):
        plan.execute(relations)
    # With no solutions the evaluator returns empty instead of raising.
    empty = _db(R=_rel(["a"], []))
    assert compile_plan(cq, empty).execute(empty).rows == []
    assert evaluate_conjunctive(cq, empty).rows == []


def test_distinct_false_keeps_duplicates():
    relations = _db(R=_rel(["a", "b"], [(1, 1), (1, 2)]))
    cq = _query(["a"], [Var("a")], [("R", [Var("a"), Var("b")])], distinct=False)
    result = compile_plan(cq, relations).execute(relations)
    assert sorted(result.rows) == [(1,), (1,)]


def test_arity_mismatch_raises_at_compile_time():
    relations = _db(R=_rel(["a", "b"], [(1, 2)]))
    cq = _query(["a"], [Var("a")], [("R", [Var("a")])])
    with pytest.raises(SchemaError):
        compile_plan(cq, relations)


def test_unknown_relation_raises_at_compile_time():
    cq = _query(["a"], [Var("a")], [("Nope", [Var("a")])])
    with pytest.raises(SchemaError):
        compile_plan(cq, {"R": _rel(["a"], [])})


# --------------------------------------------------------------------------- #
# indexed environments
# --------------------------------------------------------------------------- #
def test_compiled_plan_uses_persistent_indexes():
    env = IndexedDatabase(indexing="eager")
    state = _rel(["a", "b"], [(1, 10), (2, 20)])
    env.bind("R", state, indexed=True)
    env.bind("W", _rel(["b", "c"], [(10, "x"), (20, "y")]))
    cq = _query(
        ["a", "c"], [Var("a"), Var("c")],
        [("W", [Var("b"), Var("c")]), ("R", [Var("a"), Var("b")])],
    )
    plan = compile_plan(cq, env)
    before = state.num_indexes
    result = plan.execute(env)
    assert sorted(result.rows) == [(1, "x"), (2, "y")]
    # The indexed relation is probed through a live index, built on demand.
    assert state.num_indexes >= max(before, 1)
    # The index stays current under inserts.
    state.insert((3, 30))
    env.bind("W", _rel(["b", "c"], [(30, "z")]))
    assert plan.execute(env).rows == [(3, "z")]


# --------------------------------------------------------------------------- #
# the plan cache and its stats epoch
# --------------------------------------------------------------------------- #
def _cache_env(num_rows):
    env = IndexedDatabase(indexing="eager")
    env.bind("R", _rel(["a", "b"], [(i, i * 10) for i in range(num_rows)]), indexed=True)
    env.bind("W", _rel(["b"], [(10,)]))
    return env


CQ = _query(
    ["a"], [Var("a")],
    [("R", [Var("a"), Var("b")]), ("W", [Var("b")])],
)


def test_plan_cache_hits_on_unchanged_stats():
    env = _cache_env(4)
    cache = PlanCache()
    first = cache.evaluate(CQ, env)
    second = cache.evaluate(CQ, env)
    assert sorted(first.rows) == sorted(second.rows) == [(1,)]
    assert cache.stats() == {"plans": 1, "hits": 1, "misses": 1, "replans": 0, "aborts": 0}


def test_plan_cache_survives_small_growth():
    env = _cache_env(8)
    cache = PlanCache()
    cache.evaluate(CQ, env)
    env["R"].insert((8, 80))  # 8 -> 9 rows: same power-of-two bucket
    cache.evaluate(CQ, env)
    assert cache.replans == 0
    assert cache.hits == 1


def test_plan_cache_replans_on_stats_drift():
    env = _cache_env(8)
    cache = PlanCache()
    cache.evaluate(CQ, env)
    for i in range(100, 200):  # 8 -> 108 rows: several buckets up
        env["R"].insert((i, i * 10))
    cache.evaluate(CQ, env)
    assert cache.replans == 1
    # The refreshed plan is current again afterwards.
    cache.evaluate(CQ, env)
    assert cache.hits == 1


def test_plan_cache_ignores_ephemeral_churn():
    env = _cache_env(4)
    cache = PlanCache()
    cache.evaluate(CQ, env)
    # Rebinding the ephemeral relation with wildly different sizes must not
    # invalidate the plan: only stable (indexed) relations carry the epoch.
    env.bind("W", _rel(["b"], [(i,) for i in range(500)]))
    cache.evaluate(CQ, env)
    assert cache.replans == 0
    assert cache.hits == 1


def test_plan_distinguishes_stable_relations():
    env = _cache_env(4)
    plan = compile_plan(CQ, env)
    assert plan.is_current(env)
    # Dropping the stable relation invalidates the plan outright.
    env.unbind("R")
    assert not plan.is_current(env)


# --------------------------------------------------------------------------- #
# the adaptive growth budget
# --------------------------------------------------------------------------- #
def _blowup_env(n):
    """Two relations whose cartesian product has n * n rows."""
    return _db(
        A=_rel(["a"], [(i,) for i in range(n)]),
        B=_rel(["b"], [(i,) for i in range(n)]),
    )


BLOWUP_CQ = _query(
    ["a", "b"], [Var("a"), Var("b")],
    [("A", [Var("a")]), ("B", [Var("b")])],
)


def test_budget_aborts_oversized_execution():
    relations = _blowup_env(40)  # 1600 intermediate solutions
    plan = compile_plan(BLOWUP_CQ, relations)
    with pytest.raises(PlanBudgetExceeded):
        plan.execute(relations, growth_limit=100)
    # Unbudgeted execution completes.
    assert len(plan.execute(relations).rows) == 1600


def test_cache_replans_and_recovers_after_abort():
    relations = _blowup_env(40)
    cache = PlanCache(growth_limit=100)
    first = cache.evaluate(BLOWUP_CQ, relations)  # fresh compile: unbudgeted
    assert len(first.rows) == 1600
    second = cache.evaluate(BLOWUP_CQ, relations)  # cached: aborts, replans
    assert len(second.rows) == 1600
    assert cache.aborts == 1


def test_plan_for_shares_cache_with_evaluate():
    env = _cache_env(4)
    cache = PlanCache()
    plan = cache.plan_for(CQ, env)
    assert cache.plan_for(CQ, env) is plan
    cache.evaluate(CQ, env)
    assert cache.stats()["plans"] == 1
    assert cache.hits == 2 and cache.misses == 1
