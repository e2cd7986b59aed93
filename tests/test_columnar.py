"""Columnar storage: the interned-id sidecar, vectorized kernels and knob.

Covers the :mod:`repro.relational.columnar` building blocks (dictionary,
sidecar sync, group index), the columnar fast paths in the operators and the
plan executor (always against their row-path results), and the ``columnar``
knob's route through the config, the processors, the engines and the
``REPRO_COLUMNAR`` environment override.
"""

from __future__ import annotations

import pytest

import repro.relational.columnar as columnar
from repro import RuntimeConfig, open_broker
from repro.core.engine import make_engine
from repro.core.processor import MMQJPJoinProcessor, SequentialJoinProcessor
from repro.relational.columnar import (
    ColumnStore,
    GroupIndex,
    ValueDictionary,
    distinct_ids,
    select_positions,
)
from repro.relational.conjunctive import ConjunctiveQuery, DeltaContext
from repro.relational.database import IndexedDatabase
from repro.relational.operators import column_value_set, semijoin_in
from repro.relational.plan import compile_plan
from repro.relational.relation import PartitionedRelation, Relation
from repro.relational.terms import Const, Var
from tests.conftest import (
    PAPER_Q1,
    PAPER_Q2,
    PAPER_Q3,
    PAPER_WINDOWS,
    make_blog_article,
    make_book_announcement,
)

numpy_only = pytest.mark.skipif(
    not columnar.HAVE_NUMPY, reason="numpy unavailable in this environment"
)


# --------------------------------------------------------------------------- #
# ValueDictionary
# --------------------------------------------------------------------------- #
def test_dictionary_interns_densely_and_stably():
    d = ValueDictionary()
    a = d.id_of("x")
    b = d.id_of(7)
    assert d.id_of("x") == a  # stable across calls
    assert (a, b) == (0, 1)  # dense, insertion-ordered
    assert d.value_of(a) == "x" and d.value_of(b) == 7
    assert len(d) == 2
    assert d.values[a] == "x"


def test_dictionary_get_id_handles_unseen_and_unhashable():
    d = ValueDictionary()
    d.id_of("x")
    assert d.get_id("x") == 0
    assert d.get_id("never-seen") is None
    assert d.get_id(["unhashable"]) is None


# --------------------------------------------------------------------------- #
# ColumnStore sync
# --------------------------------------------------------------------------- #
def _stored(relation: Relation, dictionary=None) -> ColumnStore:
    dictionary = dictionary if dictionary is not None else ValueDictionary()
    relation.enable_columnar(dictionary)
    store = relation.column_store()
    assert store is not None
    return store


def _decode(store: ColumnStore) -> list[tuple]:
    cols = [list(c) for c in store.columns()]
    value_of = store.dictionary.value_of
    return [
        tuple(value_of(int(cols[c][i])) for c in range(len(cols)))
        for i in range(len(store))
    ]


def test_store_mirrors_rows_and_appends_incrementally():
    rel = Relation(["a", "b"], rows=[(1, "x"), (2, "y")])
    store = _stored(rel)
    assert _decode(store) == [(1, "x"), (2, "y")]
    before = len(store.dictionary)
    rel.insert((1, "z"))
    store = rel.column_store()
    assert _decode(store) == [(1, "x"), (2, "y"), (1, "z")]
    # Only the appended suffix was interned (one new value).
    assert len(store.dictionary) == before + 1


def test_store_rebuilds_after_delete_and_clear():
    rel = Relation(["a"], rows=[(i,) for i in range(6)])
    store = _stored(rel)
    assert len(store) == 6
    rel.delete_rows(lambda row: row[0] % 2 == 0)
    store = rel.column_store()
    assert _decode(store) == [(1,), (3,), (5,)]
    rel.clear()
    store = rel.column_store()
    assert store is not None and len(store) == 0


def test_store_survives_retained_views_across_sync():
    # A caller that holds on to columns() across a mutation must not be able
    # to wedge the sidecar (numpy views pin the array buffers).
    rel = Relation(["a"], rows=[(1,), (2,)])
    store = _stored(rel)
    retained = store.columns()
    rel.insert((3,))
    store = rel.column_store()
    assert store is not None and not store.disabled
    assert _decode(store) == [(1,), (2,), (3,)]
    if columnar.HAVE_NUMPY:
        assert len(retained[0]) == 2  # the old view still sees the old prefix


def test_store_disables_on_unhashable_row_values():
    rel = Relation(["a"], rows=[(1,)])
    rel.enable_columnar(ValueDictionary())
    assert rel.column_store() is not None
    rel.insert(([1, 2],))  # lists cannot be interned
    assert rel.column_store() is None


def test_frozen_store_disables_when_its_relation_mutates():
    dictionary = ValueDictionary()
    ids = [dictionary.id_of(v) for v in ("x", "y")]
    derived = Relation(["a"], rows=[("x",), ("y",)])
    derived._attach_store(
        ColumnStore.from_columns(
            [columnar.array("q", ids)], dictionary, derived._stamp()
        )
    )
    assert derived.column_store() is not None
    derived.insert(("z",))
    assert derived.column_store() is None


def test_enable_columnar_rehomes_on_new_dictionary():
    rel = Relation(["a"], rows=[("x",)])
    first = ValueDictionary()
    rel.enable_columnar(first)
    assert rel.column_store().dictionary is first
    second = ValueDictionary()
    rel.enable_columnar(second)
    assert rel.column_store().dictionary is second
    rel.enable_columnar(second)  # idempotent per dictionary
    assert rel.column_store().dictionary is second


def test_partitioned_relation_store_tracks_drops():
    rel = PartitionedRelation(
        ["docid", "v"], rows=[("d1", "x"), ("d1", "y"), ("d2", "z")]
    )
    store = _stored(rel)
    assert len(store) == 3
    rel.drop_partitions(["d1"])
    store = rel.column_store()
    assert _decode(store) == [("d2", "z")]


# --------------------------------------------------------------------------- #
# selection kernels (both modes)
# --------------------------------------------------------------------------- #
def test_select_positions_and_distinct_ids_match_bruteforce():
    rel = Relation(
        ["a", "b"], rows=[(i % 4, f"v{i % 3}") for i in range(40)]
    )
    d = ValueDictionary()
    store = _stored(rel, d)
    dom_a = frozenset({d.id_of(1), d.id_of(3)})
    dom_b = frozenset({d.id_of("v0")})
    got = list(
        select_positions(
            store.columns(), len(store), [(0, dom_a), (1, dom_b)]
        )
    )
    expected = [
        i
        for i, row in enumerate(rel.rows)
        if row[0] in (1, 3) and row[1] == "v0"
    ]
    assert [int(p) for p in got] == expected
    ids = distinct_ids(store.columns()[0])
    assert {d.value_of(i) for i in ids} == {0, 1, 2, 3}


def test_kernels_pure_array_fallback(monkeypatch):
    monkeypatch.setattr(columnar, "_np", None)
    rel = Relation(["a"], rows=[(i % 5,) for i in range(20)])
    d = ValueDictionary()
    store = _stored(rel, d)
    cols = store.columns()
    assert isinstance(cols[0], columnar.array)
    dom = frozenset({d.id_of(2), d.id_of(4)})
    got = select_positions(cols, len(store), [(0, dom)])
    assert list(got) == [i for i, row in enumerate(rel.rows) if row[0] in (2, 4)]
    assert {d.value_of(i) for i in distinct_ids(cols[0], got)} == {2, 4}
    assert store.group((0,)) is None  # vectorized joins report unavailable
    assert store.probe((0,), [None]) is None


# --------------------------------------------------------------------------- #
# GroupIndex
# --------------------------------------------------------------------------- #
@numpy_only
def test_group_probe_matches_bucket_semantics():
    np = columnar._np
    rel = Relation(
        ["a", "b", "c"],
        rows=[(i % 3, i % 2, i) for i in range(30)],
    )
    d = ValueDictionary()
    store = _stored(rel, d)
    probes = [(d.id_of(0), d.id_of(1)), (d.id_of(2), d.id_of(0)), (99, 0)]
    probe_cols = [
        np.array([p[0] for p in probes], dtype=np.int64),
        np.array([p[1] for p in probes], dtype=np.int64),
    ]
    probe_idx, row_pos = store.probe((0, 1), probe_cols)
    got = [(int(p), int(r)) for p, r in zip(probe_idx, row_pos)]
    expected = []
    for pi, (va, vb) in enumerate(probes):
        for ri, row in enumerate(rel.rows):
            if d.get_id(row[0]) == va and d.get_id(row[1]) == vb:
                expected.append((pi, ri))
    assert got == expected  # probe-major, original row order within a key


@numpy_only
def test_group_survives_appends_via_suffix_probe():
    np = columnar._np
    rel = Relation(["a"], rows=[(i % 4,) for i in range(16)])
    d = ValueDictionary()
    store = _stored(rel, d)
    gi = store.group((0,))
    assert gi is not None and gi.built_n == 16
    rel.insert((2,))
    rel.insert((9,))  # a brand-new value, id beyond the build-side base
    store = rel.column_store()
    assert store.group((0,)) is gi  # still the prefix index, not a rebuild
    probe = [np.array([d.id_of(2), d.id_of(9)], dtype=np.int64)]
    probe_idx, row_pos = store.probe((0,), probe)
    got = [(int(p), int(r)) for p, r in zip(probe_idx, row_pos)]
    expected = [(0, i) for i, row in enumerate(rel.rows) if row[0] == 2]
    expected += [(1, i) for i, row in enumerate(rel.rows) if row[0] == 9]
    assert sorted(got) == sorted(expected)
    assert got == sorted(got, key=lambda pr: (pr[0], pr[1]))


@numpy_only
def test_group_rebuilds_once_suffix_outgrows_prefix():
    rel = Relation(["a"], rows=[(i,) for i in range(8)])
    store = _stored(rel)
    gi = store.group((0,))
    assert gi.built_n == 8
    rel.insert_many([(i,) for i in range(200)])  # way past the 64-row floor
    store = rel.column_store()
    rebuilt = store.group((0,))
    assert rebuilt is not gi and rebuilt.built_n == 208


@numpy_only
def test_group_overflow_reports_unavailable():
    np = columnar._np
    rel = Relation(["a", "b"], rows=[(1, 2)])
    store = _stored(rel)
    huge = int(columnar._PACK_LIMIT)
    cols = [
        np.array([huge - 1], dtype=np.int64),
        np.array([huge - 1], dtype=np.int64),
    ]
    assert columnar._build_group(cols) is None


# --------------------------------------------------------------------------- #
# operator fast paths against the row path
# --------------------------------------------------------------------------- #
def _operator_relation() -> Relation:
    return Relation(
        ["a", "b"], rows=[(i % 5, f"v{i % 3}") for i in range(30)]
    )


def test_semijoin_in_columnar_matches_row_path():
    plain = _operator_relation()
    stored = _operator_relation()
    stored.enable_columnar(ValueDictionary())
    values = {1, 4, "unseen"}
    extra = ((1, frozenset({"v0", "v2"})),)
    assert (
        semijoin_in(stored, 0, values, extra=extra).rows
        == semijoin_in(plain, 0, values, extra=extra).rows
    )


def test_semijoin_in_unhashable_value_falls_back():
    stored = _operator_relation()
    stored.enable_columnar(ValueDictionary())
    out = semijoin_in(stored, 0, [1, [2]])  # unhashable member: row path
    assert out.rows == [row for row in stored.rows if row[0] == 1]


def test_column_value_set_columnar_matches_row_path():
    plain = _operator_relation()
    stored = _operator_relation()
    stored.enable_columnar(ValueDictionary())
    assert column_value_set(stored, 1) == column_value_set(plain, 1)
    assert column_value_set(stored, 1, ((0, 2),)) == column_value_set(
        plain, 1, ((0, 2),)
    )
    assert column_value_set(stored, 1, ((0, "nowhere"),)) == frozenset()


# --------------------------------------------------------------------------- #
# the vectorized plan executor
# --------------------------------------------------------------------------- #
def _plan_env(columnar_on: bool) -> IndexedDatabase:
    env = IndexedDatabase(indexing="eager", columnar=columnar_on)
    r = Relation(["a", "b"], rows=[(i % 4, i % 6) for i in range(24)])
    s = Relation(["b", "c"], rows=[(i % 6, f"c{i % 5}") for i in range(18)])
    t = Relation(["c", "k"], rows=[(f"c{i % 5}", "k") for i in range(10)])
    env.bind("R", r, indexed=True)
    env.bind("S", s, indexed=True)
    env.bind("T", t, indexed=True)
    return env


def _plan_query(distinct: bool) -> ConjunctiveQuery:
    cq = ConjunctiveQuery(
        head_name="out",
        head_schema=["a", "c"],
        head_terms=[Var("a"), Var("c")],
        distinct=distinct,
    )
    cq.add_atom("R", [Var("a"), Var("b")])
    cq.add_atom("S", [Var("b"), Var("c")])
    cq.add_atom("T", [Var("c"), Const("k")])
    return cq


@pytest.mark.parametrize("distinct", (False, True))
def test_plan_execute_columnar_equals_row_path(distinct):
    cq = _plan_query(distinct)
    row_env = _plan_env(False)
    col_env = _plan_env(True)
    expected = compile_plan(cq, row_env).execute(row_env)
    actual = compile_plan(cq, col_env).execute(col_env)
    assert actual == expected  # multiset equality
    assert actual.rows == expected.rows  # and identical row order


def test_plan_execute_columnar_unseen_constant_is_empty():
    col_env = _plan_env(True)
    cq = ConjunctiveQuery(
        head_name="out", head_schema=["a"], head_terms=[Var("a")]
    )
    cq.add_atom("R", [Var("a"), Const("never-inserted")])
    assert compile_plan(cq, col_env).execute(col_env).rows == []


# --------------------------------------------------------------------------- #
# DeltaContext id-space memoization
# --------------------------------------------------------------------------- #
def test_delta_context_separates_id_and_value_domains():
    rel = Relation(["a"], rows=[("x",), ("y",)])
    d = ValueDictionary()
    rel.enable_columnar(d)
    ctx = DeltaContext()
    values = ctx.column_values(rel, 0)
    ids = ctx.column_values(rel, 0, dictionary=d)
    assert values == frozenset({"x", "y"})
    assert ids == frozenset({d.get_id("x"), d.get_id("y")})
    # Memoized under distinct keys: asking again returns the same objects.
    assert ctx.column_values(rel, 0) is values
    assert ctx.column_values(rel, 0, dictionary=d) is ids


def test_delta_context_reduce_attaches_derived_store():
    rel = Relation(["a", "b"], rows=[(i % 4, i) for i in range(20)])
    d = ValueDictionary()
    rel.enable_columnar(d)
    assert rel.column_store() is not None
    ctx = DeltaContext()
    dom = frozenset({d.id_of(1), d.id_of(3)})
    out = ctx.reduce("rel", rel, (), ((0, dom),), dictionary=d)
    assert out.rows == [row for row in rel.rows if row[0] in (1, 3)]
    assert out.column_store() is not None  # derived sidecar, no re-interning
    # Equal constraints are shared (memoized by domain identity).
    again = ctx.reduce("rel", rel, (), ((0, dom),), dictionary=d)
    assert again is out


# --------------------------------------------------------------------------- #
# knob threading
# --------------------------------------------------------------------------- #
def test_config_columnar_knob_and_ablation():
    assert RuntimeConfig().columnar is True
    assert RuntimeConfig(columnar=False).columnar is False
    assert RuntimeConfig.ablation().columnar is False
    with pytest.raises(ValueError):
        RuntimeConfig(columnar="yes")


def test_processor_and_engine_thread_the_knob(monkeypatch):
    # Config-carried knobs have no explicitness bit, so REPRO_COLUMNAR=0
    # (tested separately) would downgrade them; pin the env here.
    monkeypatch.delenv("REPRO_COLUMNAR", raising=False)
    from repro.templates.registry import TemplateRegistry

    proc = MMQJPJoinProcessor(TemplateRegistry(), config=RuntimeConfig(columnar=True))
    assert proc.columnar is True and proc.env.columnar is True
    proc_off = MMQJPJoinProcessor(TemplateRegistry(), config=RuntimeConfig(columnar=False))
    assert proc_off.columnar is False and proc_off.env.columnar is False
    seq = SequentialJoinProcessor(config=RuntimeConfig(columnar=False))
    assert seq.columnar is False
    engine = make_engine(config=RuntimeConfig(columnar=True))
    assert engine.columnar is True
    engine.close()


def test_repro_columnar_env_downgrades_default_only(monkeypatch):
    from repro.templates.registry import TemplateRegistry

    monkeypatch.setenv("REPRO_COLUMNAR", "0")
    defaulted = MMQJPJoinProcessor(TemplateRegistry())
    assert defaulted.columnar is False  # default resolution downgraded
    assert SequentialJoinProcessor(config=RuntimeConfig()).columnar is False
    monkeypatch.setenv("REPRO_COLUMNAR", "1")  # only "0" downgrades; nothing upgrades
    off = MMQJPJoinProcessor(TemplateRegistry(), config=RuntimeConfig(columnar=False))
    assert off.columnar is False
    monkeypatch.delenv("REPRO_COLUMNAR")
    assert MMQJPJoinProcessor(TemplateRegistry()).columnar is True


# --------------------------------------------------------------------------- #
# end-to-end equivalence
# --------------------------------------------------------------------------- #
def _broker_match_keys(config: RuntimeConfig) -> tuple[set, int]:
    broker = open_broker(config)
    try:
        for qid, text in (("Q1", PAPER_Q1), ("Q2", PAPER_Q2), ("Q3", PAPER_Q3)):
            broker.subscribe(
                text, subscription_id=qid, window_symbols=PAPER_WINDOWS
            )
        keys = set()
        documents = [
            make_book_announcement("d1", 1.0),
            make_blog_article("d2", 2.0),
            make_book_announcement("d3", 3.0),
            make_blog_article("d4", 4.0, author="Someone Else", title="Other"),
        ]
        for delivery in broker.publish_many(documents):
            if delivery.match is not None:
                keys.add(delivery.match.key())
        return keys, len(keys)
    finally:
        broker.close()


@pytest.mark.parametrize("engine", ("mmqjp", "sequential"))
def test_broker_matches_identical_columnar_on_off(engine):
    on, n_on = _broker_match_keys(
        RuntimeConfig(engine=engine, columnar=True, construct_outputs=False)
    )
    off, n_off = _broker_match_keys(
        RuntimeConfig(engine=engine, columnar=False, construct_outputs=False)
    )
    assert on == off and n_on > 0
