"""Stage 2 join processors.

:class:`MMQJPJoinProcessor` implements the paper's Massively Multi-Query
Join Processing: one conjunctive query per *query template* evaluates all
member queries at once (Algorithm 1), optionally over the materialized views
of Section 5 (Algorithm 4).  :class:`SequentialJoinProcessor` is the paper's
baseline: the FOLLOWED BY / JOIN operator of every query is evaluated
separately, one query at a time.

Both processors consume the same inputs — the join state (previous
documents) and the current document's witness relations — and produce the
same :class:`~repro.core.results.Match` records, which is what the
equivalence tests in ``tests/`` check.

Three :class:`~repro.config.RuntimeConfig` knobs keep the per-document hot
path proportional to the *relevant* work (all default on; off reproduces the
previous behavior for ablation):

* ``plan_cache`` — conjunctive queries are evaluated through compiled,
  cached plans (:mod:`repro.relational.plan`) instead of being re-planned
  on every call;
* ``prune_dispatch`` — templates (MMQJP) / queries (Sequential) whose
  right-hand-side variables the current document did not bind are skipped
  outright via an inverted index (:mod:`repro.core.relevance`);
* ``delta_join`` — each conjunctive query is evaluated *outward from the
  delta*: a semi-join reduction pass restricts every state relation to the
  rows reachable from the current document's witnesses before the main
  join runs (:class:`~repro.relational.conjunctive.DeltaProgram`), with
  one :class:`~repro.relational.conjunctive.DeltaContext` per document so
  reductions are shared across templates.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro.config import RuntimeConfig, config_or_default
from repro.core.costs import CostBreakdown
from repro.core.materialize import (
    MaterializedViews,
    ViewCache,
    compute_materialized_views,
    maintain_view_cache,
)
from repro.core.relevance import RelevanceIndex
from repro.core.results import Match
from repro.core.state import JoinState
from repro.core.witnesses import WitnessRelations
from repro.relational.conjunctive import (
    ConjunctiveQuery,
    DeltaContext,
    evaluate_conjunctive,
)
from repro.relational.database import IndexedDatabase
from repro.relational.plan import PlanCache
from repro.relational.relation import Relation
from repro.relational.terms import Const, Var
from repro.templates.join_graph import JoinGraph, Side
from repro.templates.minor import ReducedJoinGraph, reduce_join_graph
from repro.templates.registry import TemplateRegistry
from repro.xscl.ast import JoinOperator, XsclQuery


def window_satisfied(operator: JoinOperator, delta: float, window: float) -> bool:
    """Algorithm 3's temporal check for one candidate match.

    ``delta`` is ``rhs_timestamp - lhs_timestamp`` (the current document is
    always the right-hand/following event).
    """
    if operator is JoinOperator.FOLLOWED_BY:
        return 0 < delta <= window
    return 0 <= delta <= window


def _resolve_state(state: Optional[JoinState], indexing: str) -> JoinState:
    """A processor's join state: ``state``, or a fresh one in ``indexing`` mode.

    A given state's indexing mode must agree with the config's.
    """
    if state is None:
        return JoinState(indexing=indexing)
    if indexing != state.indexing:
        raise ValueError(
            f"indexing={indexing!r} conflicts with the given state's "
            f"indexing={state.indexing!r}"
        )
    return state


def _columnar_enabled(config: RuntimeConfig) -> bool:
    """``config.columnar``, downgraded to off by ``REPRO_COLUMNAR=0``.

    The environment variable is the CI replay hook (mirroring
    ``REPRO_EXECUTOR``): it runs existing suites on the row path without
    touching call sites.
    """
    return config.columnar and os.environ.get("REPRO_COLUMNAR") != "0"


def _empty_delta_stats() -> dict[str, int]:
    """Zeroed per-processor counters of the delta-reduction pass."""
    return {
        "documents": 0,
        "reductions_computed": 0,
        "reductions_reused": 0,
        "rows_scanned": 0,
        "rows_kept": 0,
    }


class _DeltaBatchMixin:
    """Shared delta-context plumbing and batch hooks of both processors.

    Expects the concrete processor to initialize ``delta_join`` (bool),
    ``delta_stats`` (via :func:`_empty_delta_stats`) and ``_in_batch``.
    ``begin_batch``/``end_batch`` bracket one engine-level document batch —
    no query can register or retract between a batch's documents, which is
    what lets subclasses hoist per-document fixed costs into
    :meth:`begin_batch`.
    """

    def begin_batch(self) -> None:
        """Enter batch mode (paired with :meth:`end_batch`)."""
        self._in_batch = True

    def end_batch(self) -> None:
        """Leave batch mode."""
        self._in_batch = False

    def _delta_context(self) -> Optional[DeltaContext]:
        """A fresh per-document delta context (``None`` when delta is off)."""
        if not self.delta_join:
            return None
        self.delta_stats["documents"] += 1
        return DeltaContext()

    def _fold_delta_stats(self, delta: Optional[DeltaContext]) -> None:
        if delta is None:
            return
        stats = self.delta_stats
        for key, value in delta.stats().items():
            stats[key] += value


def _build_state_env(state: JoinState, columnar: bool = False) -> IndexedDatabase:
    """The shared evaluation environment over a join state.

    The state relations are bound as *indexed* — their join keys resolve
    against live, incrementally maintained hash indexes (unless the state's
    indexing mode is ``"off"``).  The per-document witness and view
    relations are rebound ephemerally each document.  With ``columnar`` the
    environment owns a shared value dictionary and every bound relation
    carries a lazily synced columnar sidecar.
    """
    env = IndexedDatabase(indexing=state.indexing, columnar=columnar)
    for name, relation in state.relations().items():
        env.bind(name, relation, indexed=True)
    return env


class MMQJPJoinProcessor(_DeltaBatchMixin):
    """Template-based multi-query join processing (Algorithms 1, 2 and 4).

    Parameters
    ----------
    registry / state / use_view_materialization / view_cache:
        The template registry, the join state (built fresh in
        ``config.indexing`` mode when ``None``; a given state's indexing
        mode must agree with the config's), whether to evaluate over the
        Section 5 materialized views, and their optional ``RL``-slice cache.
    config:
        Every knob (``None`` means ``RuntimeConfig()``):

        * ``plan_cache`` — evaluate the per-template conjunctive queries
          through compiled plans (:class:`~repro.relational.plan.PlanCache`):
          the join order and all per-atom metadata are computed once per
          template and reused until the state statistics drift; off falls
          back to the plan-per-call evaluator.
        * ``prune_dispatch`` — skip every template none of whose member
          queries has all its right-hand-side variables bound by the
          current document; off visits every template.
        * ``delta_join`` — evaluate each template's conjunctive query
          outward from the current document's witness delta: the state
          relations are semi-join-reduced to the delta-connected rows
          before the main join (one
          :class:`~repro.relational.conjunctive.DeltaContext` per document,
          shared across templates); off probes the full state.
        * ``columnar`` — evaluate over interned-id column vectors: the
          evaluation environment owns a shared value dictionary, every
          bound relation carries a columnar sidecar, and the compiled-plan
          executor and delta-reduction passes run batch kernels over packed
          id vectors; off (or ``REPRO_COLUMNAR=0``) keeps the pure row
          path.  Match sets are identical either way.
    """

    def __init__(
        self,
        registry: TemplateRegistry,
        state: Optional[JoinState] = None,
        use_view_materialization: Optional[bool] = None,
        view_cache: Optional[ViewCache] = None,
        config: Optional[RuntimeConfig] = None,
    ):
        config = config_or_default(config, "MMQJPJoinProcessor")
        self.registry = registry
        self.state = _resolve_state(state, config.indexing)
        self.use_view_materialization = bool(use_view_materialization)
        self.view_cache = view_cache
        self.costs = CostBreakdown()
        self.columnar = _columnar_enabled(config)
        self.env = _build_state_env(self.state, columnar=self.columnar)
        self._last_views: Optional[MaterializedViews] = None
        self.plan_cache: Optional[PlanCache] = PlanCache() if config.plan_cache else None
        self.relevance: Optional[RelevanceIndex] = (
            RelevanceIndex() if config.prune_dispatch else None
        )
        self._relevance_seq = -1
        self.templates_skipped = 0
        self._match_positions: dict[int, tuple] = {}
        self.delta_join = config.delta_join
        self.delta_stats = _empty_delta_stats()
        self._in_batch = False
        self.match_filter: Optional[Callable[[str], bool]] = None

    @property
    def indexing(self) -> str:
        """The indexing mode of the join state / evaluation environment."""
        return self.state.indexing

    def set_match_filter(self, match_filter: Optional[Callable[[str], bool]]) -> None:
        """Suppress match construction for query ids the filter rejects.

        The filter receives a query id and returns whether its matches are
        worth materializing (e.g. the broker's "subscription exists and is
        active" check).  Rejected rows skip Algorithm 3 entirely — no
        :class:`~repro.core.results.Match` object is ever built — so they
        also never appear in ``num_matches`` statistics.  ``None`` restores
        the build-everything behavior.
        """
        self.match_filter = match_filter

    # ------------------------------------------------------------------ #
    # relevance dispatch
    # ------------------------------------------------------------------ #
    def _sync_relevance(self) -> None:
        """Index queries registered since the last document (incremental).

        Synced by the registry's stable ``seq`` stamps, so retracting a
        query never shifts the position this cursor remembers; a query
        cancelled before it was ever synced simply no longer appears in
        :meth:`~repro.templates.registry.TemplateRegistry.records_since`.
        """
        for record in self.registry.records_since(self._relevance_seq):
            template = record.template
            sides = template.node_sides
            assignment = record.assignment.assignment
            self.relevance.add(
                template.template_id,
                (
                    assignment[meta]
                    for meta in template.meta_order
                    if sides[meta] is Side.RIGHT
                ),
                member=record.qid,
            )
            self._relevance_seq = record.seq

    def _relevant_templates(self, witnesses: WitnessRelations) -> Optional[set]:
        """Template ids worth dispatching, or ``None`` when pruning is off."""
        if self.relevance is None:
            return None
        if not self._in_batch:
            # Inside a batch the sync is hoisted to begin_batch(): no
            # registration can happen between the batch's documents.
            self._sync_relevance()
        return self.relevance.relevant(witnesses.bound_variables())

    # ------------------------------------------------------------------ #
    # batched ingestion
    # ------------------------------------------------------------------ #
    def begin_batch(self) -> None:
        """Hoist per-document fixed costs out of a batch's document loop.

        Between the documents of one batch no query can register or
        retract, so the relevance-index sync runs once here instead of once
        per document.
        """
        if self.relevance is not None:
            self._sync_relevance()
        super().begin_batch()

    # ------------------------------------------------------------------ #
    # Algorithm 1 / Algorithm 4
    # ------------------------------------------------------------------ #
    def process(self, witnesses: WitnessRelations) -> list[Match]:
        """Evaluate all registered queries against the current document's witnesses."""
        env = self.env
        env.bind_all(witnesses.relations())
        relevant = self._relevant_templates(witnesses)
        delta = self._delta_context()

        if self.use_view_materialization and (
            relevant is None or relevant or self.view_cache is not None
        ):
            # With a view cache the views must be computed even when no
            # template is relevant: Algorithm 5 folds the current document's
            # RR slices into cached RL slices, and skipping that would leave
            # the cache missing this document's rows for future lookups.
            views = compute_materialized_views(
                self.state, witnesses, view_cache=self.view_cache, costs=self.costs
            )
            self._last_views = views
            env.bind_all(views.relations())

        matches: list[Match] = []
        seen: set[tuple] = set()
        for template in self.registry.templates:
            if relevant is not None and template.template_id not in relevant:
                self.templates_skipped += 1
                continue
            rt = self.registry.rt_relation(template)
            if not rt.rows:
                continue
            env.bind(template.rt_relation_name(), rt, indexed=True)
            cq = self.registry.cqt(template, materialized=self.use_view_materialization)
            with self.costs.measure("conjunctive_query"):
                if self.plan_cache is not None:
                    rout = self.plan_cache.evaluate(cq, env, delta=delta)
                else:
                    rout = evaluate_conjunctive(cq, env, delta=delta)
            if not rout.rows:
                continue
            with self.costs.measure("window_check"):
                positions = self._positions_of(template, rout)
                match_filter = self.match_filter
                qid_pos = positions[0]
                for row in rout.rows:
                    if match_filter is not None and not match_filter(row[qid_pos]):
                        continue  # undeliverable: never build the Match
                    match = self._row_to_match(template, positions, row, witnesses)
                    if match is not None and match.key() not in seen:
                        seen.add(match.key())
                        matches.append(match)
        self._fold_delta_stats(delta)
        return matches

    def _positions_of(self, template, rout: Relation) -> tuple:
        """Column positions of the RoutT schema, computed once per template.

        The head schema of a template's conjunctive query is fixed, so the
        per-row attribute lookups of Algorithm 3 reduce to tuple indexing.
        """
        positions = self._match_positions.get(template.template_id)
        if positions is None:
            index_of = rout.schema.index_of
            positions = (
                index_of("qid"),
                index_of("docid1"),
                index_of("wl"),
                tuple(
                    (meta, index_of(f"node_{meta}")) for meta in template.meta_order
                ),
            )
            self._match_positions[template.template_id] = positions
        return positions

    def _row_to_match(
        self, template, positions: tuple, row: tuple, witnesses: WitnessRelations
    ) -> Optional[Match]:
        """Algorithm 3: window check plus conversion of a RoutT row to a Match."""
        qid_pos, docid_pos, wl_pos, node_positions = positions
        qid = row[qid_pos]
        lhs_docid = row[docid_pos]
        window = row[wl_pos]
        record = self.registry.query(qid)
        lhs_ts = self.state.timestamp_of(lhs_docid)
        delta = witnesses.timestamp - lhs_ts
        if not window_satisfied(record.query.join.operator, delta, window):
            return None

        lhs_bindings: dict[str, int] = {}
        rhs_bindings: dict[str, int] = {}
        node_sides = template.node_sides
        assignment = record.assignment.assignment
        for meta, node_pos in node_positions:
            node = row[node_pos]
            variable = assignment[meta]
            if node_sides[meta] is Side.LEFT:
                lhs_bindings[variable] = node
            else:
                rhs_bindings[variable] = node
        return Match(
            qid=qid,
            lhs_docid=lhs_docid,
            rhs_docid=witnesses.docid,
            lhs_timestamp=lhs_ts,
            rhs_timestamp=witnesses.timestamp,
            lhs_bindings=lhs_bindings,
            rhs_bindings=rhs_bindings,
            window=window,
        )

    # ------------------------------------------------------------------ #
    # retraction
    # ------------------------------------------------------------------ #
    def remove_query(self, qid: str) -> None:
        """Retract one registered query (engine-level ``deregister_query`` path).

        Removes the query's ``RT`` tuple and relevance posting; when its
        template is left with no member queries the template's compiled
        plans and cached match positions are dropped too (the template
        entry itself is retired in place and revived on re-registration).
        """
        record = self.registry.query(qid)
        template = record.template
        self.registry.remove_query(qid)
        if self.relevance is not None:
            self.relevance.remove(qid)
        if not self.registry.has_queries(template):
            self._match_positions.pop(template.template_id, None)
            if self.plan_cache is not None:
                self.plan_cache.invalidate(self.registry.cqt(template))
                self.plan_cache.invalidate(
                    self.registry.cqt(template, materialized=True)
                )

    def drop_variables(self, variables: set[str]) -> int:
        """Reclaim join-state rows of variables no longer used by any query.

        The view cache (if any) is cleared outright: its ``RL`` slices are
        value-keyed aggregations over the state rows being dropped, and a
        stale slice would resurrect retracted rows on a future cache hit.
        """
        removed = self.state.drop_variables(variables)
        if self.view_cache is not None:
            self.view_cache.clear()
        return removed

    def clear_state(self) -> None:
        """Drop all join state and cached views (last query deregistered)."""
        self.state.clear()
        if self.view_cache is not None:
            self.view_cache.clear()
        self._last_views = None

    # ------------------------------------------------------------------ #
    # Algorithm 2 / Algorithm 5
    # ------------------------------------------------------------------ #
    def maintain_state(self, witnesses: WitnessRelations) -> None:
        """Fold the current document into the join state (and the view cache)."""
        with self.costs.measure("state_maintenance"):
            self.state.merge(witnesses)
            if self.view_cache is not None and self._last_views is not None:
                maintain_view_cache(self.view_cache, self._last_views, witnesses.docid)
            self._last_views = None

    def prune_state(self, min_timestamp: float) -> int:
        """Drop state older than ``min_timestamp`` (documents and cached slices)."""
        stale = self.state.stale_docids(min_timestamp)
        if not stale:
            return 0
        removed = self.state.drop_documents(stale)
        if self.view_cache is not None:
            self.view_cache.remove_documents(stale)
        return removed


# --------------------------------------------------------------------------- #
# the Sequential baseline
# --------------------------------------------------------------------------- #
def build_per_query_cq(qid: str, query: XsclQuery, reduced: ReducedJoinGraph) -> ConjunctiveQuery:
    """Build the stand-alone conjunctive query used by the Sequential baseline.

    The query has the same shape as a template's ``CQT`` but all variable
    names are constants and there is no ``RT`` relation — it evaluates
    exactly one XSCL query.
    """
    def node_var(key) -> Var:
        return Var(f"n_{key[0].value}_{key[1]}")

    side_nodes = sorted(reduced.nodes, key=lambda k: (k[0].value, k[1]))
    head_schema = ["qid", "docid1"] + [f"node_{k[0].value}_{k[1]}" for k in side_nodes] + ["wl"]
    head_terms = [Const(qid), Var("docid")] + [node_var(k) for k in side_nodes] + [
        Const(query.join.window)
    ]
    cq = ConjunctiveQuery(
        head_name=f"Rout_query_{qid}",
        head_schema=head_schema,
        head_terms=head_terms,
    )

    for i, (left_key, right_key) in enumerate(reduced.value_edges):
        s = Var(f"s_{i}")
        cq.add_atom("Rdoc", [Var("docid"), node_var(left_key), s])
        cq.add_atom("RdocW", [node_var(right_key), s])

    for parent, child in reduced.structural_edges:
        if parent[0] is Side.LEFT:
            cq.add_atom(
                "Rbin",
                [Var("docid"), Const(parent[1]), Const(child[1]), node_var(parent), node_var(child)],
            )
        else:
            cq.add_atom(
                "RbinW", [Const(parent[1]), Const(child[1]), node_var(parent), node_var(child)]
            )

    for key in reduced.isolated_nodes():
        if key[0] is Side.LEFT:
            cq.add_atom("Rvar", [Var("docid"), Const(key[1]), node_var(key)])
        else:
            cq.add_atom("RvarW", [Const(key[1]), node_var(key)])
    return cq


class SequentialJoinProcessor(_DeltaBatchMixin):
    """The paper's baseline: evaluate every query's join operator separately.

    ``state`` and ``config`` are as for :class:`MMQJPJoinProcessor`, whose
    knobs ``plan_cache``, ``prune_dispatch``, ``delta_join`` and
    ``columnar`` apply here at per-query granularity: each query's
    conjunctive query is compiled once, queries whose RHS variables the
    current document did not bind are skipped entirely, and the per-query
    joins run over delta-reduced state relations (shared across the
    document's queries through one
    :class:`~repro.relational.conjunctive.DeltaContext`).
    """

    def __init__(
        self,
        state: Optional[JoinState] = None,
        config: Optional[RuntimeConfig] = None,
    ):
        config = config_or_default(config, "SequentialJoinProcessor")
        self.state = _resolve_state(state, config.indexing)
        self.costs = CostBreakdown()
        self.columnar = _columnar_enabled(config)
        self.env = _build_state_env(self.state, columnar=self.columnar)
        self._queries: dict[str, tuple[XsclQuery, ReducedJoinGraph, ConjunctiveQuery]] = {}
        self.plan_cache: Optional[PlanCache] = PlanCache() if config.plan_cache else None
        self.relevance: Optional[RelevanceIndex] = (
            RelevanceIndex() if config.prune_dispatch else None
        )
        self.queries_skipped = 0
        self._match_positions: dict[str, tuple] = {}
        self.delta_join = config.delta_join
        self.delta_stats = _empty_delta_stats()
        self._in_batch = False
        self.match_filter: Optional[Callable[[str], bool]] = None

    @property
    def indexing(self) -> str:
        """The indexing mode of the join state / evaluation environment."""
        return self.state.indexing

    def set_match_filter(self, match_filter: Optional[Callable[[str], bool]]) -> None:
        """Suppress match construction for query ids the filter rejects.

        Same contract as
        :meth:`MMQJPJoinProcessor.set_match_filter`: rejected query ids
        skip Algorithm 3 entirely, so no Match object is built for them.
        """
        self.match_filter = match_filter

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def add_query(self, qid: str, query: XsclQuery) -> None:
        """Register one (canonicalized) join query."""
        if qid in self._queries:
            raise ValueError(f"query id {qid!r} is already registered")
        reduced = reduce_join_graph(JoinGraph.from_query(query))
        cq = build_per_query_cq(qid, query, reduced)
        self._queries[qid] = (query, reduced, cq)
        if self.relevance is not None:
            self.relevance.add(
                qid,
                (key[1] for key in reduced.nodes if key[0] is Side.RIGHT),
                member=qid,
            )

    def remove_query(self, qid: str) -> None:
        """Retract one registered query, dropping its plan and postings."""
        try:
            _query, _reduced, cq = self._queries.pop(qid)
        except KeyError:
            raise KeyError(f"query id {qid!r} is not registered") from None
        if self.relevance is not None:
            self.relevance.remove(qid)
        if self.plan_cache is not None:
            self.plan_cache.invalidate(cq)
        self._match_positions.pop(qid, None)

    def drop_variables(self, variables: set[str]) -> int:
        """Reclaim join-state rows of variables no longer used by any query."""
        return self.state.drop_variables(variables)

    def clear_state(self) -> None:
        """Drop all join state (last query deregistered)."""
        self.state.clear()

    @property
    def num_queries(self) -> int:
        """Number of registered queries."""
        return len(self._queries)

    def query_ids(self) -> list[str]:
        """The registered query ids, in registration order."""
        return list(self._queries)

    def reduced_graph(self, qid: str) -> ReducedJoinGraph:
        """The reduced join graph of a registered query.

        Public accessor for the engine layer (which registers the graph's
        variables and edges with the Stage 1 evaluator).
        """
        return self._queries[qid][1]

    # ------------------------------------------------------------------ #
    # per-document evaluation (one query at a time)
    # ------------------------------------------------------------------ #
    def process(self, witnesses: WitnessRelations) -> list[Match]:
        """Evaluate each registered query separately against the current witnesses."""
        env = self.env
        env.bind_all(witnesses.relations())
        relevant: Optional[set] = None
        if self.relevance is not None:
            relevant = self.relevance.relevant(witnesses.bound_variables())
        delta = self._delta_context()

        matches: list[Match] = []
        seen: set[tuple] = set()
        for qid, (query, reduced, cq) in self._queries.items():
            if relevant is not None and qid not in relevant:
                self.queries_skipped += 1
                continue
            with self.costs.measure("conjunctive_query"):
                if self.plan_cache is not None:
                    rout = self.plan_cache.evaluate(cq, env, delta=delta)
                else:
                    rout = evaluate_conjunctive(cq, env, delta=delta)
            if not rout.rows:
                continue
            if self.match_filter is not None and not self.match_filter(qid):
                continue  # undeliverable query: never build its Matches
            with self.costs.measure("window_check"):
                positions = self._positions_of(qid, reduced, rout)
                for row in rout.rows:
                    match = self._row_to_match(qid, query, positions, row, witnesses)
                    if match is not None and match.key() not in seen:
                        seen.add(match.key())
                        matches.append(match)
        self._fold_delta_stats(delta)
        return matches

    def _positions_of(self, qid: str, reduced: ReducedJoinGraph, rout: Relation) -> tuple:
        """Column positions of the per-query output schema, computed once per query."""
        positions = self._match_positions.get(qid)
        if positions is None:
            index_of = rout.schema.index_of
            positions = (
                index_of("docid1"),
                tuple(
                    (key, index_of(f"node_{key[0].value}_{key[1]}"))
                    for key in reduced.nodes
                ),
            )
            self._match_positions[qid] = positions
        return positions

    def _row_to_match(
        self,
        qid: str,
        query: XsclQuery,
        positions: tuple,
        row: tuple,
        witnesses: WitnessRelations,
    ) -> Optional[Match]:
        docid_pos, node_positions = positions
        lhs_docid = row[docid_pos]
        window = query.join.window
        lhs_ts = self.state.timestamp_of(lhs_docid)
        delta = witnesses.timestamp - lhs_ts
        if not window_satisfied(query.join.operator, delta, window):
            return None
        lhs_bindings: dict[str, int] = {}
        rhs_bindings: dict[str, int] = {}
        for key, node_pos in node_positions:
            node = row[node_pos]
            if key[0] is Side.LEFT:
                lhs_bindings[key[1]] = node
            else:
                rhs_bindings[key[1]] = node
        return Match(
            qid=qid,
            lhs_docid=lhs_docid,
            rhs_docid=witnesses.docid,
            lhs_timestamp=lhs_ts,
            rhs_timestamp=witnesses.timestamp,
            lhs_bindings=lhs_bindings,
            rhs_bindings=rhs_bindings,
            window=window,
        )

    # ------------------------------------------------------------------ #
    # state maintenance
    # ------------------------------------------------------------------ #
    def maintain_state(self, witnesses: WitnessRelations) -> None:
        """Fold the current document into the join state."""
        with self.costs.measure("state_maintenance"):
            self.state.merge(witnesses)

    def prune_state(self, min_timestamp: float) -> int:
        """Drop state older than ``min_timestamp``.

        Same entry point as the MMQJP processor's (the engines prune through
        it), built on the public :meth:`~repro.core.state.JoinState.stale_docids`
        accessor rather than reaching into the state relations.
        """
        return self.state.drop_documents(self.state.stale_docids(min_timestamp))
