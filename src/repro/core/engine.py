"""Two-stage query-processing engines over XML documents.

:class:`MMQJPEngine` wires together Stage 1 (the shared
:class:`~repro.xpath.evaluator.XPathEvaluator`) and Stage 2 (the
:class:`~repro.core.processor.MMQJPJoinProcessor`), maintains the join state
and (optionally) the original documents so that output XML documents can be
constructed.  :class:`SequentialEngine` offers the identical interface on
top of the one-query-at-a-time baseline, so the two can be compared — and
checked for result equivalence — on any workload.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from repro.config import (
    ENGINES,
    RuntimeConfig,
    config_or_default,
    metrics_enabled,
    resolve_ingest,
)
from repro.core.costs import CostBreakdown
from repro.core.materialize import ViewCache
from repro.metrics import MetricsRegistry
from repro.core.processor import MMQJPJoinProcessor, SequentialJoinProcessor
from repro.core.results import Match, build_output_document
from repro.core.witnesses import WitnessRelations
from repro.templates.registry import TemplateRegistry
from repro.xmlmodel.document import XmlDocument, _next_docid
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serialize import to_xml
from repro.xpath.evaluator import Stage1Registrations, XPathEvaluator
from repro.xscl.ast import INFINITE_WINDOW, JoinOperator, JoinSpec, ValueJoinPredicate, XsclQuery
from repro.xscl.normalize import VariableCatalog, canonicalize_query
from repro.xscl.parser import parse_query
from repro.templates.join_graph import Side

#: Suffix used internally for the mirrored registration of symmetric JOIN queries.
_SWAP_SUFFIX = "::swap"

# ENGINES is canonically defined in repro.config (imported above) and
# re-exported here for backward compatibility.


@dataclass
class EngineStats:
    """Summary statistics of an engine."""

    num_queries: int
    num_templates: Optional[int]
    num_documents_processed: int
    num_matches: int
    state_documents: int
    costs: dict[str, float] = field(default_factory=dict)


def merge_engine_stats(stats: Sequence[EngineStats], fanout: bool = True) -> EngineStats:
    """Merge per-engine statistics into one aggregate :class:`EngineStats`.

    Query and match counts are summed (shards own disjoint query sets), and
    the per-phase costs are accumulated.  With ``fanout=True`` (the sharded
    runtime's fan-out model, where every engine processes every document)
    ``num_documents_processed`` and ``state_documents`` take the maximum
    across engines instead of the sum, so they keep counting *documents*
    rather than (document, shard) pairs.
    """
    if not stats:
        return EngineStats(0, None, 0, 0, 0, {})
    doc_agg = max if fanout else sum
    templates = [s.num_templates for s in stats if s.num_templates is not None]
    costs: dict[str, float] = {}
    for s in stats:
        for phase, ms in s.costs.items():
            costs[phase] = round(costs.get(phase, 0.0) + ms, 3)
    return EngineStats(
        num_queries=sum(s.num_queries for s in stats),
        num_templates=sum(templates) if templates else None,
        num_documents_processed=doc_agg(s.num_documents_processed for s in stats),
        num_matches=sum(s.num_matches for s in stats),
        state_documents=doc_agg(s.state_documents for s in stats),
        costs=costs,
    )


class _BaseEngine:
    """Shared machinery of the MMQJP and Sequential engines."""

    def __init__(self, config: RuntimeConfig):
        self.config = config
        self.evaluator = XPathEvaluator()
        self.catalog = VariableCatalog()
        self.store_documents = config.resolve_store_documents()
        self.ingest = resolve_ingest(config)
        self.auto_timestamp = config.auto_timestamp
        self.auto_prune = config.auto_prune
        self.documents: dict[str, XmlDocument] = {}
        self._qid_counter = itertools.count(1)
        self._clock_value = 0
        # Optional durable state store (repro.storage); None — the default,
        # and always the case for storage="memory" — keeps the processing
        # path free of any storage cost.  Attached via attach_store().
        self.store = None
        self._catalog_watermark = 0
        self._registered: dict[str, XsclQuery] = {}
        self._root_vars: dict[str, tuple[Optional[str], Optional[str]]] = {}
        self._max_finite_window = 0.0
        self._has_infinite_window = False
        # Window refcounts backing the horizon: finite windows by value plus
        # an infinite-window count, so retraction adjusts the horizon in
        # O(1) (O(#distinct windows) when the largest loses its last user)
        # instead of rescanning every registered query.
        self._finite_window_counts: dict[float, int] = {}
        self._infinite_windows = 0
        # Stage 1 bookkeeping for retraction: per processor-registration key
        # (qid or its ::swap twin), the variables and edges it registered,
        # refcounted engine-wide.  Canonicalization shares variables across
        # equivalent queries, so a registration is only withdrawn from the
        # evaluator when its last user is gone.
        self._stage1 = Stage1Registrations()
        self.num_documents_processed = 0
        self.num_matches = 0
        # Observability (RuntimeConfig.metrics / REPRO_METRICS): engine-side
        # per-stage latency histograms.  None — the default — keeps the hot
        # path at a single attribute check per document.  The processor's
        # CostBreakdown mirrors its measured phases in (the subclasses
        # attach it once the processor exists).
        self.metrics = MetricsRegistry() if metrics_enabled(config) else None

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register_query(
        self,
        query: Union[str, XsclQuery],
        qid: Optional[str] = None,
        window_symbols: Optional[dict[str, float]] = None,
    ) -> str:
        """Register an XSCL query (text or AST) and return its query id."""
        if isinstance(query, str):
            query = parse_query(query, window_symbols=window_symbols)
        if not query.is_join_query:
            raise ValueError(
                "the join engines process inter-document (join) queries; "
                "use repro.pubsub.Broker for single-block filter subscriptions"
            )
        qid = qid if qid is not None else f"q{next(self._qid_counter)}"
        if qid in self._registered:
            raise ValueError(f"query id {qid!r} is already registered")

        canonical = canonicalize_query(query, self.catalog)
        self._registered[qid] = canonical
        self._root_vars[qid] = (
            canonical.left.root_variable,
            canonical.right.root_variable if canonical.right else None,
        )

        self._track_window(canonical.join.window)

        self._register_with_processor(qid, canonical)
        if canonical.join.operator is JoinOperator.JOIN:
            self._register_with_processor(qid + _SWAP_SUFFIX, _swap_query(canonical))
        if self.store is not None:
            self._persist_registration()
        return qid

    def register_queries(self, queries: Iterable[Union[str, XsclQuery]]) -> list[str]:
        """Register many queries; returns their query ids."""
        return [self.register_query(q) for q in queries]

    def _register_with_processor(self, qid: str, query: XsclQuery) -> None:
        raise NotImplementedError

    def _register_stage1(self, key: str, query: XsclQuery, reduced) -> None:
        """Register the reduced graph's variables and edges with the XPath Evaluator.

        ``key`` is the processor-registration key (the qid, or its
        ``::swap`` twin for symmetric JOINs); the variables and edges
        registered under it are recorded and reference-counted so
        :meth:`deregister_query` can withdraw exactly this registration.
        """
        patterns = {Side.LEFT: query.left.pattern, Side.RIGHT: query.right.pattern}
        variables: list[str] = []
        edges: list[tuple[str, str]] = []
        for side, var in reduced.nodes:
            pattern = patterns[side]
            self.evaluator.register_variable(var, pattern.stream, pattern.absolute_path_of(var))
            variables.append(var)
        for (p_side, p_var), (c_side, c_var) in reduced.structural_edges:
            pattern = patterns[p_side]
            self.evaluator.register_edge(
                p_var, c_var, pattern.relative_path_between(p_var, c_var)
            )
            edges.append((p_var, c_var))
        self._stage1.record(key, variables, edges)

    # ------------------------------------------------------------------ #
    # retraction
    # ------------------------------------------------------------------ #
    def deregister_query(self, qid: str) -> None:
        """Retract a registered query, reclaiming every trace of it.

        The inverse of :meth:`register_query`: the query (and its mirrored
        ``::swap`` registration, for symmetric JOINs) is removed from the
        processor — template ``RT`` tuple, relevance-index postings and
        compiled plans included — its Stage 1 variables and edges are
        withdrawn from the shared evaluator once their last user is gone,
        the window-pruning horizon is recomputed, and join-state rows that
        can no longer contribute to any match are dropped.  When the last
        query is deregistered the engine's state returns to baseline: no
        state rows, no stored documents.  Raises :class:`KeyError` for
        unknown query ids.
        """
        canonical = self._registered.get(qid)
        if canonical is None:
            raise KeyError(f"query id {qid!r} is not registered")
        del self._registered[qid]
        self._root_vars.pop(qid, None)

        keys = [qid]
        if canonical.join.operator is JoinOperator.JOIN:
            keys.append(qid + _SWAP_SUFFIX)
        dead_vars: set[str] = set()
        dead_edges: set[tuple[str, str]] = set()
        for key in keys:
            self._deregister_with_processor(key)
            key_vars, key_edges = self._stage1.withdraw(key)
            dead_vars |= key_vars
            dead_edges |= key_edges
        if dead_vars or dead_edges:
            self.evaluator.deregister(variables=dead_vars, edges=dead_edges)

        self._release_window(canonical.join.window)
        if not self._registered:
            self._processor().clear_state()
            self.documents.clear()
            if self.store is not None:
                self.store.clear_state()
        elif dead_vars:
            self._processor().drop_variables(dead_vars)
            if self.store is not None:
                self.store.delete_variables(dead_vars)
        if self.store is not None:
            self._persist_registration()

    def _deregister_with_processor(self, qid: str) -> None:
        raise NotImplementedError

    def _track_window(self, window: float) -> None:
        """Fold one registered query's window into the auto-prune horizon."""
        if window == INFINITE_WINDOW:
            self._infinite_windows += 1
            self._has_infinite_window = True
        else:
            self._finite_window_counts[window] = (
                self._finite_window_counts.get(window, 0) + 1
            )
            if window > self._max_finite_window:
                self._max_finite_window = window

    def _release_window(self, window: float) -> None:
        """Withdraw one query's window from the auto-prune horizon (O(1) amortized)."""
        if window == INFINITE_WINDOW:
            self._infinite_windows -= 1
            self._has_infinite_window = self._infinite_windows > 0
            return
        left = self._finite_window_counts[window] - 1
        if left:
            self._finite_window_counts[window] = left
        else:
            del self._finite_window_counts[window]
            if window == self._max_finite_window:
                self._max_finite_window = max(self._finite_window_counts, default=0.0)

    # ------------------------------------------------------------------ #
    # document processing
    # ------------------------------------------------------------------ #
    def _prepare_document(
        self,
        document: Union[str, XmlDocument],
        timestamp: Optional[float],
    ) -> XmlDocument:
        """Parse and stamp one incoming document (shared by both entry points)."""
        if isinstance(document, str):
            document = parse_document(document)
        if timestamp is not None:
            document.timestamp = float(timestamp)
        elif self.auto_timestamp and document.timestamp == 0.0:
            self._clock_value += 1
            document.timestamp = float(self._clock_value)
        return document

    def _process_prepared(self, document: XmlDocument) -> list[Match]:
        """Run both stages on an already-prepared document."""
        if self.store is not None:
            return self._process_prepared_durable(document)
        metrics = self.metrics
        if metrics is None:
            witnesses = self.evaluator.evaluate(document)
            relations = WitnessRelations.from_witnesses(witnesses)
        else:
            with metrics.timer("stage:stage1"):
                witnesses = self.evaluator.evaluate(document)
                relations = WitnessRelations.from_witnesses(witnesses)
        raw_matches = self._processor().process(relations)
        self._processor().maintain_state(relations)
        self._after_state_maintenance(document.timestamp)

        if self.store_documents:
            self.documents[document.docid] = document

        matches = self._normalize_matches(raw_matches)
        self.num_documents_processed += 1
        self.num_matches += len(matches)
        return matches

    def _process_prepared_durable(self, document: XmlDocument) -> list[Match]:
        """The storage-backed twin of :meth:`_process_prepared`.

        Identical processing, wrapped in one store *epoch* per document: the
        merged state partitions, any in-epoch pruning, the serialized source
        document and the engine counters all land in a single atomic commit,
        so a crash at any point leaves either the whole document or none of
        it.  On failure the epoch is aborted — the in-memory state may then
        be ahead of the store, which is exactly the situation recovery
        resolves by rebuilding from the store alone.
        """
        store = self.store
        metrics = self.metrics
        if metrics is None:
            witnesses = self.evaluator.evaluate(document)
            relations = WitnessRelations.from_witnesses(witnesses)
        else:
            with metrics.timer("stage:stage1"):
                witnesses = self.evaluator.evaluate(document)
                relations = WitnessRelations.from_witnesses(witnesses)
        raw_matches = self._processor().process(relations)
        docid = document.docid
        store.begin_epoch(docid)
        try:
            self._processor().maintain_state(relations)
            store.upsert_rows(
                "Rbin", docid, [(docid,) + row for row in relations.rbinw.rows]
            )
            store.upsert_rows(
                "Rdoc", docid, [(docid,) + row for row in relations.rdocw.rows]
            )
            store.upsert_rows(
                "Rvar", docid, [(docid,) + row for row in relations.rvarw.rows]
            )
            store.upsert_rows("RdocTS", docid, list(relations.rdoctsw.rows))
            self._after_state_maintenance(document.timestamp)
            if self.store_documents:
                self.documents[docid] = document
                store.put_document(
                    docid, document.timestamp, document.stream,
                    to_xml(document, pretty=False),
                )
            matches = self._normalize_matches(raw_matches)
            self.num_documents_processed += 1
            self.num_matches += len(matches)
            store.set_meta(
                "engine_counters",
                {
                    "documents": self.num_documents_processed,
                    "matches": self.num_matches,
                    "clock": self._clock_value,
                },
            )
            if metrics is None:
                store.commit_epoch()
            else:
                with metrics.timer("stage:storage_commit"):
                    store.commit_epoch()
        except BaseException:
            store.abort_epoch()
            raise
        return matches

    def _stream_eligible(self) -> bool:
        """Whether text input can skip tree construction entirely.

        The streaming path produces witnesses, never a node tree — it is
        only equivalent when nothing downstream needs the document object:
        no stored documents (output construction) and no durable store
        (which persists the serialized source inside the epoch).
        """
        return self.ingest == "stream" and self.store is None and not self.store_documents

    def _stamp_timestamp(self, timestamp: Optional[float]) -> float:
        """Timestamp for a freshly-parsed text document (no carried stamp)."""
        if timestamp is not None:
            return float(timestamp)
        if self.auto_timestamp:
            self._clock_value += 1
            return float(self._clock_value)
        return 0.0

    def _process_streamed(
        self, text: str, docid: str, timestamp: float, stream: str
    ) -> list[Match]:
        """Run both stages on raw text via the single-pass witness scan."""
        metrics = self.metrics
        if metrics is None:
            witnesses = self.evaluator.evaluate_text(text, docid, timestamp, stream)
            relations = WitnessRelations.from_witnesses(witnesses)
        else:
            with metrics.timer("stage:stage1"):
                witnesses = self.evaluator.evaluate_text(text, docid, timestamp, stream)
                relations = WitnessRelations.from_witnesses(witnesses)
        raw_matches = self._processor().process(relations)
        self._processor().maintain_state(relations)
        self._after_state_maintenance(timestamp)
        matches = self._normalize_matches(raw_matches)
        self.num_documents_processed += 1
        self.num_matches += len(matches)
        return matches

    def process_text(
        self,
        text: str,
        timestamp: Optional[float] = None,
        stream: str = "S",
    ) -> list[Match]:
        """Process one document given as raw XML text.

        With ``ingest="stream"`` (and no document state to keep — see
        :meth:`_stream_eligible`) Stage 1 witnesses are produced in a single
        pass over the text without building a node tree; otherwise this is
        exactly ``process_document(parse_document(text, stream=...))``.
        Matches are identical either way.
        """
        if not self._stream_eligible():
            document = parse_document(text, stream=stream)
            return self._process_prepared(self._prepare_document(document, timestamp))
        return self._process_streamed(
            text, _next_docid(), self._stamp_timestamp(timestamp), stream
        )

    def process_document(
        self,
        document: Union[str, XmlDocument],
        timestamp: Optional[float] = None,
    ) -> list[Match]:
        """Run both stages on one incoming document and return its matches."""
        return self._process_prepared(self._prepare_document(document, timestamp))

    def process_batch(
        self,
        documents: Iterable[Union[str, XmlDocument]],
        timestamp: Optional[float] = None,
    ) -> list[list[Match]]:
        """Process a batch of documents; one match list per document.

        The batched ingestion fast path: the whole batch is parsed, stamped
        and docid-interned up front, and the processor's per-batch hooks
        (:meth:`~repro.core.processor.MMQJPJoinProcessor.begin_batch`)
        hoist fixed per-document costs — e.g. the relevance-index sync,
        which cannot change between a batch's documents — out of the loop.
        Documents are still evaluated and folded into the join state in
        arrival order, so the matches are exactly those of a
        :meth:`process_document` loop.
        """
        streaming = self._stream_eligible()
        # Text entries on the streaming path stay unparsed until processing;
        # stamping docids and timestamps up front keeps assignment order (and
        # hence auto-timestamps) identical to the all-tree batch.
        prepared: list[Union[XmlDocument, tuple[str, str, float]]] = []
        for document in documents:
            if streaming and isinstance(document, str):
                prepared.append(
                    (document, sys.intern(_next_docid()), self._stamp_timestamp(timestamp))
                )
                continue
            document = self._prepare_document(document, timestamp)
            if isinstance(document.docid, str):
                # Docids recur in every witness row, state partition key
                # and match: interning once per batch makes the hot-path
                # hashing and equality checks pointer comparisons.
                document.docid = sys.intern(document.docid)
            prepared.append(document)
        if not prepared:
            return []
        processor = self._processor()
        processor.begin_batch()
        try:
            return [
                self._process_streamed(item[0], item[1], item[2], "S")
                if type(item) is tuple
                else self._process_prepared(item)
                for item in prepared
            ]
        finally:
            processor.end_batch()

    def process_stream(self, documents: Iterable[Union[str, XmlDocument]]) -> list[Match]:
        """Process a sequence of documents; returns all matches in arrival order.

        Documents are processed one at a time — a lazy/unbounded iterable is
        consumed incrementally, and documents before a failing one are fully
        folded into the join state.  Use :meth:`process_batch` for the
        batched fast path over an already-materialized batch.
        """
        out: list[Match] = []
        for document in documents:
            out.extend(self.process_document(document))
        return out

    def _processor(self):
        raise NotImplementedError

    def _after_state_maintenance(self, timestamp: float) -> None:
        """Window-based pruning of state (only when every window is finite)."""
        if not self.auto_prune:
            return
        if self._has_infinite_window or self._max_finite_window <= 0:
            return
        self.prune(timestamp - self._max_finite_window)

    def prune(self, min_timestamp: float) -> int:
        """Drop state (and stored documents) older than ``min_timestamp``.

        Called automatically after every document when ``auto_prune`` is on
        and all registered windows are finite; exposed publicly so brokers
        can prune on demand (e.g. with ``auto_prune=False``).  Returns the
        number of documents removed from the join state.
        """
        stale: set[str] = set()
        if self.store is not None:
            stale = self._processor().state.stale_docids(min_timestamp)
        removed = self._prune(min_timestamp)
        if removed and self.store_documents:
            alive = self._processor().state.document_ids()
            self.documents = {d: doc for d, doc in self.documents.items() if d in alive}
        if stale:
            # Inside a document epoch this joins the epoch's transaction,
            # keeping the merge and its window-pruning atomic.
            self.store.delete_documents(stale)
        return removed

    def _prune(self, min_timestamp: float) -> int:
        return self._processor().prune_state(min_timestamp)

    def _normalize_matches(self, matches: list[Match]) -> list[Match]:
        """Strip the internal swap suffix and de-duplicate symmetric JOIN matches."""
        out: list[Match] = []
        seen: set[tuple] = set()
        for match in matches:
            if match.qid.endswith(_SWAP_SUFFIX):
                match = Match(
                    qid=match.qid[: -len(_SWAP_SUFFIX)],
                    lhs_docid=match.rhs_docid,
                    rhs_docid=match.lhs_docid,
                    lhs_timestamp=match.rhs_timestamp,
                    rhs_timestamp=match.lhs_timestamp,
                    lhs_bindings=match.rhs_bindings,
                    rhs_bindings=match.lhs_bindings,
                    window=match.window,
                )
            if match.key() not in seen:
                seen.add(match.key())
                out.append(match)
        return out

    # ------------------------------------------------------------------ #
    # durable storage
    # ------------------------------------------------------------------ #
    def attach_store(self, store) -> None:
        """Attach a :class:`~repro.storage.StateStore` to this engine.

        Subsequent registrations, document epochs, prunes and retractions
        are mirrored to the store.  Registrations made *before* the attach
        are persisted immediately, so programmatic register-then-attach use
        still recovers.
        """
        self.store = store
        if store is not None and self._registered:
            self._persist_registration()

    def _persist_catalog(self) -> None:
        """Persist canonical-name entries added since the last persist."""
        entries = self.catalog.entries()
        if len(entries) > self._catalog_watermark:
            self.store.save_catalog_entries(entries[self._catalog_watermark :])
            self._catalog_watermark = len(entries)

    def _persist_registration(self) -> None:
        """Persist registration-derived facts: catalog entries + template refcounts.

        The refcounts are stored as a sorted multiset (template ids are
        assigned in registration order and churn under cancel/resubscribe,
        so the ids themselves are not stable across a restart); recovery
        cross-checks the replayed registry against this multiset.
        """
        self._persist_catalog()
        registry = getattr(self, "registry", None)
        if registry is not None:
            self.store.set_meta(
                "template_refcounts", sorted(registry.template_sizes().values())
            )

    def close(self) -> None:
        """Flush and close the attached state store (idempotent; no-op without one)."""
        if self.store is not None:
            self.store.close()

    # ------------------------------------------------------------------ #
    # results and stats
    # ------------------------------------------------------------------ #
    def output_document(self, match: Match) -> XmlDocument:
        """Construct the output XML document of a match (default SELECT semantics).

        Requires ``store_documents=True`` (the default).
        """
        if match.lhs_docid not in self.documents or match.rhs_docid not in self.documents:
            raise KeyError(
                "output construction needs the original documents; "
                "the engine was created with store_documents=False or the "
                "documents were pruned"
            )
        lhs_root, rhs_root = self._root_vars.get(match.qid, (None, None))
        return build_output_document(
            match,
            self.documents[match.lhs_docid],
            self.documents[match.rhs_docid],
            lhs_root_variable=lhs_root,
            rhs_root_variable=rhs_root,
        )

    @property
    def registered_queries(self) -> dict[str, XsclQuery]:
        """The registered (canonicalized) queries by query id."""
        return dict(self._registered)

    @property
    def num_queries(self) -> int:
        """Number of registered queries."""
        return len(self._registered)

    @property
    def costs(self) -> CostBreakdown:
        """The processor's accumulated cost breakdown."""
        return self._processor().costs

    @property
    def indexing(self) -> str:
        """The join-state indexing mode (``"eager"`` / ``"lazy"`` / ``"off"``)."""
        return self._processor().indexing

    @property
    def plan_cache(self):
        """The processor's compiled-plan cache (``None`` when disabled)."""
        return self._processor().plan_cache

    @property
    def prune_dispatch(self) -> bool:
        """Whether relevance-pruned dispatch is enabled."""
        return self._processor().relevance is not None

    @property
    def delta_join(self) -> bool:
        """Whether delta-driven (semi-join reduced) evaluation is enabled."""
        return self._processor().delta_join

    @property
    def columnar(self) -> bool:
        """Whether columnar (interned-id vector) evaluation is enabled."""
        return self._processor().columnar

    def set_match_filter(self, match_filter) -> None:
        """Install a query-id match filter on the processor (or clear with None).

        The filter decides whether a query id's matches are worth
        materializing at all (e.g. the broker suppresses matches of paused
        or cancelled subscriptions before the Match objects are built).
        The internal ``::swap`` suffix of mirrored symmetric-JOIN
        registrations is stripped before the filter sees the id, so filters
        reason about public query ids only.
        """
        if match_filter is None:
            self._processor().set_match_filter(None)
            return

        def filter_with_swap(qid: str) -> bool:
            if qid.endswith(_SWAP_SUFFIX):
                qid = qid[: -len(_SWAP_SUFFIX)]
            return match_filter(qid)

        self._processor().set_match_filter(filter_with_swap)

    @property
    def delta_stats(self) -> dict[str, int]:
        """The processor's delta-reduction counters (all zero when off)."""
        return dict(self._processor().delta_stats)

    def metrics_snapshot(self) -> Optional[dict]:
        """Snapshot of this engine's metrics registry (``None`` when disabled).

        The brokers merge these with their own registries (and, in the
        process runtime, with snapshots fetched from the workers) into
        ``broker.stats()["metrics"]``.
        """
        return self.metrics.snapshot() if self.metrics is not None else None

    def stats(self) -> EngineStats:
        """Summary statistics for dashboards, examples and tests."""
        return EngineStats(
            num_queries=self.num_queries,
            num_templates=getattr(self, "num_templates", None),
            num_documents_processed=self.num_documents_processed,
            num_matches=self.num_matches,
            state_documents=self._processor().state.num_documents,
            costs=self.costs.as_milliseconds(),
        )


def _swap_query(query: XsclQuery) -> XsclQuery:
    """Mirror a symmetric JOIN query (blocks and predicate orientation swapped)."""
    swapped_predicates = tuple(
        ValueJoinPredicate(p.right_var, p.left_var) for p in query.join.predicates
    )
    return XsclQuery(
        left=query.right,
        right=query.left,
        join=JoinSpec(
            operator=query.join.operator,
            predicates=swapped_predicates,
            window=query.join.window,
        ),
        select=query.select,
        publish=query.publish,
        name=query.name,
        text=query.text,
    )


class MMQJPEngine(_BaseEngine):
    """The paper's system: shared Stage 1 plus template-based Stage 2.

    Parameters
    ----------
    config:
        A :class:`~repro.config.RuntimeConfig` carrying every knob
        (``indexing``, ``plan_cache``, ``prune_dispatch``, ``auto_prune``,
        ``auto_timestamp``, ``store_documents``, ``view_cache_size``, ...);
        ``None`` means ``RuntimeConfig()``.  View materialization
        (Section 5: the per-template conjunctive queries run over the
        materialized views ``RL`` / ``RR`` instead of the raw witness
        relations) is on exactly when ``config.engine == "mmqjp-vm"``;
        ``view_cache_size`` then bounds its ``RL``-slice cache.
    """

    def __init__(self, config: Optional[RuntimeConfig] = None):
        config = config_or_default(config, "MMQJPEngine")
        super().__init__(config)
        self.registry = TemplateRegistry()
        use_view_materialization = config.engine == "mmqjp-vm"
        view_cache = None
        if use_view_materialization and config.view_cache_size is not None:
            view_cache = ViewCache(max_entries=config.view_cache_size)
        self.processor = MMQJPJoinProcessor(
            registry=self.registry,
            use_view_materialization=use_view_materialization,
            view_cache=view_cache,
            config=config,
        )
        if self.metrics is not None:
            self.processor.costs.attach_metrics(self.metrics)

    def _processor(self) -> MMQJPJoinProcessor:
        return self.processor

    def _register_with_processor(self, qid: str, query: XsclQuery) -> None:
        record = self.registry.add_query(qid, query)
        self._register_stage1(qid, query, record.reduced)

    def _deregister_with_processor(self, qid: str) -> None:
        self.processor.remove_query(qid)

    @property
    def num_templates(self) -> int:
        """Number of distinct query templates currently registered."""
        return self.registry.num_templates


class SequentialEngine(_BaseEngine):
    """The baseline: per-query join evaluation behind the same interface.

    Takes a :class:`~repro.config.RuntimeConfig` exactly like
    :class:`MMQJPEngine` (``None`` means ``RuntimeConfig()``).
    """

    def __init__(self, config: Optional[RuntimeConfig] = None):
        config = config_or_default(config, "SequentialEngine")
        super().__init__(config)
        self.processor = SequentialJoinProcessor(config=config)
        if self.metrics is not None:
            self.processor.costs.attach_metrics(self.metrics)

    def _processor(self) -> SequentialJoinProcessor:
        return self.processor

    def _register_with_processor(self, qid: str, query: XsclQuery) -> None:
        self.processor.add_query(qid, query)
        self._register_stage1(qid, query, self.processor.reduced_graph(qid))

    def _deregister_with_processor(self, qid: str) -> None:
        self.processor.remove_query(qid)


def make_engine(config: RuntimeConfig, store=None) -> _BaseEngine:
    """Construct the engine ``config.engine`` selects (see :data:`ENGINES`).

    ``"mmqjp"`` is the paper's system, ``"mmqjp-vm"`` adds the Section 5
    view materialization (with an optional ``RL``-slice cache of
    ``config.view_cache_size`` entries), and ``"sequential"`` is the
    one-query-at-a-time baseline.  This is the single factory used by
    :class:`repro.pubsub.Broker` and by every shard of
    :class:`repro.runtime.ShardedBroker`.

    ``store`` optionally attaches a :class:`~repro.storage.StateStore` (the
    brokers open one per engine when ``config.storage == "sqlite"``; each
    shard persists to its own database file, so the store cannot be derived
    from the shared config and is injected here instead).
    """
    config = config_or_default(config, "make_engine")
    if config.engine == "sequential":
        built: _BaseEngine = SequentialEngine(config)
    else:
        built = MMQJPEngine(config)
    if store is not None:
        built.attach_store(store)
    return built
