"""The XML publish/subscribe broker.

The broker is the message-broker front end the paper's introduction
motivates: it accepts subscriptions (XSCL queries) and incoming XML
documents, and delivers matches to subscribers.

* Join (inter-document) subscriptions are delegated to one of the Stage 2
  engines — MMQJP by default, MMQJP with view materialization, or the
  sequential baseline — selected through
  :class:`~repro.config.RuntimeConfig`.
* Simple single-block subscriptions (``SELECT * FROM blog`` or a lone query
  block) are evaluated directly by the shared Stage 1 evaluator, like a
  classic XPath pub/sub system.

The blessed construction path is :func:`repro.open_broker`, which routes to
the sharded runtime when ``config.shards > 1``; ``Broker`` itself is the
unsharded flavor and refuses ``shards > 1``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Optional, Union

from repro.config import RuntimeConfig, config_or_default, metrics_enabled, resolve_ingest
from repro.core.engine import ENGINES, make_engine
from repro.metrics import MetricsRegistry, merge_snapshots
from repro.pubsub.filters import FilterFrontEnd, deliver_filter_matches
from repro.pubsub.stream import StreamRegistry
from repro.pubsub.subscription import (
    Callback,
    Subscription,
    SubscriptionResult,
    delivery_failure_stats,
)
from repro.storage import SubscriptionRecord, open_member_store, resolve_storage
from repro.storage.recovery import config_snapshot
from repro.xmlmodel.document import XmlDocument
from repro.xmlmodel.parser import parse_document
from repro.xscl.ast import XsclQuery
from repro.xscl.parser import parse_query
from repro.xscl.render import render_query

__all__ = ["Broker", "ENGINES", "deliver_filter_matches"]


class Broker:
    """An XML publish/subscribe broker supporting inter-document join queries.

    Parameters
    ----------
    config:
        A :class:`~repro.config.RuntimeConfig`; ``None`` means
        ``RuntimeConfig()``.  ``shards > 1`` raises :class:`ValueError` —
        use :func:`repro.open_broker`, which routes to
        :class:`repro.runtime.ShardedBroker`.
    """

    def __init__(self, config: Optional[RuntimeConfig] = None):
        config = config_or_default(config, type(self).__name__)
        if config.shards > 1:
            # Refuse rather than silently running everything on one engine.
            raise ValueError(
                f"{type(self).__name__} cannot honor shards={config.shards}; construct "
                "repro.runtime.ShardedBroker (or use repro.open_broker) instead"
            )
        config.validate_outputs()
        self.config = config
        self.engine_name = config.engine
        # Durable storage: "memory" attaches nothing anywhere; "sqlite"
        # opens one registry store for the broker and one state store for
        # the engine (the single "shard" of the unsharded topology, so the
        # on-disk layout matches ShardedBroker's and recovery is uniform).
        self.storage, self.storage_path = resolve_storage(config)
        self._store = open_member_store(
            self.storage, self.storage_path, "broker", config.durability
        )
        self.engine = make_engine(
            config,
            store=open_member_store(
                self.storage, self.storage_path, "shard-0", config.durability
            ),
        )
        self.construct_outputs = config.construct_outputs
        self._ingest = resolve_ingest(config)
        self.streams = StreamRegistry(history_size=config.stream_history)
        self._subscriptions: dict[str, Subscription] = {}
        # Lazy match materialization: a join match whose subscription is
        # missing, cancelled or paused is dropped by _deliver_matches
        # anyway, so the processor skips building the Match object at all
        # (such matches consequently never count toward num_matches).
        self.engine.set_match_filter(self._match_deliverable)
        self._filters = FilterFrontEnd()
        self._sub_counter = 1
        self._reg_seq = 0
        self._closed = False
        # Observability (RuntimeConfig.metrics / REPRO_METRICS): the broker
        # registry holds publish latency and delivery lag; the engine keeps
        # its own per-stage registry and both merge in stats()["metrics"].
        self.metrics = MetricsRegistry() if metrics_enabled(config) else None
        if self._store is not None:
            self._store.set_meta("config", config_snapshot(config))

    def _match_deliverable(self, qid: str) -> bool:
        """Whether matches of ``qid`` could currently be delivered."""
        subscription = self._subscriptions.get(qid)
        return subscription is not None and subscription.active

    # ------------------------------------------------------------------ #
    # subscriptions
    # ------------------------------------------------------------------ #
    def subscribe(
        self,
        query: Union[str, XsclQuery],
        callback: Optional[Callback] = None,
        window_symbols: Optional[dict[str, float]] = None,
        subscription_id: Optional[str] = None,
        sink=None,
    ) -> Subscription:
        """Register a subscription and return its :class:`Subscription` handle.

        ``sink`` attaches a :class:`~repro.pubsub.sinks.DeliverySink`
        receiving every result (in addition to the legacy bounded
        ``results`` collection and the optional ``callback``).
        """
        if isinstance(query, str):
            query = parse_query(query, window_symbols=window_symbols)
        sid = subscription_id if subscription_id is not None else self._next_sid()
        if sid in self._subscriptions:
            raise ValueError(f"subscription id {sid!r} already exists")
        subscription = Subscription(
            subscription_id=sid,
            query=query,
            callback=callback,
            sink=sink,
            result_limit=self.config.result_limit,
        )

        if query.is_join_query:
            self.engine.register_query(query, qid=sid)
        else:
            self._filters.register(sid, subscription)
        self._subscriptions[sid] = subscription
        subscription._retract = self.cancel
        if self._store is not None:
            self._persist_subscription(sid, query)
        return subscription

    def _next_sid(self) -> str:
        sid = f"sub{self._sub_counter}"
        self._sub_counter += 1
        return sid

    def _persist_subscription(self, sid: str, query: XsclQuery) -> None:
        """Record one registration in the durable registry.

        The query is persisted as rendered text (windows numeric, so no
        window-symbol table is needed to replay it); ``seq`` preserves the
        broker-wide registration order recovery replays in.
        """
        self._reg_seq += 1
        self._store.save_subscription(
            SubscriptionRecord(
                seq=self._reg_seq,
                subscription_id=sid,
                query_text=render_query(query),
                kind="join" if query.is_join_query else "filter",
                shard=None,
            )
        )
        self._store.set_meta("sub_counter", self._sub_counter)

    def _restore_subscription(self, record: SubscriptionRecord, query: XsclQuery) -> Subscription:
        """Re-register one persisted subscription (recovery replay path).

        Runs the live registration code path — engine templates, Stage 1
        registrations, plans and relevance postings rebuild exactly as they
        would on a fresh ``subscribe`` — but skips re-persisting the record.
        Callbacks and sinks are process-local and cannot be recovered;
        subscribers re-attach via ``broker.subscription(sid)``.
        """
        subscription = Subscription(
            subscription_id=record.subscription_id,
            query=query,
            result_limit=self.config.result_limit,
        )
        if query.is_join_query:
            self.engine.register_query(query, qid=record.subscription_id)
        else:
            self._filters.register(record.subscription_id, subscription)
        self._subscriptions[record.subscription_id] = subscription
        subscription._retract = self.cancel
        return subscription

    def cancel(self, subscription_id: str) -> bool:
        """Retract a subscription: deregister its query and reclaim state.

        Join subscriptions are deregistered from the engine (template
        ``RT`` tuple, relevance postings, compiled plans and reclaimable
        join-state rows included — see
        :meth:`repro.core.engine._BaseEngine.deregister_query`); filter
        subscriptions release their pattern registrations.  The
        subscription handle is kept (cancelled) so its id is never silently
        reused; its sinks are flushed and closed.  Returns ``True`` if this
        call performed the cancellation.
        """
        subscription = self._subscriptions.get(subscription_id)
        if subscription is None or subscription.cancelled:
            return False
        if not self._filters.cancel(subscription_id):
            self.engine.deregister_query(subscription_id)
        subscription._mark_cancelled()
        if self._store is not None:
            self._store.remove_subscription(subscription_id)
        return True

    def unsubscribe(self, subscription_id: str) -> None:
        """Retract a subscription (alias of :meth:`cancel`).

        Historically this only muted deliveries while the query kept
        consuming processing time and state; that behavior is now
        :meth:`mute`.
        """
        self.cancel(subscription_id)

    def mute(self, subscription_id: str) -> None:
        """Deactivate a subscription without retracting it (old ``unsubscribe``)."""
        subscription = self._subscriptions.get(subscription_id)
        if subscription is not None:
            subscription.pause()

    def subscription(self, subscription_id: str) -> Subscription:
        """Return a subscription handle by id."""
        return self._subscriptions[subscription_id]

    @property
    def subscriptions(self) -> list[Subscription]:
        """All subscriptions (cancelled ones included), in registration order."""
        return list(self._subscriptions.values())

    # ------------------------------------------------------------------ #
    # publishing
    # ------------------------------------------------------------------ #
    def _prepare(
        self,
        document: Union[str, XmlDocument],
        timestamp: Optional[float],
        stream: Optional[str],
    ) -> XmlDocument:
        """Parse one incoming document and record it on its stream."""
        if isinstance(document, str):
            document = parse_document(document)
        if self.metrics is not None:
            document.publish_stamp = perf_counter()
        if stream is not None:
            document.stream = stream
        if timestamp is not None:
            document.timestamp = float(timestamp)
        self.streams.get_or_create(document.stream).record(document)
        return document

    def _deliver_matches(
        self,
        matches,
        deliveries: list[SubscriptionResult],
        subscription_of: dict,
        publish_stamp: Optional[float] = None,
    ) -> None:
        """Deliver one document's join matches to their subscriptions.

        ``subscription_of`` caches the qid → subscription handle lookups
        across a batch, so repeated matches of the same query resolve
        without re-consulting the registry.  Activity is still checked per
        match — a delivery callback may pause or cancel mid-batch.
        ``publish_stamp`` (metrics mode) is the triggering document's
        publish timestamp; delivery lag is recorded against it after each
        sink delivery.
        """
        metrics = self.metrics
        for match in matches:
            qid = match.qid
            subscription = subscription_of.get(qid)
            if subscription is None:
                if qid in subscription_of:
                    continue  # interned negative entry: no such subscription
                subscription = self._subscriptions.get(qid)
                subscription_of[qid] = subscription
                if subscription is None:
                    continue
            if not subscription.active:
                continue
            output = None
            if self.construct_outputs:
                output = self.engine.output_document(match)
            result = SubscriptionResult(
                subscription_id=qid, match=match, output=output
            )
            subscription.deliver(result)
            deliveries.append(result)
            if metrics is not None:
                stamp = match.publish_stamp or publish_stamp
                if stamp is not None:
                    metrics.record_delivery_lag(qid, perf_counter() - stamp)

    def _record_filter_lag(self, results: list[SubscriptionResult], stamp) -> None:
        """Record delivery lag for one document's filter-path deliveries."""
        if stamp is None or not results:
            return
        now = perf_counter()
        for result in results:
            self.metrics.record_delivery_lag(result.subscription_id, now - stamp)

    def _text_fast_path(self) -> bool:
        """Whether a text publish can skip tree construction end to end.

        Beyond the engine-side conditions (``ingest="stream"``, no stored
        documents, no durable store) the broker itself must not need the
        document object: no single-block filter subscriptions to match
        against the tree, and no stream history to append it to.
        """
        return (
            self._ingest == "stream"
            and self._filters.num_subscriptions == 0
            and self.config.stream_history == 0
            and self.engine.store is None
            and not self.engine.store_documents
        )

    def _publish_text(
        self,
        text: str,
        timestamp: Optional[float],
        stream: Optional[str],
    ) -> list[SubscriptionResult]:
        """The streaming twin of :meth:`publish` for raw-text documents.

        Stream stats are recorded with the pre-engine timestamp (0.0 when
        none was given, exactly what :meth:`_prepare` leaves on a fresh
        parse), and the engine applies its usual auto-timestamping.
        """
        name = stream if stream is not None else "S"
        metrics = self.metrics
        stamp = perf_counter() if metrics is not None else None
        pre_ts = float(timestamp) if timestamp is not None else 0.0
        self.streams.get_or_create(name).record_stamp(pre_ts)
        matches = self.engine.process_text(
            text, timestamp=(pre_ts if pre_ts != 0.0 else None), stream=name
        )
        deliveries: list[SubscriptionResult] = []
        if metrics is None:
            self._deliver_matches(matches, deliveries, {})
        else:
            self._deliver_matches(matches, deliveries, {}, stamp)
            metrics.histogram("publish_latency").record(perf_counter() - stamp)
            metrics.counter("documents_published").inc()
            metrics.counter("results_delivered").inc(len(deliveries))
        return deliveries

    def publish(
        self,
        document: Union[str, XmlDocument],
        timestamp: Optional[float] = None,
        stream: Optional[str] = None,
    ) -> list[SubscriptionResult]:
        """Publish one document and deliver all resulting matches.

        Returns the deliveries made for this document (also pushed to the
        subscriber sinks).
        """
        if isinstance(document, str) and self._text_fast_path():
            return self._publish_text(document, timestamp, stream)
        document = self._prepare(document, timestamp, stream)
        deliveries: list[SubscriptionResult] = []
        filter_results = self._filters.deliver(document)
        deliveries.extend(filter_results)
        matches = self.engine.process_document(document)
        metrics = self.metrics
        if metrics is None:
            self._deliver_matches(matches, deliveries, {})
        else:
            stamp = document.publish_stamp
            self._record_filter_lag(filter_results, stamp)
            self._deliver_matches(matches, deliveries, {}, stamp)
            metrics.histogram("publish_latency").record(perf_counter() - stamp)
            metrics.counter("documents_published").inc()
            metrics.counter("results_delivered").inc(len(deliveries))
        return deliveries

    def publish_stream(
        self, documents: Iterable[Union[str, XmlDocument]]
    ) -> list[SubscriptionResult]:
        """Publish a sequence of documents one at a time; returns all deliveries.

        Unlike :meth:`publish_many`, each document is processed and
        delivered before the next is read: a delivery callback that
        subscribes or publishes mid-stream observes the same interleaving
        as a :meth:`publish` loop, and a generator input is consumed
        incrementally instead of being materialized up front.
        """
        out: list[SubscriptionResult] = []
        for document in documents:
            out.extend(self.publish(document))
        return out

    def publish_many(
        self,
        documents: Iterable[Union[str, XmlDocument]],
        timestamp: Optional[float] = None,
        stream: Optional[str] = None,
    ) -> list[SubscriptionResult]:
        """Publish a batch of documents; returns all deliveries.

        The batched ingestion fast path: the whole batch is parsed, stamped
        and stream-recorded up front, the engine processes it through
        :meth:`~repro.core.engine._BaseEngine.process_batch` (which hoists
        the relevance-index sync and docid interning out of the per-document
        loop), and deliveries reuse one qid → subscription cache for the
        whole batch.  Deliveries fire once the whole batch has been
        processed, grouped per document in arrival order (a document's
        filter deliveries, then its join matches) — and every result still
        flows through the subscription's sinks, so a
        :class:`~repro.pubsub.sinks.BatchingSink` naturally fills and
        flushes across the batch.  Use :meth:`publish_stream` when
        per-document interleaving of processing and delivery matters.
        """
        batch = [self._prepare(document, timestamp, stream) for document in documents]
        if not batch:
            return []
        per_document = self.engine.process_batch(batch)
        deliveries: list[SubscriptionResult] = []
        subscription_of: dict = {}
        metrics = self.metrics
        for document, matches in zip(batch, per_document):
            filter_results = self._filters.deliver(document)
            deliveries.extend(filter_results)
            if metrics is None:
                self._deliver_matches(matches, deliveries, subscription_of)
            else:
                self._record_filter_lag(filter_results, document.publish_stamp)
                self._deliver_matches(
                    matches, deliveries, subscription_of, document.publish_stamp
                )
        if metrics is not None:
            metrics.histogram("publish_batch_latency").record(
                perf_counter() - batch[0].publish_stamp
            )
            metrics.counter("documents_published").inc(len(batch))
            metrics.counter("results_delivered").inc(len(deliveries))
        return deliveries

    # ------------------------------------------------------------------ #
    # state management and stats
    # ------------------------------------------------------------------ #
    def prune(self, min_timestamp: float) -> int:
        """Prune join state older than ``min_timestamp``; returns documents removed."""
        return self.engine.prune(min_timestamp)

    def stats(self) -> dict:
        """Broker-level statistics: per-stream counts alongside engine stats."""
        stream_counts = self.streams.stats()
        return {
            "engine": self.engine_name,
            "indexing": self.engine.indexing,
            "storage": self.storage,
            "streams": stream_counts,
            "num_subscriptions": len(self._subscriptions),
            "num_filter_subscriptions": self._filters.num_subscriptions,
            "num_cancelled_subscriptions": sum(
                1 for s in self._subscriptions.values() if s.cancelled
            ),
            "delivery_failures": delivery_failure_stats(self._subscriptions.values()),
            "num_documents_published": sum(stream_counts.values()),
            "engine_stats": self.engine.stats().__dict__,
            "metrics": self.metrics_snapshot(),
        }

    def metrics_snapshot(self) -> Optional[dict]:
        """Merged metrics snapshot (broker + engine), or ``None`` when disabled.

        Broker-side series: ``publish_latency`` / ``publish_batch_latency``
        histograms (publish-call wall time), the ``delivery_lag`` histogram
        plus per-subscription lag tracking, and the ``documents_published``
        / ``results_delivered`` counters.  Engine-side series: ``stage:*``
        histograms (one per measured pipeline stage).
        """
        if self.metrics is None:
            return None
        return merge_snapshots(
            [self.metrics.snapshot(), self.engine.metrics_snapshot()]
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """End the session (idempotent): close sinks, flush and close the stores.

        Every subscription's sinks are flushed and closed — a
        :class:`~repro.pubsub.sinks.BatchingSink` holding a partial batch
        delivers it here.  One sink raising does not prevent the remaining
        subscriptions, the engine or the stores from closing; the first
        error is re-raised once cleanup completes.
        """
        if self._closed:
            return
        self._closed = True
        first_error: Optional[BaseException] = None
        for subscription in self._subscriptions.values():
            try:
                subscription.close_sinks()
            except BaseException as exc:  # noqa: BLE001 - must keep closing
                if first_error is None:
                    first_error = exc
        self.engine.close()
        if self._store is not None:
            self._store.close()
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<Broker engine={self.engine_name!r} "
            f"subscriptions={len(self._subscriptions)}>"
        )
