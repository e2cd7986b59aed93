"""The sharded broker: N independent engine shards behind one broker API.

:class:`ShardedBroker` is the second broker built on
:class:`repro.pubsub.broker.BrokerFrontEnd`: subscriptions, delivery,
durable registration, ``publish_stream``, ``stats()``, metrics and the
session lifecycle are the front end's, shared with the unsharded
:class:`repro.pubsub.Broker`.  What this module adds is where join queries
run — partitioned across several independent Stage 1 + Stage 2 engines:

* **Subscriptions are partitioned** by a :class:`~repro.runtime.partition.Partitioner`
  that keeps all queries of one template (same CQT) on the same shard, so
  the paper's template sharing is preserved inside every shard.
* **Documents are routed**: by default a
  :class:`~repro.runtime.router.ShardRouter` dispatches each published
  document only to the shards hosting templates it can bind (a
  variable→shard-set inverted index maintained on subscribe/cancel);
  ``route_dispatch=False`` falls back to replicating every document to
  every shard.  Routing is a pure dispatch optimization — the match set is
  identical either way, because a document no query on a shard can bind
  produces no consumable witnesses there.
* **Shard tasks are scheduled** by a pluggable
  :class:`~repro.runtime.executor.ShardExecutor`: in the calling thread
  (``"serial"``), on a thread pool (``"threads"``), or — for true CPU
  parallelism — against engines living in long-lived worker processes
  (``"processes"``, see :mod:`repro.runtime.process`).  In the process
  runtime documents cross as pickled batches and matches return as compact
  tuples re-materialized here, so callbacks and delivery sinks always fire
  in the parent process.
* **Results are merged** in shard order: matches are unioned (shards own
  disjoint query ids, and every shard assigns the same timestamps because
  the broker stamps documents centrally before the fan-out), statistics via
  :func:`repro.core.engine.merge_engine_stats`, costs by per-phase summing.

Filter (single-block) subscriptions are evaluated once, by the front end's
shared Stage 1 evaluator.

Batched ingestion (:meth:`ShardedBroker.publish_many`) dispatches one task
per shard for a whole batch of documents — routed per document into
per-shard sub-batches — amortizing executor handoff over the batch; the
intended path for high-rate streams.

Construction takes a :class:`~repro.config.RuntimeConfig` (the blessed
entry point is :func:`repro.open_broker` with ``shards > 1``).
"""

from __future__ import annotations

import pickle
from time import perf_counter
from typing import Iterable, Optional, Sequence, Union

from repro.config import RuntimeConfig, config_or_default
from repro.core.engine import EngineStats, make_engine, merge_engine_stats
from repro.core.results import Match
from repro.pubsub.broker import BrokerFrontEnd
from repro.pubsub.subscription import SubscriptionResult
from repro.runtime.executor import executor_env_override, make_executor
from repro.runtime.partition import make_partitioner
from repro.runtime.process import ProcessShardHandle, ShardWorkerGroup
from repro.runtime.router import ShardRouter
from repro.runtime.shard import EngineShard
from repro.runtime.wire import WireBuffer, encode_document_batch
from repro.storage import open_member_store
from repro.xmlmodel.document import XmlDocument
from repro.xmlmodel.parser import parse_document
from repro.xscl.ast import XsclQuery


class ShardedBroker(BrokerFrontEnd):
    """A publish/subscribe broker running N parallel engine shards.

    Parameters
    ----------
    config:
        A :class:`~repro.config.RuntimeConfig`; ``shards``, ``partitioner``,
        ``executor``, ``max_workers`` and ``route_dispatch`` select the
        runtime topology, the remaining fields configure every shard engine
        identically.  ``None`` means ``RuntimeConfig()``.
    """

    def __init__(self, config: Optional[RuntimeConfig] = None):
        config = config_or_default(config, "ShardedBroker")
        super().__init__(config)
        self.auto_timestamp = config.auto_timestamp
        # The broker stamps documents centrally (one clock for all shards)
        # so that every shard sees identical timestamps; per-engine
        # auto-stamping would let shard clocks drift on streams mixing
        # stamped and unstamped documents.
        shard_config = config.replace(auto_timestamp=False)
        executor_spec = executor_env_override(config.executor)
        self._executor = make_executor(
            executor_spec, max_workers=config.max_workers, num_shards=config.shards
        )
        self._worker_groups: list[ShardWorkerGroup] = []
        if self._executor.name == "processes":
            self.shards = self._spawn_process_shards(shard_config)
        else:
            # One state store per shard ("memory" attaches nothing).
            self.shards = [
                EngineShard(
                    shard_id,
                    make_engine(
                        shard_config,
                        store=open_member_store(
                            self.storage,
                            self.storage_path,
                            f"shard-{shard_id}",
                            config.durability,
                        ),
                    ),
                )
                for shard_id in range(config.shards)
            ]
        # Encode-once transport (process runtime only): each published
        # document/batch is serialized exactly once into the reusable wire
        # buffer and the same bytes go to every routed shard, so transport
        # cost is O(bytes), not O(shards x pickle).
        self._wire_enabled = self._executor.name == "processes"
        self._wire_buffer = WireBuffer()
        self._transport = {
            "encodes": 0,
            "documents_encoded": 0,
            "encode_ms": 0.0,
            "wire_bytes": 0,
            "shard_sends": 0,
            "shipped_bytes": 0,
        }
        self._partitioner = make_partitioner(config.partitioner, config.shards)
        self._router = ShardRouter() if config.route_dispatch else None
        self._shard_of: dict[str, Union[EngineShard, ProcessShardHandle]] = {}
        self._clock_value = 0

    def _spawn_process_shards(self, shard_config: RuntimeConfig) -> list[ProcessShardHandle]:
        """Start the worker processes and return one handle per shard.

        The worker engines are built from the pickled shard config
        (executor and partitioner are broker-level concerns, so they are
        normalized to plain keywords first); shards are assigned to
        ``min(shards, max_workers)`` workers round-robin.
        """
        worker_config = shard_config.replace(executor="serial", partitioner="hash")
        try:
            config_bytes = pickle.dumps(worker_config)
        except Exception as exc:
            raise ValueError(
                "executor='processes' builds the shard engines in worker "
                "processes, which requires a picklable RuntimeConfig; "
                f"this one does not pickle: {exc}"
            ) from exc
        num_shards = shard_config.shards
        num_workers = min(num_shards, shard_config.max_workers or num_shards)
        assignments = [
            [s for s in range(num_shards) if s % num_workers == w]
            for w in range(num_workers)
        ]
        group_of: dict[int, ShardWorkerGroup] = {}
        try:
            for shard_ids in assignments:
                group = ShardWorkerGroup(
                    config_bytes,
                    shard_ids,
                    self.storage,
                    self.storage_path,
                    shard_config.durability,
                )
                self._worker_groups.append(group)
                for shard_id in shard_ids:
                    group_of[shard_id] = group
        except BaseException:
            for group in self._worker_groups:
                group.close()
            raise
        return [
            ProcessShardHandle(shard_id, group_of[shard_id])
            for shard_id in range(num_shards)
        ]

    # ------------------------------------------------------------------ #
    # front-end hooks
    # ------------------------------------------------------------------ #
    def _register_join(
        self, sid: str, query: XsclQuery, shard: Optional[int]
    ) -> int:
        """Place a join query on the partitioner's (or the recorded) shard.

        Recovery passes the *recorded* shard: documents are routed but
        subscriptions partitioned, so each shard's persisted join state
        reflects the queries it owned, and a load-sensitive partitioner
        could choose differently after churn.  The partitioner's template
        map and load accounting are restored alongside, so post-recovery
        placements stay cohesive; the router indexes the query either way.
        """
        if shard is None:
            shard = self._partitioner.shard_for(query)
        else:
            self._partitioner.restore_assignment(query, shard)
        owner = self.shards[shard]
        owner.register(sid, query)
        self._shard_of[sid] = owner
        if self._router is not None:
            self._router.register(sid, query, shard)
        return shard

    def _deregister_join(self, sid: str, query: XsclQuery) -> None:
        """Retract a join query from its shard, the router and the partitioner."""
        self._shard_of.pop(sid).deregister(sid)
        self._partitioner.release(query)
        if self._router is not None:
            self._router.cancel(sid)

    def output_document(self, match: Match) -> XmlDocument:
        """Construct the output XML document of a match (on its owning shard)."""
        shard = self._shard_of.get(match.qid)
        if shard is None:
            raise KeyError(f"no shard owns query id {match.qid!r}")
        return shard.output_document(match)

    def _members(self) -> list:
        return self.shards

    def _topology_stats(self, member_stats: list) -> dict:
        return {
            "shards": self.num_shards,
            "executor": self._executor.name,
            "workers": len(self._worker_groups) or None,
            "routing": self._router.stats() if self._router is not None else None,
            "transport": self.transport_stats(),
            "per_shard": [
                {"shard": shard.shard_id, **stats.__dict__}
                for shard, stats in zip(self.shards, member_stats)
            ],
            "partition": self._partitioner.stats(),
        }

    def _close_runtime(self) -> None:
        for group in self._worker_groups:
            group.close()
        self._executor.close()

    def _restore_counters(self, records) -> None:
        super()._restore_counters(records)
        self._clock_value = int(self._store.get_meta("clock", 0))

    @property
    def num_shards(self) -> int:
        """Number of engine shards."""
        return len(self.shards)

    def shard_of(self, subscription_id: str) -> Optional[int]:
        """The shard id owning a join subscription (``None`` for filters)."""
        shard = self._shard_of.get(subscription_id)
        return shard.shard_id if shard is not None else None

    # ------------------------------------------------------------------ #
    # publishing
    # ------------------------------------------------------------------ #
    def _dispatch_targets(self, document: XmlDocument, candidates: list) -> list:
        """The shards one document must reach (routing, when enabled).

        ``candidates`` are the shards with at least one subscription (an
        empty shard skips processing regardless — Stage 1 witnesses are
        computed at arrival time, so a document processed before a query
        registers can never join with it).
        """
        if self._router is None:
            return candidates
        relevant = self._router.route(document)
        targets = [shard for shard in candidates if shard.shard_id in relevant]
        self._router.account(len(targets), len(candidates))
        return targets

    def publish(
        self,
        document: Union[str, XmlDocument],
        timestamp: Optional[float] = None,
        stream: Optional[str] = None,
    ) -> list[SubscriptionResult]:
        """Publish one document and deliver all resulting matches.

        The direct single-document path: one ``process_one`` task per
        routed shard, skipping the batch assembly, per-batch hooks and
        per-document result nesting that :meth:`publish_many` pays — the
        latency path for interactive publishes, while high-rate streams
        should batch through :meth:`publish_many`.
        """
        document = self._prepare(document, timestamp, stream)
        self._persist_clock()
        candidates = [shard for shard in self.shards if shard.qids]
        targets = self._dispatch_targets(document, candidates)
        if self._wire_enabled and targets:
            per_shard = self._invoke_wire(
                [(shard, None) for shard in targets], [document], "wire_one"
            )
        else:
            per_shard = self._executor.invoke(
                [(shard, "process_one", (document,)) for shard in targets]
            )
        deliveries = self._filters.deliver(document)
        metrics = self.metrics
        stamp = document.publish_stamp if metrics is not None else None
        self._record_filter_lag(deliveries, stamp)
        subscription_of: dict = {}
        for matches in per_shard:
            self._deliver_matches(matches, deliveries, subscription_of, stamp)
        if metrics is not None:
            metrics.histogram("publish_latency").record(perf_counter() - stamp)
            metrics.counter("documents_published").inc()
            metrics.counter("results_delivered").inc(len(deliveries))
        return deliveries

    def publish_many(
        self,
        documents: Iterable[Union[str, XmlDocument]],
        timestamp: Optional[float] = None,
        stream: Optional[str] = None,
    ) -> list[SubscriptionResult]:
        """Publish a batch of documents with one fan-out per shard.

        The whole batch is prepared (parsed, stamped, recorded on its
        streams) up front and routed per document into per-shard
        sub-batches; each shard then processes its sub-batch in one task,
        so the per-document dispatch overhead is paid once per batch per
        shard.  Deliveries are returned in arrival order (per document:
        filter deliveries first, then join matches in shard order).
        """
        batch = [self._prepare(document, timestamp, stream) for document in documents]
        if not batch:
            return []
        self._persist_clock()

        candidates = [shard for shard in self.shards if shard.qids]
        if self._router is None:
            assignments = [(shard, range(len(batch))) for shard in candidates]
        else:
            indices: dict[int, list[int]] = {
                shard.shard_id: [] for shard in candidates
            }
            for index, document in enumerate(batch):
                targets = self._dispatch_targets(document, candidates)
                for shard in targets:
                    indices[shard.shard_id].append(index)
            assignments = [
                (shard, indices[shard.shard_id])
                for shard in candidates
                if indices[shard.shard_id]
            ]
        if self._wire_enabled and assignments:
            # One encode for the whole batch; each shard names its document
            # selection as indices into the shared payload (None = all).
            per_call = self._invoke_wire(
                [
                    (
                        shard,
                        None
                        if len(doc_indices) == len(batch)
                        else list(doc_indices),
                    )
                    for shard, doc_indices in assignments
                ],
                batch,
                "wire_batch",
            )
        else:
            calls = []
            for shard, doc_indices in assignments:
                sub_batch = (
                    batch
                    if len(doc_indices) == len(batch)
                    else [batch[i] for i in doc_indices]
                )
                calls.append((shard, "process_batch", (sub_batch,)))
            per_call = self._executor.invoke(calls)

        # Scatter the per-sub-batch results back to per-document, keeping
        # shard order within each document (``assignments`` iterates
        # ``candidates``, which preserves shard order).
        matches_by_doc: list[list[Match]] = [[] for _ in batch]
        for (shard, doc_indices), rows in zip(assignments, per_call):
            for index, matches in zip(doc_indices, rows):
                matches_by_doc[index].extend(matches)

        # Filters are evaluated in the merge loop (they do not depend on the
        # shard results) so subscriber callbacks fire in the same per-document
        # order as the unsharded broker: filters for document i, then its
        # join matches, then document i+1.
        deliveries: list[SubscriptionResult] = []
        subscription_of: dict = {}
        metrics = self.metrics
        for document, matches in zip(batch, matches_by_doc):
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

    def _invoke_wire(self, assignments, batch: Sequence[XmlDocument], method: str):
        """Encode ``batch`` once and fan the same bytes out to every shard.

        ``assignments`` pairs each target shard with its document selection
        (indices into the batch, or ``None`` for all).  The payload is a
        view into the reusable wire buffer, released once every send has
        been written.
        """
        transport = self._transport
        start = perf_counter()
        payload = self._wire_buffer.pack(encode_document_batch(batch))
        transport["encodes"] += 1
        transport["documents_encoded"] += len(batch)
        transport["encode_ms"] += (perf_counter() - start) * 1000.0
        transport["wire_bytes"] += len(payload)
        transport["shard_sends"] += len(assignments)
        transport["shipped_bytes"] += len(payload) * len(assignments)
        try:
            return self._executor.invoke(
                [(shard, method, (indices, payload)) for shard, indices in assignments]
            )
        finally:
            payload.release()

    def _prepare(
        self,
        document: Union[str, XmlDocument],
        timestamp: Optional[float],
        stream: Optional[str],
    ) -> XmlDocument:
        if isinstance(document, str):
            document = parse_document(document)
        if self.metrics is not None:
            document.publish_stamp = perf_counter()
        if stream is not None:
            document.stream = stream
        if timestamp is not None:
            document.timestamp = float(timestamp)
        elif self.auto_timestamp and document.timestamp == 0.0:
            self._clock_value += 1
            document.timestamp = float(self._clock_value)
        self.streams.get_or_create(document.stream).record(document)
        self._num_published += 1
        return document

    def _persist_clock(self) -> None:
        """Persist the central timestamp clock (once per publish call).

        Stamps must keep increasing across a restart — a recovered clock
        behind the persisted state would assign duplicate timestamps and
        break window semantics.
        """
        if self._store is not None:
            self._store.set_meta("clock", self._clock_value)
            self._store.set_meta("num_published", self._num_published)

    # ------------------------------------------------------------------ #
    # state management and stats
    # ------------------------------------------------------------------ #
    def prune(self, min_timestamp: float) -> int:
        """Prune every shard's join state; returns total documents removed.

        (Per shard, not distinct documents: a document surviving on one
        shard and removed on another counts once.)
        """
        return sum(shard.prune(min_timestamp) for shard in self.shards)

    def merged_engine_stats(self) -> EngineStats:
        """All shards' engine statistics merged into one."""
        return merge_engine_stats([shard.stats() for shard in self.shards])

    def transport_stats(self) -> dict:
        """Encode-once transport counters (broker side + merged workers).

        Broker side: ``encodes`` / ``documents_encoded`` / ``encode_ms``
        count each batch's single serialization, ``wire_bytes`` the encoded
        payload bytes, and ``shard_sends`` / ``shipped_bytes`` the fan-out
        (same bytes written once per routed shard).  Worker side (summed
        across workers, like ``stats()["routing"]``): ``payload_loads`` /
        ``payload_bytes`` count received frames and ``decodes`` /
        ``decode_ms`` the actual decodes — fewer than the loads whenever
        co-hosted shards shared one payload.  All zero outside the process
        runtime.
        """
        merged = dict(self._transport)
        merged.update(
            {"decodes": 0, "decode_ms": 0.0, "payload_loads": 0, "payload_bytes": 0}
        )
        for group in self._worker_groups:
            worker = group.call(group.shard_ids[0], "transport")
            for key, value in worker.items():
                merged[key] += value
        merged["encode_ms"] = round(merged["encode_ms"], 3)
        merged["decode_ms"] = round(merged["decode_ms"], 3)
        return merged

    def __repr__(self) -> str:
        return (
            f"<ShardedBroker engine={self.engine_name!r} shards={self.num_shards} "
            f"executor={self._executor.name!r} "
            f"subscriptions={len(self._subscriptions)}>"
        )
