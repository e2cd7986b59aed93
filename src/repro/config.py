"""The unified runtime configuration: one object for every knob.

:class:`RuntimeConfig` is a single frozen dataclass — one validation
point, one place to add a knob — and the only way to set a knob, in every
layer of the stack: :func:`repro.open_broker`, both brokers,
:func:`~repro.core.engine.make_engine`, both engines and both join
processors take a config and read every knob from it.

.. code-block:: python

    from repro import RuntimeConfig, open_broker

    config = RuntimeConfig(engine="mmqjp", shards=4, executor="threads")
    with open_broker(config) as broker:
        broker.subscribe(...)

Unknown field names raise :class:`TypeError` (the dataclass constructor);
bad values raise :class:`ValueError` from :meth:`RuntimeConfig.__post_init__`.

Presets capture the two configurations the evaluation section uses
constantly: :meth:`RuntimeConfig.throughput` (sharded, thread-pooled, no
output construction) and :meth:`RuntimeConfig.ablation` (every acceleration
knob off — the plan-per-call, visit-every-template, unindexed baseline).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any, Optional, Union

__all__ = [
    "ENGINES",
    "INDEXING_MODES",
    "PARTITIONERS",
    "EXECUTORS",
    "STORAGE_BACKENDS",
    "DURABILITY_MODES",
    "INGEST_MODES",
    "RuntimeConfig",
    "metrics_enabled",
    "resolve_ingest",
]

#: Engine selection keywords (canonical definition; re-exported by
#: :mod:`repro.core.engine` for backward compatibility).
ENGINES = ("mmqjp", "mmqjp-vm", "sequential")

#: Join-state index-maintenance modes (must match
#: :data:`repro.relational.database.INDEXING_MODES`; asserted by the tests).
INDEXING_MODES = ("eager", "lazy", "off")

#: Built-in partitioner keywords (must match
#: :data:`repro.runtime.partition.PARTITIONERS`).
PARTITIONERS = ("hash", "least-loaded")

#: Built-in shard-executor keywords (must match
#: :data:`repro.runtime.executor.EXECUTORS`).  ``"processes"`` runs each
#: shard engine in a long-lived worker process (true CPU parallelism for
#: the pure-Python engines); the shard engines are then constructed
#: in-worker from the pickled config, so the config must be picklable.
EXECUTORS = ("serial", "threads", "processes")

#: Document-ingest modes. ``"stream"`` (default) parses published XML text
#: in a single event-driven pass and — when the engine keeps no document
#: state — feeds Stage 1 directly from the scan without building a node
#: tree.  ``"tree"`` always materializes the full :class:`XmlNode` tree
#: first (the pre-fast-path behavior, kept for ablation).  Match sets are
#: identical either way.
INGEST_MODES = ("stream", "tree")

#: State-storage backends (canonical definition; re-exported by
#: :mod:`repro.storage`).  ``"memory"`` keeps all state in process —
#: byte-for-byte today's behavior; ``"sqlite"`` externalizes join state,
#: subscription registry and documents to per-member SQLite files so a
#: session can be resumed after a crash (``open_broker(resume_from=...)``).
STORAGE_BACKENDS = ("memory", "sqlite")

#: Durability modes for the ``"sqlite"`` backend: ``"epoch"`` commits every
#: document epoch before the next document starts; ``"relaxed"`` batches
#: commits (write-behind) — a crash may lose the most recent epochs but
#: never tears one.
DURABILITY_MODES = ("epoch", "relaxed")


@dataclass(frozen=True)
class RuntimeConfig:
    """Every runtime knob of the system, validated in one place.

    Attributes
    ----------
    engine:
        ``"mmqjp"`` (default), ``"mmqjp-vm"`` (Section 5 view
        materialization) or ``"sequential"`` (the baseline).
    indexing:
        Join-state index maintenance: ``"eager"`` (default), ``"lazy"``, or
        ``"off"`` (per-call hashing, the ablation baseline).
    plan_cache:
        Evaluate conjunctive queries through compiled, cached plans
        (default).  ``False`` re-plans per call.
    prune_dispatch:
        Skip templates/queries irrelevant to the published document
        (default).  ``False`` visits every registered template/query.
    delta_join:
        Delta-driven Stage-2 evaluation (default): before each conjunctive
        query runs, the state relations are semi-join-reduced to the rows
        reachable from the current document's witness delta, so join cost
        is proportional to delta-connected state rather than total state.
        ``False`` probes the full state relations (the pre-delta behavior,
        kept for ablation and equivalence testing).
    columnar:
        Columnar evaluation (default): the join state carries interned-id
        column vectors behind the row API, and the compiled-plan executor
        plus the delta-reduction passes run as batch kernels over packed
        id vectors (vectorized with ``numpy`` when installed — the
        ``repro[fast]`` extra — pure-``array`` kernels otherwise).
        ``False`` keeps the row-at-a-time path; match sets are identical
        either way.
    auto_prune:
        Prune join state by window horizon on the publish path (effective
        while every registered window is finite).
    auto_timestamp:
        Assign monotonically increasing timestamps to documents arriving
        with timestamp 0.
    store_documents:
        Keep processed documents so output XML can be constructed.
        ``None`` (default) follows ``construct_outputs``.
    construct_outputs:
        Build the output XML document for every join match (slower; disable
        for throughput measurements).
    view_cache_size:
        Size of the ``RL``-slice view cache for ``"mmqjp-vm"``; ``None``
        recomputes the views per document without caching.
    stream_history:
        How many recent documents each stream keeps for inspection.
    shards:
        Number of engine shards; ``> 1`` selects the sharded runtime
        (:func:`repro.open_broker` routes accordingly).
    partitioner:
        ``"hash"`` (default), ``"least-loaded"``, or a
        :class:`~repro.runtime.partition.Partitioner` instance.
    executor:
        ``"serial"`` (default), ``"threads"``, ``"processes"`` (one
        long-lived worker process per shard — true CPU parallelism), or a
        :class:`~repro.runtime.executor.ShardExecutor` instance.
    max_workers:
        Worker cap for the ``"threads"`` and ``"processes"`` executors
        (default: one per shard; fewer workers co-locate several shards
        per thread/process).
    route_dispatch:
        Relevance-aware fan-out routing in the sharded runtime (default):
        the broker maintains a variable→shard-set inverted index and only
        dispatches a document to shards hosting templates it can bind.
        ``False`` replicates every document to every shard (the pre-routing
        behavior, kept for ablation and equivalence testing).
    ingest:
        Document-ingest mode for text publishes: ``"stream"`` (default)
        scans the XML text in one event-driven pass — assigning node ids
        while building, and skipping tree construction entirely when the
        engine keeps no document state — while ``"tree"`` always builds the
        node tree first (the pre-fast-path behavior, kept for ablation).
        Match sets are identical either way; the ``REPRO_INGEST`` environment
        variable overrides both directions (see :func:`resolve_ingest`).
    result_limit:
        Bound on each subscription's legacy ``results`` collection
        (``None`` keeps it unbounded — the pre-sink behavior).
    storage:
        State-storage backend: ``"memory"`` (default, all state in
        process) or ``"sqlite"`` (durable join state, registry and
        documents; resumable via ``open_broker(resume_from=...)``).
    durability:
        Commit policy of the ``"sqlite"`` backend: ``"epoch"`` (default,
        one durable commit per document) or ``"relaxed"`` (write-behind
        batched commits — faster ingest, a crash may lose the most recent
        epochs but never tears one).
    storage_path:
        Directory holding the ``"sqlite"`` backend's database files (one
        per broker member: ``broker.sqlite3``, ``shard-N.sqlite3``).
        ``None`` with ``storage="sqlite"`` creates a fresh temporary
        directory (exposed as the broker's ``storage_path``).
    metrics:
        Runtime observability (default off): the brokers and engines
        record publish-latency and per-stage histograms (p50/p95/p99/max)
        plus per-subscription delivery lag into
        :class:`repro.metrics.MetricsRegistry` objects, surfaced merged
        under ``broker.stats()["metrics"]``.  Disabled, the hot path pays
        one attribute check.  Match sets are identical either way.  The
        ``REPRO_METRICS=1`` environment variable force-enables it (replay
        override for running existing suites with metrics on; see
        :func:`metrics_enabled`).
    """

    engine: str = "mmqjp"
    indexing: str = "eager"
    plan_cache: bool = True
    prune_dispatch: bool = True
    delta_join: bool = True
    columnar: bool = True
    auto_prune: bool = True
    auto_timestamp: bool = True
    store_documents: Optional[bool] = None
    construct_outputs: bool = True
    view_cache_size: Optional[int] = None
    stream_history: int = 0
    shards: int = 1
    partitioner: Union[str, Any] = "hash"
    executor: Union[str, Any] = "serial"
    max_workers: Optional[int] = None
    route_dispatch: bool = True
    ingest: str = "stream"
    result_limit: Optional[int] = 1024
    storage: str = "memory"
    durability: str = "epoch"
    storage_path: Optional[str] = None
    metrics: bool = False

    # ------------------------------------------------------------------ #
    # validation (the single point for the whole stack)
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose one of {ENGINES}")
        if self.indexing not in INDEXING_MODES:
            raise ValueError(
                f"unknown indexing mode {self.indexing!r}; choose one of {INDEXING_MODES}"
            )
        if self.shards < 1:
            raise ValueError(f"need at least one shard, got {self.shards}")
        if self.view_cache_size is not None and self.view_cache_size < 1:
            raise ValueError(
                f"view_cache_size must be positive or None, got {self.view_cache_size}"
            )
        if self.stream_history < 0:
            raise ValueError(f"stream_history must be >= 0, got {self.stream_history}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be positive or None, got {self.max_workers}")
        if self.result_limit is not None and self.result_limit < 1:
            raise ValueError(
                f"result_limit must be positive or None, got {self.result_limit}"
            )
        if isinstance(self.partitioner, str) and self.partitioner not in PARTITIONERS:
            raise ValueError(
                f"unknown partitioner {self.partitioner!r}; choose one of {PARTITIONERS}"
            )
        if isinstance(self.executor, str) and self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; choose one of {EXECUTORS}"
            )
        if self.ingest not in INGEST_MODES:
            raise ValueError(
                f"unknown ingest mode {self.ingest!r}; choose one of {INGEST_MODES}"
            )
        if not isinstance(self.route_dispatch, bool):
            raise ValueError(
                f"route_dispatch must be True or False, got {self.route_dispatch!r}"
            )
        if not isinstance(self.columnar, bool):
            raise ValueError(
                f"columnar must be True or False, got {self.columnar!r}"
            )
        if not isinstance(self.metrics, bool):
            raise ValueError(
                f"metrics must be True or False, got {self.metrics!r}"
            )
        if self.storage not in STORAGE_BACKENDS:
            raise ValueError(
                f"unknown storage backend {self.storage!r}; choose one of {STORAGE_BACKENDS}"
            )
        if self.durability not in DURABILITY_MODES:
            raise ValueError(
                f"unknown durability mode {self.durability!r}; choose one of {DURABILITY_MODES}"
            )
        if self.storage_path is not None and self.storage != "sqlite":
            raise ValueError(
                f"storage_path requires storage='sqlite', got storage={self.storage!r}"
            )

    def validate_outputs(self) -> None:
        """Broker-level cross-check of output construction vs document storage.

        Called by the brokers (where ``construct_outputs`` matters): a
        session cannot build output XML without storing the source
        documents.  Engine-level consumers skip this check —
        ``store_documents=False`` with the default ``construct_outputs``
        is the normal throughput-engine configuration.
        """
        if self.construct_outputs and self.store_documents is False:
            raise ValueError("construct_outputs=True requires store_documents=True")

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    @property
    def is_sharded(self) -> bool:
        """Whether this configuration selects the sharded runtime."""
        return self.shards > 1

    def resolve_store_documents(self) -> bool:
        """Resolve the ``store_documents=None`` default.

        One rule for the engines and both brokers: unless set explicitly,
        documents are stored exactly when output construction is on.
        """
        if self.store_documents is not None:
            return self.store_documents
        return self.construct_outputs

    def replace(self, **changes) -> "RuntimeConfig":
        """A copy of this config with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #
    # presets
    # ------------------------------------------------------------------ #
    @classmethod
    def throughput(cls, **overrides) -> "RuntimeConfig":
        """The throughput-measurement preset of the evaluation section.

        Sharded, thread-pooled ingestion with output construction and
        document storage off — the configuration of every events/second
        number in the benchmarks.  Any field can be overridden.
        """
        base: dict = dict(
            construct_outputs=False,
            store_documents=False,
            shards=4,
            executor="threads",
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def ablation(cls, **overrides) -> "RuntimeConfig":
        """The all-knobs-off ablation baseline.

        Unindexed join state, plan-per-call evaluation, full-state joins,
        visit-every-template dispatch and replicate-to-every-shard fan-out
        — the behavior of the seed system, kept for equivalence and
        ablation runs.
        """
        base: dict = dict(
            indexing="off",
            plan_cache=False,
            prune_dispatch=False,
            delta_join=False,
            columnar=False,
            route_dispatch=False,
            ingest="tree",
        )
        base.update(overrides)
        return cls(**base)


def config_or_default(config: Optional[RuntimeConfig], owner: str) -> RuntimeConfig:
    """``config``, or ``RuntimeConfig()`` for ``None``: the constructors' argument.

    Anything else — including an engine-name string, the removed shorthand
    — raises :class:`TypeError` naming ``owner``.
    """
    if config is None:
        return RuntimeConfig()
    if not isinstance(config, RuntimeConfig):
        raise TypeError(
            f"{owner} takes a RuntimeConfig or None, got {type(config).__name__} "
            f"{config!r}; set knobs as RuntimeConfig fields, e.g. RuntimeConfig(engine=...)"
        )
    return config


def metrics_enabled(config: "RuntimeConfig") -> bool:
    """Whether ``config`` asks for runtime metrics, honoring ``REPRO_METRICS``.

    Mirrors the ``REPRO_EXECUTOR`` / ``REPRO_STORAGE`` replay overrides:
    setting ``REPRO_METRICS=1`` (or ``true`` / ``on``) in the environment
    turns metrics on for every broker and engine without touching call
    sites, so existing suites and benchmarks replay with observability
    enabled.  Metrics never change match sets, so force-enabling is safe.
    """
    if config.metrics:
        return True
    return os.environ.get("REPRO_METRICS", "").strip().lower() in ("1", "true", "on")


def resolve_ingest(config: "RuntimeConfig") -> str:
    """The effective ingest mode, honoring the ``REPRO_INGEST`` override.

    Mirrors :func:`metrics_enabled`: setting ``REPRO_INGEST=stream`` (or
    ``tree``) in the environment overrides every config — including the
    ablation preset — so existing suites replay under either ingest path
    without touching call sites.  Ingest never changes match sets, so
    overriding in both directions is safe.
    """
    override = os.environ.get("REPRO_INGEST", "").strip().lower()
    if override:
        if override not in INGEST_MODES:
            raise ValueError(
                f"REPRO_INGEST={override!r} is not a valid ingest mode; "
                f"choose one of {INGEST_MODES}"
            )
        return override
    return config.ingest
