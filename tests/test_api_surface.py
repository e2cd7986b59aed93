"""API-surface snapshot: the curated public symbol inventory.

Guards the session-API redesign's contract: additions to the public surface
are deliberate (update the snapshot in the same PR), removals and renames
never happen by accident.  Every symbol in ``__all__`` must also resolve.
"""

from __future__ import annotations

import dataclasses
import inspect
import os

import pytest

import repro
import repro.config
import repro.core
import repro.pubsub
import repro.runtime

REPRO_ALL = {
    # session API
    "RuntimeConfig",
    "open_broker",
    "ENGINES",
    # brokers and subscriptions
    "Broker",
    "ShardedBroker",
    "Subscription",
    "SubscriptionResult",
    # delivery sinks
    "DeliverySink",
    "CallbackSink",
    "CollectingSink",
    "QueueSink",
    "BatchingSink",
    # durable storage
    "StateStore",
    "MemoryStore",
    "SQLiteStore",
    "RecoveryError",
    # observability and stress
    "MetricsRegistry",
    "StressConfig",
    "run_stress",
    # engines and matches
    "MMQJPEngine",
    "SequentialEngine",
    "Match",
    # documents and queries
    "XmlDocument",
    "element",
    "parse_document",
    "to_xml",
    "parse_query",
    "XsclQuery",
    "__version__",
}

PUBSUB_ALL = {
    "Subscription",
    "SubscriptionResult",
    "DEFAULT_RESULT_LIMIT",
    "DeliverySink",
    "CallbackSink",
    "CollectingSink",
    "QueueSink",
    "BatchingSink",
    "Stream",
    "StreamRegistry",
    "FilterFrontEnd",
    "Broker",
}

RUNTIME_ALL = {
    "ShardedBroker",
    "EngineShard",
    "Partitioner",
    "HashTemplatePartitioner",
    "LeastLoadedPartitioner",
    "PARTITIONERS",
    "make_partitioner",
    "template_key",
    "ShardExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "EXECUTORS",
    "make_executor",
    "executor_env_override",
    "ProcessShardHandle",
    "ShardWorkerGroup",
    "ShardWorkerError",
    "ShardRouter",
}

CORE_ALL = {
    "CostBreakdown",
    "ENGINES",
    "EngineStats",
    "make_engine",
    "merge_engine_stats",
    "JoinState",
    "WitnessRelations",
    "Match",
    "ViewCache",
    "MaterializedViews",
    "compute_materialized_views",
    "MMQJPJoinProcessor",
    "SequentialJoinProcessor",
    "RelevanceIndex",
    "MMQJPEngine",
    "SequentialEngine",
}

CONFIG_ALL = {
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
}


@pytest.mark.parametrize(
    "module, expected",
    [
        (repro, REPRO_ALL),
        (repro.pubsub, PUBSUB_ALL),
        (repro.runtime, RUNTIME_ALL),
        (repro.core, set(CORE_ALL)),
        (repro.config, CONFIG_ALL),
    ],
    ids=["repro", "repro.pubsub", "repro.runtime", "repro.core", "repro.config"],
)
def test_public_symbol_inventory(module, expected):
    actual = set(module.__all__)
    missing = expected - actual
    unexpected = actual - expected
    assert not missing and not unexpected, (
        f"{module.__name__}.__all__ drifted: missing={sorted(missing)} "
        f"unexpected={sorted(unexpected)} — if intentional, update this snapshot"
    )


@pytest.mark.parametrize(
    "module",
    [repro, repro.pubsub, repro.runtime, repro.core, repro.config],
    ids=["repro", "repro.pubsub", "repro.runtime", "repro.core", "repro.config"],
)
def test_every_public_symbol_resolves(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.{name} does not resolve"


def test_py_typed_marker_ships():
    marker = os.path.join(os.path.dirname(repro.__file__), "py.typed")
    assert os.path.exists(marker), "the py.typed marker must ship with the package"


def test_subscription_lifecycle_surface():
    """The Subscription handle exposes the full lifecycle contract."""
    for method in ("pause", "resume", "cancel", "deliver", "attach_sink", "flush"):
        assert callable(getattr(repro.Subscription, method, None)), method


def test_broker_session_surface():
    """Both broker flavors honor the session contract behind open_broker."""
    for cls in (repro.Broker, repro.ShardedBroker):
        for method in ("subscribe", "cancel", "unsubscribe", "mute", "subscription",
                       "publish", "publish_many", "publish_stream", "prune", "stats",
                       "close", "__enter__", "__exit__"):
            assert callable(getattr(cls, method, None)), f"{cls.__name__}.{method}"
        assert isinstance(getattr(cls, "subscriptions", None), property)


#: Every constructor and factory from the brokers down to the join
#: processors: a RuntimeConfig is the only way to set a knob on them.
CONFIGURED_CALLABLES = [
    repro.Broker,
    repro.ShardedBroker,
    repro.core.make_engine,
    repro.MMQJPEngine,
    repro.SequentialEngine,
    repro.core.MMQJPJoinProcessor,
    repro.core.SequentialJoinProcessor,
]


@pytest.mark.parametrize(
    "target", CONFIGURED_CALLABLES, ids=[t.__name__ for t in CONFIGURED_CALLABLES]
)
def test_no_constructor_accepts_keyword_knobs(target):
    function = target.__init__ if inspect.isclass(target) else target
    params = inspect.signature(function).parameters
    assert "config" in params
    kinds = {p.kind for p in params.values()}
    assert inspect.Parameter.VAR_KEYWORD not in kinds, f"{target.__name__} takes **kwargs"
    assert inspect.Parameter.VAR_POSITIONAL not in kinds, f"{target.__name__} takes *args"
    knobs = {f.name for f in dataclasses.fields(repro.RuntimeConfig)}
    assert not knobs & (set(params) - {"config"}), f"{target.__name__} takes a knob"
    if inspect.isclass(target):
        assert target.__new__ is object.__new__, f"{target.__name__} overrides __new__"


def test_legacy_config_shim_is_gone():
    assert "coerce_config" not in repro.config.__all__
    assert not hasattr(repro.config, "coerce_config")
