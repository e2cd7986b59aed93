"""The session façade: one entry point, whatever the runtime topology.

:func:`open_broker` is the blessed way to start a publish/subscribe
session.  It takes a :class:`~repro.config.RuntimeConfig` (or field
overrides, or nothing) and returns a context-managed broker — the unsharded
:class:`~repro.pubsub.Broker` or the sharded
:class:`~repro.runtime.ShardedBroker`, depending on ``config.shards`` —
making the broker flavor an implementation detail:

.. code-block:: python

    import repro

    with repro.open_broker(repro.RuntimeConfig.throughput(shards=8)) as broker:
        sub = broker.subscribe("...", sink=repro.QueueSink())
        broker.publish_many(documents)
        sub.cancel()          # true retraction: engine state shrinks
"""

from __future__ import annotations

from typing import Optional, Union

from repro.config import RuntimeConfig

__all__ = ["open_broker"]


def open_broker(
    config: Union[RuntimeConfig, str, None] = None,
    resume_from: Optional[str] = None,
    **overrides,
):
    """Open a publish/subscribe session for ``config``.

    ``config`` may be a :class:`~repro.config.RuntimeConfig`, an engine
    name string (shorthand for ``RuntimeConfig(engine=...)``), or ``None``
    for the defaults.  Keyword ``overrides`` are :class:`RuntimeConfig`
    field names applied on top via :meth:`RuntimeConfig.replace` (so they
    validate like the config itself) — ``open_broker(shards=4)`` is the
    concise spelling of ``open_broker(RuntimeConfig(shards=4))``.

    ``resume_from`` recovers a crashed/closed session from the SQLite
    stores under the given directory (a previous session's
    ``storage_path``): the subscription registry is replayed, join state,
    documents, variable catalog and counters are restored, and the
    returned broker is match-equivalent on future documents to one that
    never restarted (see :mod:`repro.storage.recovery`).  With ``config``
    ``None`` the crashed session's persisted config is reused; delivery
    callbacks and sinks are process-local and must be re-attached via
    ``broker.subscription(sid)``.

    Returns a :class:`repro.pubsub.Broker` for ``shards == 1`` and a
    :class:`repro.runtime.ShardedBroker` otherwise; both support the
    context-manager protocol (``close()`` flushes every subscription's
    delivery sinks, flushes and closes the state stores, and shuts down
    any shard executor).
    """
    if resume_from is not None:
        from repro.storage.recovery import resume_broker

        return resume_broker(config, resume_from, overrides)
    if config is None:
        config = RuntimeConfig()
    elif isinstance(config, str):
        config = RuntimeConfig(engine=config)
    elif not isinstance(config, RuntimeConfig):
        raise TypeError(
            f"open_broker expects a RuntimeConfig or an engine name, "
            f"got {type(config).__name__}"
        )
    if overrides:
        config = config.replace(**overrides)
    if config.shards > 1:
        from repro.runtime.sharded_broker import ShardedBroker

        return ShardedBroker(config)
    from repro.pubsub.broker import Broker

    return Broker(config)
