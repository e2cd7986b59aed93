"""The publish/subscribe layer: streams, subscriptions, and the broker.

This is the user-facing face of the system: publishers push XML documents
into named streams, subscribers register XSCL queries (simple single-block
filters or inter-document join queries) and receive matches through
callbacks.  Subscriptions, delivery, stats and the session lifecycle live
once, in :class:`repro.pubsub.broker.BrokerFrontEnd`; :class:`Broker`
builds on it with one Stage 2 engine
(:class:`~repro.core.engine.MMQJPEngine` by default), and
:class:`repro.runtime.ShardedBroker` — what :func:`repro.open_broker`
returns for ``shards=N`` (N > 1) — builds on it with N engine shards.
"""

from repro.pubsub.subscription import DEFAULT_RESULT_LIMIT, Subscription, SubscriptionResult
from repro.pubsub.sinks import (
    BatchingSink,
    CallbackSink,
    CollectingSink,
    DeliverySink,
    QueueSink,
)
from repro.pubsub.stream import Stream, StreamRegistry
from repro.pubsub.filters import FilterFrontEnd
from repro.pubsub.broker import Broker

__all__ = [
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
]
