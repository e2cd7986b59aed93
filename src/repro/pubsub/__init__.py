"""The publish/subscribe layer: streams, subscriptions, and the broker.

This is the user-facing face of the system: publishers push XML documents
into named streams, subscribers register XSCL queries (simple single-block
filters or inter-document join queries) and receive matches through
callbacks.  Internally the broker delegates join queries to one of the Stage
2 engines (:class:`~repro.core.engine.MMQJPEngine` by default).
:func:`repro.open_broker` with ``shards=N`` (N > 1) returns a
:class:`repro.runtime.ShardedBroker` running N engine shards in parallel
instead.
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
