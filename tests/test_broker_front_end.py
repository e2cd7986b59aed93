"""The one broker front end shared by ``Broker`` and ``ShardedBroker``.

Both brokers inherit subscription handling, delivery, ``publish_stream``,
``stats()`` and the session lifecycle from
:class:`repro.pubsub.broker.BrokerFrontEnd`; these tests pin the
observable contract that sharing guarantees on every topology.
"""

from __future__ import annotations

import pytest

from repro import RuntimeConfig
from repro.pubsub.broker import Broker, BrokerFrontEnd
from repro.runtime import ShardedBroker
from repro.xmlmodel.parser import parse_document

JOIN = "S//blog->b[.//author->a] FOLLOWED BY{a=a, 100} S//blog->b[.//author->a]"
FILTER = "S//blog->b[.//author->a]"
DOC = "<blog><author>A</author><title>T</title></blog>"

BROKERS = {
    "broker": lambda: Broker(RuntimeConfig(construct_outputs=False)),
    "sharded-1": lambda: ShardedBroker(RuntimeConfig(shards=1, construct_outputs=False)),
    "sharded-2": lambda: ShardedBroker(RuntimeConfig(shards=2, construct_outputs=False)),
    "processes-2": lambda: ShardedBroker(
        RuntimeConfig(shards=2, executor="processes", construct_outputs=False)
    ),
}


def _late_subscription_results(make, publish):
    """Subscribe a join query from a filter callback, then publish 4 docs.

    Returns the match keys the late subscription received.
    """
    with make() as broker:
        late = []

        def on_filter(_result):
            if not late:
                late.append(broker.subscribe(JOIN, subscription_id="late"))

        broker.subscribe(FILTER, callback=on_filter)
        publish(broker, [parse_document(DOC, docid=f"d{i}") for i in range(4)])
        return [result.match.key() for result in late[0].results]


@pytest.mark.parametrize("name", list(BROKERS))
def test_publish_stream_matches_a_publish_loop(name):
    def loop(broker, docs):
        for doc in docs:
            broker.publish(doc)

    def stream(broker, docs):
        broker.publish_stream(iter(docs))

    looped = _late_subscription_results(BROKERS[name], loop)
    streamed = _late_subscription_results(BROKERS[name], stream)
    # The late query joins the three documents published after it with
    # their predecessors, never the document whose callback created it.
    assert len(looped) == 3
    assert streamed == looped


@pytest.mark.parametrize("name", ["broker", "sharded-1", "sharded-2"])
def test_join_runs_before_callbacks_and_filters_fire_first(name):
    with BROKERS[name]() as broker:
        order = []
        late = []

        def on_filter(_result):
            order.append("filter")
            if not late:
                late.append(
                    broker.subscribe(
                        JOIN,
                        subscription_id="late",
                        callback=lambda _result: order.append("join"),
                    )
                )

        broker.subscribe(FILTER, callback=on_filter)
        broker.publish(DOC)
        broker.publish(DOC)
        # Subscribed from a callback of the first document: the engine had
        # already processed it, so it never enters the late query's state
        # and the second document has nothing to join with.
        assert late[0].results == []
        order.clear()
        broker.publish(DOC)
        assert len(late[0].results) == 1
        assert order == ["filter", "join"]


BROKER_STATS_KEYS = {
    "engine",
    "indexing",
    "storage",
    "streams",
    "num_subscriptions",
    "num_filter_subscriptions",
    "num_cancelled_subscriptions",
    "delivery_failures",
    "num_documents_published",
    "engine_stats",
    "metrics",
}
SHARDED_STATS_KEYS = BROKER_STATS_KEYS | {
    "shards",
    "executor",
    "workers",
    "routing",
    "transport",
    "per_shard",
    "partition",
}


@pytest.mark.parametrize(
    "name, keys",
    [
        ("broker", BROKER_STATS_KEYS),
        ("sharded-1", SHARDED_STATS_KEYS),
        ("sharded-2", SHARDED_STATS_KEYS),
    ],
)
def test_stats_keys_are_kept(name, keys):
    with BROKERS[name]() as broker:
        broker.subscribe(JOIN)
        broker.subscribe(FILTER)
        broker.publish(DOC)
        broker.publish(DOC)
        stats = broker.stats()
        assert set(stats) == keys
        assert stats["num_documents_published"] == 2
        assert stats["num_subscriptions"] == 2
        assert stats["num_filter_subscriptions"] == 1
        assert stats["engine_stats"]["num_matches"] == 1


#: The subscriber-facing methods both brokers take from the front end.
SHARED_METHODS = [
    "subscribe", "_next_sid", "_persist_subscription", "_restore_subscription",
    "cancel", "unsubscribe", "mute", "subscription", "subscriptions",
    "_deliver_matches", "_record_filter_lag", "publish_stream", "stats",
    "metrics_snapshot", "close", "__enter__", "__exit__",
]


@pytest.mark.parametrize("method", SHARED_METHODS)
def test_front_end_methods_are_written_once(method):
    assert method in vars(BrokerFrontEnd)
    for cls in (Broker, ShardedBroker):
        assert method not in vars(cls), f"{cls.__name__} redefines {method}"
