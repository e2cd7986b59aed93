"""Delivery sinks: the pluggable destinations behind Subscription.deliver."""

from __future__ import annotations

import pytest

from repro import (
    BatchingSink,
    CollectingSink,
    QueueSink,
    RuntimeConfig,
    open_broker,
)
from repro.pubsub import Subscription, SubscriptionResult
from repro.xscl.parser import parse_query
from tests.conftest import make_blog_article, make_book_announcement

CROSS = (
    "S//book->x1[.//author->x2] "
    "FOLLOWED BY{x2=x5, 100} "
    "S//blog->x4[.//author->x5]"
)


def _result(i: int) -> SubscriptionResult:
    return SubscriptionResult(subscription_id=f"s{i}")


# --------------------------------------------------------------------------- #
# the sink implementations
# --------------------------------------------------------------------------- #
def test_collecting_sink_bounds_retention_but_counts_everything():
    sink = CollectingSink(max_results=3)
    for i in range(10):
        sink.deliver(_result(i))
    assert sink.delivered == 10
    assert sink.dropped == 7
    assert [r.subscription_id for r in sink.results] == ["s7", "s8", "s9"]
    assert len(sink) == 3
    with pytest.raises(ValueError):
        CollectingSink(max_results=0)


def test_collecting_sink_unbounded():
    sink = CollectingSink()
    for i in range(100):
        sink.deliver(_result(i))
    assert sink.delivered == 100 and sink.dropped == 0 and len(sink) == 100


def test_queue_sink_drains_and_sheds_oldest_when_full():
    sink = QueueSink(maxsize=2)
    for i in range(4):
        sink.deliver(_result(i))
    assert sink.dropped == 2
    assert [r.subscription_id for r in sink.drain()] == ["s2", "s3"]
    assert sink.drain() == []


def test_batching_sink_batches_and_flushes():
    batches = []
    sink = BatchingSink(batches.append, batch_size=3)
    for i in range(7):
        sink.deliver(_result(i))
    assert [len(b) for b in batches] == [3, 3]
    assert sink.num_pending == 1
    sink.flush()
    assert [len(b) for b in batches] == [3, 3, 1]
    sink.flush()  # nothing pending: no empty batch
    assert len(batches) == 3
    with pytest.raises(ValueError):
        BatchingSink(batches.append, batch_size=0)


# --------------------------------------------------------------------------- #
# subscription wiring
# --------------------------------------------------------------------------- #
def test_subscription_routes_to_all_sinks():
    received = []
    extra = CollectingSink()
    sub = Subscription(
        "s1", parse_query("blog//entry->e"), callback=received.append, sink=extra
    )
    result = _result(1)
    sub.deliver(result)
    assert received == [result]
    assert extra.results == [result]
    assert sub.results == [result]
    sub.pause()
    sub.deliver(result)
    assert sub.num_results == 1 and extra.delivered == 1


def test_subscription_result_limit_caps_legacy_results():
    sub = Subscription("s1", parse_query("blog//entry->e"), result_limit=2)
    for i in range(5):
        sub.deliver(_result(i))
    assert sub.num_results == 5
    assert sub.num_results_dropped == 3
    assert [r.subscription_id for r in sub.results] == ["s3", "s4"]


def test_broker_result_limit_flows_from_config():
    with open_broker(RuntimeConfig(result_limit=2, construct_outputs=False)) as broker:
        sub = broker.subscribe(CROSS)
        for i in range(4):
            broker.publish(make_book_announcement(docid=f"bk{i}", timestamp=i * 10 + 1))
            broker.publish(make_blog_article(docid=f"bl{i}", timestamp=i * 10 + 2))
        # each blog joins every earlier book within the window: 1+2+3+4
        assert sub.num_results == 10
        assert len(sub.results) == 2


# --------------------------------------------------------------------------- #
# delivery consistency: the filter path and the join path are symmetric
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("shards", [1, 2])
def test_filter_and_join_paths_both_feed_sinks(shards):
    config = RuntimeConfig(construct_outputs=False, shards=shards)
    with open_broker(config) as broker:
        join_queue = QueueSink()
        filter_queue = QueueSink()
        join_batches: list = []
        broker.subscribe(CROSS, subscription_id="join", sink=join_queue)
        broker.subscribe(
            "S//blog->b[.//author->a]", subscription_id="filt", sink=filter_queue
        )
        batching = broker.subscribe(
            CROSS.replace("100", "200"),
            subscription_id="joinbatch",
            sink=BatchingSink(join_batches.append, batch_size=10),
        )
        broker.publish(make_book_announcement(docid="bk", timestamp=1.0))
        broker.publish(make_blog_article(docid="bl", timestamp=2.0))

        filter_results = filter_queue.drain()
        assert len(filter_results) == 1
        assert filter_results[0].document is not None

        join_results = join_queue.drain()
        assert len(join_results) == 1
        assert join_results[0].match is not None

        # partial batch is flushed on close/cancel, not lost
        assert join_batches == []
        batching.cancel()
        assert len(join_batches) == 1 and len(join_batches[0]) == 1
    # broker close flushes the remaining subscriptions' sinks (idempotent)


def test_broker_close_flushes_batching_sinks():
    batches: list = []
    broker = open_broker(RuntimeConfig(construct_outputs=False))
    broker.subscribe(CROSS, sink=BatchingSink(batches.append, batch_size=100))
    broker.publish(make_book_announcement(docid="bk", timestamp=1.0))
    broker.publish(make_blog_article(docid="bl", timestamp=2.0))
    assert batches == []
    broker.close()
    assert len(batches) == 1
    broker.close()  # idempotent
    assert len(batches) == 1


@pytest.mark.parametrize("shards", [1, 2])
def test_close_flushes_batching_sinks_on_both_brokers(shards):
    batches: list = []
    broker = open_broker(RuntimeConfig(construct_outputs=False, shards=shards))
    broker.subscribe(CROSS, sink=BatchingSink(batches.append, batch_size=100))
    broker.publish(make_book_announcement(docid="bk", timestamp=1.0))
    broker.publish(make_blog_article(docid="bl", timestamp=2.0))
    assert batches == []
    broker.close()
    assert len(batches) == 1 and len(batches[0]) == 1
    broker.close()  # idempotent


class _ExplodingSink:
    """A sink whose flush/close always raises."""

    def __init__(self):
        self.delivered = 0

    def deliver(self, result):
        self.delivered += 1

    def flush(self):
        raise RuntimeError("flush failed")

    def close(self):
        raise RuntimeError("close failed")


@pytest.mark.parametrize("shards", [1, 2])
def test_close_survives_a_raising_sink_and_reraises_first_error(shards):
    """A bad sink must not leak the other subscriptions' buffered results."""
    batches: list = []
    broker = open_broker(RuntimeConfig(construct_outputs=False, shards=shards))
    # Subscribe the exploding sink FIRST so its failure would previously
    # have aborted the close loop before the batching sink flushed.
    broker.subscribe(
        "S//blog->b[.//author->a]", subscription_id="bad", sink=_ExplodingSink()
    )
    broker.subscribe(
        CROSS, subscription_id="good", sink=BatchingSink(batches.append, batch_size=100)
    )
    broker.publish(make_book_announcement(docid="bk", timestamp=1.0))
    broker.publish(make_blog_article(docid="bl", timestamp=2.0))
    assert batches == []
    with pytest.raises(RuntimeError, match="close failed"):
        broker.close()
    # The healthy sink still flushed, and the broker is fully closed.
    assert len(batches) == 1 and len(batches[0]) == 1
    broker.close()  # idempotent: the failed sink is not retried


@pytest.mark.parametrize("shards", [1, 2])
def test_cancel_survives_a_raising_sink(shards):
    broker = open_broker(RuntimeConfig(construct_outputs=False, shards=shards))
    try:
        collecting = CollectingSink()
        broker.subscribe(
            "S//blog->b[.//author->a]",
            subscription_id="bad",
            sink=_ExplodingSink(),
        )
        broker.publish(make_blog_article(docid="bl", timestamp=1.0))
        with pytest.raises(RuntimeError, match="close failed"):
            broker.cancel("bad")
        # The broker stays usable after the failed cancel.
        broker.subscribe(
            "S//blog->b[.//author->a]", subscription_id="ok", sink=collecting
        )
        broker.publish(make_blog_article(docid="bl2", timestamp=2.0))
        assert len(collecting.results) == 1
    finally:
        broker.close()


# --------------------------------------------------------------------------- #
# fault isolation: a raising consumer cannot starve the others
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "shards, executor", [(1, "serial"), (2, "serial"), (2, "processes")]
)
def test_a_raising_callback_does_not_starve_other_subscribers(shards, executor):
    def explode(result):
        raise RuntimeError("subscriber bug")

    config = RuntimeConfig(construct_outputs=False, shards=shards, executor=executor)
    with open_broker(config) as broker:
        bad = broker.subscribe(CROSS, subscription_id="bad", callback=explode)
        good_sink = CollectingSink()
        broker.subscribe(CROSS, subscription_id="good", sink=good_sink)
        bad_filter = broker.subscribe(
            "S//blog->b[.//author->a]", subscription_id="bad-filter", callback=explode
        )
        for i in range(3):
            broker.publish(make_book_announcement(docid=f"bk{i}", timestamp=200.0 * i + 1))
            deliveries = broker.publish(
                make_blog_article(docid=f"bl{i}", timestamp=200.0 * i + 2)
            )
            assert {d.subscription_id for d in deliveries} >= {"bad", "good", "bad-filter"}
        assert len(good_sink.results) == 3
        # The failing subscriptions' other sinks (the bounded collector)
        # still received every result.
        assert bad.num_results == 3 and bad_filter.num_results == 3
        assert bad.delivery_failures == 3
        assert isinstance(bad.last_delivery_error, RuntimeError)
        failures = broker.stats()["delivery_failures"]
        assert failures == {"total": 6, "by_subscription": {"bad": 3, "bad-filter": 3}}
