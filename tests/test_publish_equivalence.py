"""publish_stream vs publish_many: same matches, same delivery order.

The two ingestion paths (one-document-at-a-time vs batched with the
columnar wire format) must be observationally identical — including while
subscriptions churn between publish calls, which exercises template
retirement, RT retraction and resubscription against warm join state.
The one-shard :class:`~repro.runtime.ShardedBroker` must also reproduce
the unsharded :class:`~repro.pubsub.Broker`'s delivery log exactly.
"""

from __future__ import annotations

import random

import pytest

from repro import RuntimeConfig, open_broker
from repro.runtime import ShardedBroker
from repro.workloads.dblp import (
    DblpWorkloadConfig,
    generate_dblp_stream,
    generate_dblp_subscriptions,
)

CONFIG = DblpWorkloadConfig(num_venues=3, num_authors=10, title_pool_size=5, seed=3)
NUM_SUBSCRIPTIONS = 18
NUM_DOCS_PER_PHASE = 12
CHURN_ROUNDS = 3


def _workload():
    queries = list(generate_dblp_subscriptions(NUM_SUBSCRIPTIONS * 2, CONFIG, seed=31))
    documents = list(
        generate_dblp_stream(CONFIG, NUM_DOCS_PER_PHASE * (CHURN_ROUNDS + 1), seed=32)
    )
    return queries, documents


def _run(engine: str, shards: int, batched: bool, factory=open_broker):
    """Publish with churn between phases; return the ordered delivery log.

    ``factory`` builds the broker from its config (``open_broker`` routes
    on ``shards``; ``ShardedBroker`` forces the sharded front end).
    """
    queries, documents = _workload()
    rng = random.Random(41)
    log: list = []

    def publish_phase(broker, docs):
        deliveries = broker.publish_many(docs) if batched else broker.publish_stream(docs)
        for delivery in deliveries:
            if delivery.match is not None:
                log.append((delivery.subscription_id, delivery.match.key()))

    with factory(
        RuntimeConfig(engine=engine, shards=shards, construct_outputs=False)
    ) as broker:
        live = []
        fresh = iter(queries)
        for _ in range(NUM_SUBSCRIPTIONS):
            sid = f"s{len(live)}"
            broker.subscribe(next(fresh), subscription_id=sid)
            live.append(sid)
        next_sid = NUM_SUBSCRIPTIONS
        position = 0
        for _ in range(CHURN_ROUNDS):
            publish_phase(broker, documents[position : position + NUM_DOCS_PER_PHASE])
            position += NUM_DOCS_PER_PHASE
            # Cancel a few random live subscriptions and subscribe fresh
            # ones — same rng seed on both paths, so the churn schedule is
            # identical.
            for _ in range(4):
                victim = live.pop(rng.randrange(len(live)))
                assert broker.cancel(victim)
                sid = f"s{next_sid}"
                next_sid += 1
                broker.subscribe(next(fresh), subscription_id=sid)
                live.append(sid)
        publish_phase(broker, documents[position : position + NUM_DOCS_PER_PHASE])
    return log


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("engine", ["mmqjp", "sequential"])
def test_stream_and_batch_publish_agree_under_churn(engine, shards):
    streamed = _run(engine, shards, batched=False)
    batched = _run(engine, shards, batched=True)
    assert streamed, "workload produced no matches — test is vacuous"
    assert set(streamed) == set(batched)
    assert streamed == batched, "delivery order diverged between paths"


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("engine", ["mmqjp", "sequential"])
def test_one_shard_sharded_broker_matches_broker_under_churn(engine, batched):
    unsharded = _run(engine, 1, batched)
    one_shard = _run(engine, 1, batched, factory=ShardedBroker)
    assert unsharded, "workload produced no matches — test is vacuous"
    assert one_shard == unsharded
