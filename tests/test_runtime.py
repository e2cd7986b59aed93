"""Tests for the sharded parallel runtime (`repro.runtime`).

The central property mirrors the engine-equivalence suite: partitioning the
subscription workload across shards — any shard count, any partitioner, any
executor — must not change the match set produced for a document stream.
"""

from __future__ import annotations

import pytest

from repro.config import RuntimeConfig
from repro.session import open_broker
from repro.core import EngineStats, CostBreakdown, SequentialEngine, merge_engine_stats
from repro.pubsub import Broker
from repro.runtime import (
    EngineShard,
    HashTemplatePartitioner,
    LeastLoadedPartitioner,
    SerialExecutor,
    ShardedBroker,
    ThreadedExecutor,
    make_executor,
    make_partitioner,
    template_key,
)
from repro.workloads.querygen import QueryWorkloadConfig, generate_queries
from repro.workloads.rss import RssStreamConfig, generate_rss_queries, generate_rss_stream
from repro.xmlmodel.schema import two_level_schema
from repro.xscl import parse_query
from tests.conftest import make_blog_article, PAPER_Q1, PAPER_WINDOWS

CROSS_POST = (
    "S//blog->b[.//author->a][.//title->t] "
    "FOLLOWED BY{a=a AND t=t, 10} "
    "S//blog->b[.//author->a][.//title->t]"
)


# --------------------------------------------------------------------------- #
# workloads shared by the equivalence tests
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def rss_workload():
    queries = generate_rss_queries(60, seed=5)
    documents = list(
        generate_rss_stream(
            RssStreamConfig(num_items=40, num_channels=4, title_pool_size=12)
        )
    )
    return queries, documents


@pytest.fixture(scope="module")
def synthetic_workload():
    schema = two_level_schema(4)
    queries = generate_queries(
        QueryWorkloadConfig(schema=schema, num_queries=40, zipf_theta=0.8, window=6.0, seed=3)
    )
    from tests.test_engine_equivalence import _random_documents

    return queries, lambda: _random_documents(schema, 10, 3, seed=3)


def _broker_match_keys(broker, queries, documents):
    for i, query in enumerate(queries):
        broker.subscribe(query, subscription_id=f"q{i}")
    deliveries = broker.publish_many(list(documents))
    return sorted(r.match.key() for r in deliveries if r.match is not None)


# --------------------------------------------------------------------------- #
# partitioners
# --------------------------------------------------------------------------- #
def test_template_key_invariant_under_variable_renaming():
    a = parse_query(
        "S//item->i[.//title->t] FOLLOWED BY{t=t, 5} S//item->i[.//title->t]"
    )
    b = parse_query(
        "S//item->x[.//title->y] FOLLOWED BY{y=y, 5} S//item->x[.//title->y]"
    )
    assert template_key(a) == template_key(b)


@pytest.mark.parametrize("strategy", ["hash", "least-loaded"])
def test_partitioners_keep_templates_together(strategy, rss_workload):
    queries, _ = rss_workload
    partitioner = make_partitioner(strategy, 4)
    by_key: dict[tuple, set[int]] = {}
    for query in queries:
        shard = partitioner.shard_for(query)
        by_key.setdefault(template_key(query), set()).add(shard)
    assert by_key  # the workload produced join queries
    for shards in by_key.values():
        assert len(shards) == 1  # template cohesion
    assert sum(partitioner.loads) == len(queries)
    assert partitioner.num_template_keys == len(by_key)


def test_hash_partitioner_is_deterministic(rss_workload):
    queries, _ = rss_workload
    a = HashTemplatePartitioner(4)
    b = HashTemplatePartitioner(4)
    assert [a.shard_for(q) for q in queries] == [b.shard_for(q) for q in queries]


def test_least_loaded_partitioner_balances():
    partitioner = LeastLoadedPartitioner(3)
    # Three structurally different RSS queries -> three distinct templates.
    texts = [
        "S//item->i[.//title->t] FOLLOWED BY{t=t, 5} S//item->i[.//title->t]",
        "S//item->i[.//title->t][.//channel_url->c] FOLLOWED BY{t=t AND c=c, 5} "
        "S//item->i[.//title->t][.//channel_url->c]",
        "S//item->i[.//title->t][.//channel_url->c][.//description->d] "
        "FOLLOWED BY{t=t AND c=c AND d=d, 5} "
        "S//item->i[.//title->t][.//channel_url->c][.//description->d]",
    ]
    shards = [partitioner.shard_for(parse_query(t)) for t in texts]
    assert sorted(shards) == [0, 1, 2]  # one new template per empty shard
    assert partitioner.loads == [1, 1, 1]


def test_make_partitioner_validation():
    with pytest.raises(ValueError):
        make_partitioner("round-robin", 2)
    with pytest.raises(ValueError):
        make_partitioner(HashTemplatePartitioner(2), 4)  # shard-count mismatch
    inst = LeastLoadedPartitioner(2)
    assert make_partitioner(inst, 2) is inst


# --------------------------------------------------------------------------- #
# executors
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("spec", ["serial", "threads", "processes"])
def test_executors_preserve_order(spec):
    # ProcessExecutor.map is its in-parent fallback path (worker processes
    # only serve the invoke() shard-call plane), so the lambda is fine here.
    with make_executor(spec) as executor:
        assert executor.map(lambda x: x * x, list(range(8))) == [x * x for x in range(8)]


def test_threaded_executor_propagates_exceptions():
    def boom(x):
        raise RuntimeError(f"task {x}")

    with ThreadedExecutor(max_workers=2) as executor:
        with pytest.raises(RuntimeError):
            executor.map(boom, [1, 2])


def test_make_executor_validation():
    with pytest.raises(ValueError):
        make_executor("fibers")
    inst = SerialExecutor()
    assert make_executor(inst) is inst


# --------------------------------------------------------------------------- #
# result equivalence: sharded vs. unsharded, on the RSS workload
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def rss_baseline(rss_workload):
    queries, documents = rss_workload
    keys = _broker_match_keys(
        Broker(RuntimeConfig(engine="mmqjp", construct_outputs=False)), queries, documents
    )
    assert keys  # the workload is dense enough that something matches
    return keys


@pytest.mark.parametrize("executor", ["serial", "threads"])
@pytest.mark.parametrize("partitioner", ["hash", "least-loaded"])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_equivalence_on_rss(shards, partitioner, executor, rss_workload, rss_baseline):
    queries, documents = rss_workload
    with ShardedBroker(RuntimeConfig(
        engine="mmqjp",
        construct_outputs=False,
        shards=shards,
        partitioner=partitioner,
        executor=executor,
    )) as broker:
        keys = _broker_match_keys(broker, queries, documents)
    assert keys == rss_baseline


def test_sharded_equivalence_vs_sequential_on_rss(rss_workload, rss_baseline):
    queries, documents = rss_workload
    engine = SequentialEngine(RuntimeConfig(store_documents=False, auto_timestamp=False))
    for i, query in enumerate(queries):
        engine.register_query(query, qid=f"q{i}")
    keys = sorted(
        m.key() for document in documents for m in engine.process_document(document)
    )
    assert keys == rss_baseline


# --------------------------------------------------------------------------- #
# result equivalence on the synthetic workload (finite windows -> pruning on)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", ["mmqjp", "sequential"])
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_equivalence_on_synthetic(shards, engine, synthetic_workload):
    queries, make_documents = synthetic_workload
    baseline = _broker_match_keys(
        Broker(RuntimeConfig(engine=engine, construct_outputs=False)), queries, make_documents()
    )
    with ShardedBroker(RuntimeConfig(
        engine=engine, construct_outputs=False, shards=shards, executor="threads",
    )) as broker:
        keys = _broker_match_keys(broker, queries, make_documents())
    assert keys == baseline
    assert keys


def test_publish_many_equals_publish_loop(rss_workload):
    queries, documents = rss_workload
    batched = ShardedBroker(RuntimeConfig(engine="mmqjp", construct_outputs=False, shards=3))
    looped = ShardedBroker(RuntimeConfig(engine="mmqjp", construct_outputs=False, shards=3))
    for i, query in enumerate(queries):
        batched.subscribe(query, subscription_id=f"q{i}")
        looped.subscribe(query, subscription_id=f"q{i}")
    many = [r.match.key() for r in batched.publish_many(documents)]
    one_by_one = [r.match.key() for d in documents for r in looped.publish(d)]
    assert many == one_by_one


# --------------------------------------------------------------------------- #
# broker behaviour: escape hatch, outputs, filters, timestamps
# --------------------------------------------------------------------------- #
def test_broker_shards_escape_hatch():
    # open_broker is the router: shards > 1 selects the sharded runtime.
    config = RuntimeConfig(engine="mmqjp", shards=3, executor="serial")
    with open_broker(config) as broker:
        assert isinstance(broker, ShardedBroker)
        assert broker.num_shards == 3
        assert broker.engine_name == "mmqjp"
    # shards=1 (or omitted) is a plain Broker
    assert isinstance(Broker(RuntimeConfig(shards=1)), Broker)
    assert isinstance(Broker(), Broker)
    with pytest.raises(ValueError):
        Broker(RuntimeConfig(shards=0))

    # Broker itself (and any subclass) fails loudly rather than silently
    # dropping shards=N onto a single engine.
    class MyBroker(Broker):
        pass

    with pytest.raises(ValueError, match="open_broker"):
        Broker(config)
    with pytest.raises(ValueError):
        MyBroker(RuntimeConfig(shards=4))


def test_sharded_broker_constructs_outputs():
    with ShardedBroker(RuntimeConfig(shards=2)) as broker:
        broker.subscribe(PAPER_Q1, window_symbols=PAPER_WINDOWS, subscription_id="q1")
        from tests.conftest import make_book_announcement

        assert broker.publish(make_book_announcement()) == []
        deliveries = broker.publish(make_blog_article())
        assert len(deliveries) == 1
        assert deliveries[0].output is not None
        assert deliveries[0].output.root.tag == "result"


def test_sharded_broker_filter_subscriptions():
    with ShardedBroker(RuntimeConfig(shards=2)) as broker:
        hits = []
        broker.subscribe("S//blog->b[.//author->a]", callback=hits.append)
        broker.subscribe(CROSS_POST, subscription_id="join")
        broker.publish(make_blog_article(docid="b1", timestamp=1.0))
        assert len(hits) == 1
        assert broker.shard_of("join") is not None
        assert broker.shard_of(hits[0].subscription_id) is None


def test_sharded_broker_unsubscribe_and_lookup():
    with ShardedBroker(RuntimeConfig(shards=2)) as broker:
        sub = broker.subscribe(CROSS_POST)
        assert broker.subscription(sub.subscription_id) is sub
        assert broker.subscriptions == [sub]
        broker.publish(make_blog_article(docid="b1", timestamp=1.0))
        broker.unsubscribe(sub.subscription_id)
        broker.publish(make_blog_article(docid="b2", timestamp=2.0))
        assert sub.num_results == 0
        with pytest.raises(ValueError):
            broker.subscribe(CROSS_POST, subscription_id=sub.subscription_id)


def test_sharded_broker_central_auto_timestamping():
    with ShardedBroker(RuntimeConfig(shards=2)) as broker:
        broker.subscribe(CROSS_POST)
        broker.publish("<blog><author>A</author><title>T</title></blog>")
        deliveries = broker.publish("<blog><author>A</author><title>T</title></blog>")
        assert len(deliveries) == 1
        match = deliveries[0].match
        assert (match.lhs_timestamp, match.rhs_timestamp) == (1.0, 2.0)


def test_sharded_broker_validation():
    with pytest.raises(ValueError):
        ShardedBroker(RuntimeConfig(shards=0))
    with pytest.raises(ValueError):
        ShardedBroker(RuntimeConfig(construct_outputs=True, store_documents=False, shards=2))
    with pytest.raises(ValueError):
        ShardedBroker(RuntimeConfig(engine="turbo", shards=2))


# --------------------------------------------------------------------------- #
# pruning (satellite: window-based pruning on the publish path, opt-out)
# --------------------------------------------------------------------------- #
def _publish_windowed_stream(broker, n=30):
    broker.subscribe(CROSS_POST)  # window 10
    for i in range(n):
        broker.publish(make_blog_article(docid=f"b{i}", timestamp=float(i + 1)))


def test_broker_auto_prunes_finite_window_state():
    broker = Broker(RuntimeConfig(engine="mmqjp", construct_outputs=False))
    _publish_windowed_stream(broker)
    # Horizon is 10 time units; the state must not retain all 30 documents.
    assert broker.stats()["engine_stats"]["state_documents"] <= 12


def test_broker_auto_prune_opt_out_and_manual_prune():
    broker = Broker(RuntimeConfig(engine="mmqjp", construct_outputs=False, auto_prune=False))
    _publish_windowed_stream(broker)
    assert broker.stats()["engine_stats"]["state_documents"] == 30
    removed = broker.prune(min_timestamp=21.0)
    assert removed == 20
    assert broker.stats()["engine_stats"]["state_documents"] == 10


def test_sharded_broker_prunes_like_unsharded():
    with ShardedBroker(RuntimeConfig(engine="mmqjp", construct_outputs=False, shards=2)) as broker:
        _publish_windowed_stream(broker)
        merged = broker.merged_engine_stats()
        assert merged.state_documents <= 12

    with ShardedBroker(RuntimeConfig(
        engine="mmqjp", construct_outputs=False, shards=2, auto_prune=False,
    )) as broker:
        _publish_windowed_stream(broker)
        assert broker.merged_engine_stats().state_documents == 30
        assert broker.prune(min_timestamp=21.0) > 0
        assert broker.merged_engine_stats().state_documents == 10


# --------------------------------------------------------------------------- #
# stats aggregation (satellite)
# --------------------------------------------------------------------------- #
def test_merge_engine_stats():
    a = EngineStats(2, 1, 10, 4, 10, {"conjunctive_query": 1.0})
    b = EngineStats(3, 2, 10, 6, 8, {"conjunctive_query": 2.5, "rvj": 0.5})
    merged = merge_engine_stats([a, b])
    assert merged.num_queries == 5
    assert merged.num_templates == 3
    assert merged.num_documents_processed == 10  # fan-out: max, not sum
    assert merged.num_matches == 10
    assert merged.state_documents == 10
    assert merged.costs == {"conjunctive_query": 3.5, "rvj": 0.5}
    empty = merge_engine_stats([])
    assert empty.num_queries == 0 and empty.num_templates is None


def test_cost_breakdown_combined():
    a = CostBreakdown({"x": 1.0})
    b = CostBreakdown({"x": 0.5, "y": 2.0})
    combined = CostBreakdown.combined([a, b])
    assert combined.seconds == {"x": 1.5, "y": 2.0}
    assert a.seconds == {"x": 1.0}  # inputs untouched


def test_sharded_broker_stats_shape(rss_workload):
    queries, documents = rss_workload
    with ShardedBroker(RuntimeConfig(engine="mmqjp", construct_outputs=False, shards=4)) as broker:
        for i, query in enumerate(queries):
            broker.subscribe(query, subscription_id=f"q{i}")
        broker.publish_many(documents)
        stats = broker.stats()
    assert stats["shards"] == 4
    assert stats["streams"] == {"S": len(documents)}
    assert stats["num_documents_published"] == len(documents)
    assert stats["num_subscriptions"] == len(queries)
    assert len(stats["per_shard"]) == 4
    assert sum(s["num_queries"] for s in stats["per_shard"]) == len(queries)
    # Every shard with subscriptions saw every document (empty shards skip).
    assert all(
        s["num_documents_processed"] == len(documents)
        for s in stats["per_shard"]
        if s["num_queries"]
    )
    merged = stats["engine_stats"]
    assert merged["num_queries"] == len(queries)
    assert merged["num_matches"] == sum(s["num_matches"] for s in stats["per_shard"])
    assert stats["partition"]["partitioner"] == "hash"
    assert sum(stats["partition"]["loads"]) == len(queries)


def test_engine_shard_repr_and_counts():
    from repro.core import MMQJPEngine

    shard = EngineShard(1, MMQJPEngine(RuntimeConfig(store_documents=False)))
    shard.register("q0", parse_query(CROSS_POST))
    assert shard.num_queries == 1
    assert "queries=1" in repr(shard)
