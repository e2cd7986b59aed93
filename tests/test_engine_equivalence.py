"""Cross-engine equivalence: MMQJP (all variants) must agree with Sequential.

This is the central correctness property of the paper — evaluating all
queries of a template at once through the shared conjunctive query must
produce exactly the same results as evaluating every query separately.  We
check it on randomly generated workloads and document streams.
"""

from __future__ import annotations

import random

import pytest

from repro.config import RuntimeConfig
from repro.core import MMQJPEngine, SequentialEngine
from repro.workloads.querygen import QueryWorkloadConfig, generate_queries
from repro.workloads.rss import RssStreamConfig, generate_rss_queries, generate_rss_stream
from repro.workloads.synthetic import build_document
from repro.xmlmodel.schema import three_level_schema, two_level_schema


def _random_documents(schema, num_docs: int, value_pool: int, seed: int):
    """Documents with leaf values drawn from a small pool so joins fire."""
    rng = random.Random(seed)
    docs = []
    for i in range(num_docs):
        values = [f"val{rng.randrange(value_pool)}" for _ in range(schema.num_leaves)]
        docs.append(
            build_document(schema, docid=f"doc{i}", timestamp=float(i + 1), leaf_values=values)
        )
    return docs


def _match_keys(engine, queries, documents):
    for i, query in enumerate(queries):
        engine.register_query(query, qid=f"q{i}")
    keys = set()
    for document in documents:
        # Documents are re-built per engine because node objects are mutated
        # (ids) when attached to a document; values identical.
        keys.update(m.key() for m in engine.process_document(document))
    return keys


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_equivalence_on_flat_schema_stream(seed):
    schema = two_level_schema(4)
    queries = generate_queries(
        QueryWorkloadConfig(schema=schema, num_queries=40, zipf_theta=0.8, window=3.0, seed=seed)
    )
    mmqjp_keys = _match_keys(
        MMQJPEngine(RuntimeConfig(
            store_documents=False,
        )), queries, _random_documents(schema, 8, 3, seed)
    )
    seq_keys = _match_keys(
        SequentialEngine(RuntimeConfig(
            store_documents=False,
        )), queries, _random_documents(schema, 8, 3, seed)
    )
    assert mmqjp_keys == seq_keys
    assert mmqjp_keys  # the workload is dense enough that something matches


@pytest.mark.parametrize("seed", [4, 5])
def test_equivalence_on_complex_schema_stream(seed):
    schema = three_level_schema(branching=3)
    queries = generate_queries(
        QueryWorkloadConfig(
            schema=schema, num_queries=30, zipf_theta=0.8, max_value_joins=3, window=5.0, seed=seed
        )
    )
    documents = _random_documents(schema, 6, 2, seed)
    mmqjp_keys = _match_keys(MMQJPEngine(RuntimeConfig(
        store_documents=False,
    )), queries, _random_documents(schema, 6, 2, seed))
    seq_keys = _match_keys(SequentialEngine(RuntimeConfig(
        store_documents=False,
    )), queries, documents)
    assert mmqjp_keys == seq_keys


def test_equivalence_of_view_materialization_variants():
    schema = two_level_schema(5)
    queries = generate_queries(
        QueryWorkloadConfig(schema=schema, num_queries=30, zipf_theta=0.4, window=4.0, seed=9)
    )
    plain = _match_keys(
        MMQJPEngine(RuntimeConfig(
            store_documents=False,
        )), queries, _random_documents(schema, 8, 3, 9)
    )
    vm = _match_keys(
        MMQJPEngine(RuntimeConfig(engine="mmqjp-vm", store_documents=False)),
        queries,
        _random_documents(schema, 8, 3, 9),
    )
    vm_cached = _match_keys(
        MMQJPEngine(RuntimeConfig(engine="mmqjp-vm", view_cache_size=32, store_documents=False)),
        queries,
        _random_documents(schema, 8, 3, 9),
    )
    assert plain == vm == vm_cached
    assert plain


def test_equivalence_on_rss_stream():
    queries = generate_rss_queries(25, seed=3)
    # One hand-written subscription guaranteed to fire: two items from the
    # same channel.
    same_channel = (
        "S//item->i[.//channel_url->c] FOLLOWED BY{c=c, INF} S//item->i[.//channel_url->c]"
    )

    def run(engine):
        engine.register_query(same_channel, qid="same-channel")
        for i, query in enumerate(queries):
            engine.register_query(query, qid=f"q{i}")
        keys = set()
        for doc in generate_rss_stream(RssStreamConfig(num_items=25, num_channels=4, seed=2)):
            keys.update(m.key() for m in engine.process_document(doc))
        return keys

    mmqjp = run(MMQJPEngine(RuntimeConfig(store_documents=False, auto_timestamp=False)))
    vm = run(MMQJPEngine(RuntimeConfig(
        engine="mmqjp-vm", store_documents=False, auto_timestamp=False,
    )))
    seq = run(SequentialEngine(RuntimeConfig(store_documents=False, auto_timestamp=False)))
    assert mmqjp == vm == seq
    assert mmqjp  # channel_url collisions guarantee matches
