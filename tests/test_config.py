"""RuntimeConfig: validation, presets, façade routing, and the one-config constructors."""

from __future__ import annotations

import pytest

from repro import Broker, RuntimeConfig, ShardedBroker, open_broker
from repro.config import (
    ENGINES,
    EXECUTORS,
    INDEXING_MODES,
    PARTITIONERS,
)
from repro.core.engine import MMQJPEngine, SequentialEngine, make_engine


# --------------------------------------------------------------------------- #
# validation: the single point for every knob
# --------------------------------------------------------------------------- #
def test_config_defaults_are_valid():
    config = RuntimeConfig()
    assert config.engine == "mmqjp"
    assert not config.is_sharded
    assert config.resolve_store_documents() is True


@pytest.mark.parametrize(
    "kwargs",
    [
        {"engine": "turbo"},
        {"indexing": "sometimes"},
        {"shards": 0},
        {"view_cache_size": 0},
        {"stream_history": -1},
        {"max_workers": 0},
        {"result_limit": 0},
        {"partitioner": "round-robin"},
        {"executor": "fibers"},
        {"route_dispatch": 1},
    ],
)
def test_config_validation_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        RuntimeConfig(**kwargs)


def test_config_keyword_tuples_match_canonical_definitions():
    from repro.core.engine import ENGINES as ENGINE_NAMES
    from repro.relational.database import INDEXING_MODES as DB_MODES
    from repro.runtime.executor import EXECUTORS as EXEC_NAMES
    from repro.runtime.partition import PARTITIONERS as PART_NAMES

    assert tuple(ENGINES) == tuple(ENGINE_NAMES)
    assert tuple(INDEXING_MODES) == tuple(DB_MODES)
    assert tuple(EXECUTORS) == tuple(sorted(EXEC_NAMES, key=list(EXECUTORS).index)) or set(
        EXECUTORS
    ) == set(EXEC_NAMES)
    assert set(PARTITIONERS) == set(PART_NAMES)


def test_store_documents_resolution_rules():
    throughput = RuntimeConfig(construct_outputs=False)
    assert throughput.resolve_store_documents() is False
    explicit = RuntimeConfig(construct_outputs=False, store_documents=True)
    assert explicit.resolve_store_documents() is True
    with pytest.raises(ValueError):
        RuntimeConfig(store_documents=False).validate_outputs()


def test_presets():
    t = RuntimeConfig.throughput()
    assert t.is_sharded and t.executor == "threads"
    assert not t.construct_outputs and t.store_documents is False
    a = RuntimeConfig.ablation()
    assert a.indexing == "off" and not a.plan_cache and not a.prune_dispatch
    # overrides re-validate
    assert RuntimeConfig.throughput(shards=8).shards == 8
    with pytest.raises(ValueError):
        RuntimeConfig.ablation(indexing="broken")


def test_replace_revalidates():
    config = RuntimeConfig()
    assert config.replace(shards=4).shards == 4
    with pytest.raises(ValueError):
        config.replace(engine="turbo")


# --------------------------------------------------------------------------- #
# the façade
# --------------------------------------------------------------------------- #
def test_open_broker_routes_by_shards():
    with open_broker() as broker:
        assert isinstance(broker, Broker)
    with open_broker(RuntimeConfig(shards=3)) as broker:
        assert isinstance(broker, ShardedBroker)
        assert broker.num_shards == 3
    with open_broker("sequential", shards=2) as broker:
        assert isinstance(broker, ShardedBroker)
        assert broker.engine_name == "sequential"
    with pytest.raises(TypeError):
        open_broker(42)


def test_open_broker_overrides_are_first_class():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with open_broker(construct_outputs=False, shards=2) as broker:
            assert isinstance(broker, ShardedBroker)
            assert not broker.construct_outputs


# --------------------------------------------------------------------------- #
# one way to configure: every constructor takes a RuntimeConfig
# --------------------------------------------------------------------------- #
def test_unknown_config_fields_raise_type_error():
    with pytest.raises(TypeError):
        RuntimeConfig(warp_speed=True)


@pytest.mark.parametrize(
    "construct", [Broker, ShardedBroker, MMQJPEngine, SequentialEngine, make_engine]
)
def test_constructors_reject_the_engine_name_shorthand(construct):
    with pytest.raises(TypeError, match="RuntimeConfig"):
        construct("sequential")


def test_broker_refuses_shards():
    with pytest.raises(ValueError, match="open_broker"):
        Broker(RuntimeConfig(shards=2))


def test_sharded_broker_default_is_one_shard():
    with ShardedBroker() as broker:
        assert broker.num_shards == 1


def test_make_engine_accepts_config():
    engine = make_engine(RuntimeConfig(engine="sequential", indexing="off"))
    assert isinstance(engine, SequentialEngine)
    assert engine.indexing == "off"
    assert make_engine(RuntimeConfig(engine="mmqjp-vm")).processor.use_view_materialization
    assert not make_engine(RuntimeConfig()).processor.use_view_materialization


def test_view_materialization_follows_the_engine_name_only():
    # A view cache size alone does not turn view materialization on: the
    # engine constructor and make_engine apply the same rule.
    sized = RuntimeConfig(view_cache_size=8)
    assert not MMQJPEngine(sized).processor.use_view_materialization
    assert not make_engine(sized).processor.use_view_materialization
    vm = MMQJPEngine(sized.replace(engine="mmqjp-vm")).processor
    assert vm.use_view_materialization and vm.view_cache is not None


def test_engines_carry_their_config():
    with open_broker(RuntimeConfig(indexing="lazy", construct_outputs=False)) as broker:
        assert broker.engine.config.indexing == "lazy"
        assert broker.engine.indexing == "lazy"
