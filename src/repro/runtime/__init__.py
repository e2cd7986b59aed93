"""The sharded parallel runtime: scale-out of the broker across engine shards.

The paper's engine is a single shared pipeline; this package is the layer
that takes it from one core to many.  It partitions join subscriptions
across N independent :class:`~repro.runtime.shard.EngineShard` instances
(template-cohesively, so the CQT sharing of Section 4 survives inside every
shard), fans each published document out to all shards through a pluggable
executor, and merges matches, statistics and cost breakdowns back into one
broker-level view.

* :class:`~repro.runtime.sharded_broker.ShardedBroker` — the broker front
  end of :mod:`repro.pubsub.broker` over N engine shards (what
  :func:`repro.open_broker` returns for ``shards > 1``).
* :mod:`~repro.runtime.partition` — hash-by-template and least-loaded
  placement strategies.
* :mod:`~repro.runtime.executor` — serial (deterministic), thread-pool and
  process-pipelined execution of the per-shard tasks.
* :mod:`~repro.runtime.process` — the process runtime: engines living in
  long-lived worker processes behind pipe-command shard handles.
* :mod:`~repro.runtime.router` — relevance-aware fan-out routing: documents
  are dispatched only to the shards hosting templates they can bind.
"""

from repro.runtime.executor import (
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    ShardExecutor,
    ThreadedExecutor,
    executor_env_override,
    make_executor,
)
from repro.runtime.process import ProcessShardHandle, ShardWorkerError, ShardWorkerGroup
from repro.runtime.router import ShardRouter
from repro.runtime.partition import (
    PARTITIONERS,
    HashTemplatePartitioner,
    LeastLoadedPartitioner,
    Partitioner,
    make_partitioner,
    template_key,
)
from repro.runtime.shard import EngineShard
from repro.runtime.sharded_broker import ShardedBroker

__all__ = [
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
]
