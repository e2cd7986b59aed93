"""One engine shard: an independent two-stage engine plus its bookkeeping.

A shard owns a disjoint subset of the registered join subscriptions and
sees every published document its queries could bind (subscription-
partitioned, document-replicated parallelism, thinned by the broker's
:class:`~repro.runtime.router.ShardRouter` when routing is enabled).  Each
shard maintains its own Stage 1 evaluator, template registry and join
state, and shards never need to communicate during processing.

In the ``"processes"`` runtime this same surface is provided by
:class:`~repro.runtime.process.ProcessShardHandle`, with the engine living
in a worker process.  The unsharded :class:`repro.pubsub.Broker` views its
one engine as shard 0, so recovery and stats treat every topology alike.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.core.engine import EngineStats, _BaseEngine
from repro.core.results import Match
from repro.xmlmodel.document import XmlDocument
from repro.xscl.ast import XsclQuery


class EngineShard:
    """A shard id, its engine, and the subscription ids it owns."""

    def __init__(self, shard_id: int, engine: _BaseEngine):
        self.shard_id = shard_id
        self.engine = engine
        self.qids: list[str] = []

    def register(self, qid: str, query: Union[str, XsclQuery]) -> None:
        """Register one join subscription with this shard's engine."""
        self.engine.register_query(query, qid=qid)
        self.qids.append(qid)

    def deregister(self, qid: str) -> None:
        """Retract one join subscription from this shard's engine.

        Delegates to :meth:`~repro.core.engine._BaseEngine.deregister_query`,
        so the shard's templates, relevance postings, plan-cache entries and
        reclaimable join state shrink with the retraction.
        """
        self.engine.deregister_query(qid)
        self.qids.remove(qid)

    def process_batch(self, documents: Sequence[XmlDocument]) -> list[list[Match]]:
        """Process a batch of documents in order; one match list per document.

        This is the unit of work the executors schedule: batching amortizes
        one dispatch (and, for pool executors, one task handoff) over the
        whole batch, and the engine's batched pipeline
        (:meth:`~repro.core.engine._BaseEngine.process_batch`) additionally
        hoists the per-document fixed costs — relevance-index sync, docid
        interning — out of the loop.

        A shard without subscriptions skips processing outright.  This is
        safe: Stage 1 witnesses are computed at arrival time, so a document
        processed before a query registers can never join with it — an empty
        shard would only accumulate dead ``RdocTS`` state.
        """
        if not self.qids:
            return [[] for _ in documents]
        return self.engine.process_batch(documents)

    def process_one(self, document: XmlDocument) -> list[Match]:
        """Process a single document (the broker's unbatched publish path).

        Skips batch assembly and the per-batch hooks entirely; an empty
        shard short-circuits like :meth:`process_batch`.
        """
        if not self.qids:
            return []
        return self.engine.process_document(document)

    def prune(self, min_timestamp: float) -> int:
        """Prune this shard's join state; returns documents removed."""
        return self.engine.prune(min_timestamp)

    def output_document(self, match: Match) -> XmlDocument:
        """Construct the output XML document of one of this shard's matches."""
        return self.engine.output_document(match)

    @property
    def num_queries(self) -> int:
        """Number of subscriptions owned by this shard."""
        return len(self.qids)

    def stats(self) -> EngineStats:
        """This shard's engine statistics."""
        return self.engine.stats()

    def metrics_snapshot(self):
        """This shard's engine metrics snapshot (``None`` when disabled)."""
        return self.engine.metrics_snapshot()

    def close(self) -> None:
        """Close this shard's engine (flushes an attached state store)."""
        self.engine.close()

    # -- recovery plane (see repro.storage.recovery) --------------------- #
    def recover_catalog(self):
        from repro.storage.recovery import recover_engine_catalog

        return recover_engine_catalog(self.engine)

    def registry_refcounts(self):
        from repro.storage.recovery import engine_registry_refcounts

        return engine_registry_refcounts(self.engine)

    def recover_state(self) -> int:
        from repro.storage.recovery import docid_floor, restore_engine_state

        restore_engine_state(self.engine)
        return docid_floor(self.engine)

    def __repr__(self) -> str:
        return f"<EngineShard {self.shard_id} queries={self.num_queries}>"
