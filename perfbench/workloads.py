"""The benchmark's workloads and the inputs each one generates from a seed.

Every workload runs the windowed DBLP stream of :mod:`repro.workloads.dblp`
with ``DblpWorkloadConfig`` defaults unless a field below says otherwise:
50 venue streams, 5,000 Zipf authors and a 200-document window, so the
broker's auto-prune runs on almost every publish.  The program under test
receives only what a real publisher and subscriber would hand it: XML text
(or documents, for batches), timestamps, stream names and query strings.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Optional

from repro import RuntimeConfig, to_xml
from repro.workloads.dblp import (
    DblpWorkloadConfig,
    ZipfSampler,
    generate_article,
    generate_dblp_subscription,
)


#: Share of an untraced run's ``--seconds`` spent in the open loop; the
#: closed loop, whose figures carry the bounds, gets the rest.
OPEN_SHARE = 0.15


@dataclass(frozen=True)
class Workload:
    """One named workload: population, broker knobs, publish shape, rates."""

    name: str
    #: Live subscriptions registered during set-up.
    subscriptions: int
    #: Open-loop offered rate in documents per second.  A constant, 20-45%
    #: of the closed-loop ``docs_per_s`` of the code this benchmark was
    #: introduced against on a shared 2-CPU machine (depending on the
    #: machine's speed at the time), so a slower program shows as backlog
    #: and delivery lag instead of a lower offered rate.  At half, the
    #: machine's slow periods alone pushed runs into backlog.
    open_rate: float
    #: ``RuntimeConfig`` fields the workload changes from the defaults.
    runtime: dict = field(default_factory=dict)
    #: ``<cite>`` elements per article (0 = the default citation-free stream).
    citations: int = 0
    #: Documents per publish call: 1 uses ``publish`` with XML text, more
    #: uses ``publish_many`` with documents.
    batch: int = 1
    #: ``cancel`` + ``subscribe`` pairs issued before each measured publish.
    churn: int = 0
    #: Window of the DBLP stream; the warm-up publishes one full window.
    window: int = 200
    #: Venue streams of the DBLP stream.
    venues: int = 50
    #: Set-ups per run; ``setup_s`` is their median.
    setup_reps: int = 5

    def broker_config(self, storage_path: Optional[str] = None) -> RuntimeConfig:
        """The ``RuntimeConfig`` of this workload's broker."""
        fields = dict(self.runtime)
        if fields.get("storage") == "sqlite":
            fields["storage_path"] = storage_path
        return RuntimeConfig(**fields)

    def dblp_config(self) -> DblpWorkloadConfig:
        return DblpWorkloadConfig(
            num_venues=self.venues,
            citations_per_article=self.citations,
            window=float(self.window),
        )

    def tiny(self) -> "Workload":
        """A seconds-long variant with the same shape, for the benchmark's tests."""
        return dataclasses.replace(
            self,
            subscriptions=min(self.subscriptions, 60),
            citations=min(self.citations, 3),
            batch=min(self.batch, 5),
            churn=min(self.churn, 2),
            open_rate=40.0,
            window=20,
            venues=5,
            setup_reps=2,
        )


WORKLOADS = {
    # The ROADMAP headline: the windowed DBLP stream against a 5,000-strong
    # population on the unsharded broker, one XML-text publish per document.
    # Stage 2 dominates publish time here (delta reduction, ColumnStore.sync,
    # plan execution); ingest, wire and storage do almost nothing.  Because
    # construct_outputs=False still leaves store_documents=True on the
    # unsharded broker, these publishes build a tree and skip the streaming
    # ingest fast path.  Not in BENCHMARK.json: on a shared 2-CPU machine
    # whose speed drifts by tens of percent over stretches of a minute, three
    # workloads only fit the time of a full measurement with runs of about
    # 20 s, at which ten seeds spread this workload's docs_per_s by up to
    # 0.3; the two kept workloads get runs of 35 s instead, and between them
    # they time every layer this one drives (dblp_durable runs the same
    # serial Stage 1 and Stage 2 path).
    "dblp_steady": Workload(
        name="dblp_steady",
        subscriptions=5000,
        runtime={"construct_outputs": False},
        open_rate=55.0,
        # A set-up registers 5,000 queries (1-3 s); three fit the run budget.
        setup_reps=3,
    ),
    # The only workload where routing, wire encode/decode, worker IPC and
    # cross-process delivery run: two process shards (one per CPU of a
    # 2-CPU machine), citation-dense articles so each document carries real
    # wire weight, published in batches.  Batches hold 10 documents rather
    # than 100 so that a few seconds of closed loop yield enough batches for
    # a tail percentile, and the population is 1,000 because registering
    # 5,000 over the worker pipes takes 8-16 s per set-up, which five
    # set-ups per run cannot afford.
    "dblp_burst_sharded": Workload(
        name="dblp_burst_sharded",
        subscriptions=1000,
        runtime={
            "construct_outputs": False,
            "shards": 2,
            "executor": "processes",
        },
        citations=30,
        batch=10,
        open_rate=55.0,
    ),
    # dblp_steady plus 10 cancel + 10 subscribe calls per published
    # document: registration and retraction (XSCL parse, canonicalisation,
    # template registry, Stage 1 NFA registration, relevance index, plan
    # invalidation, state drop) run beside the reads, and the publish
    # slowdown they cause is only visible here.  Not in BENCHMARK.json: a
    # fourth workload does not fit the time of a full measurement, its
    # figures spread by 0.2-0.3 over seeds on a shared 2-CPU machine, and
    # every layer it drives is timed on the other workloads too.
    "dblp_churn": Workload(
        name="dblp_churn",
        subscriptions=5000,
        runtime={"construct_outputs": False},
        churn=10,
        open_rate=14.0,
    ),
    # The only workload where output construction and the storage epoch
    # commit run: default RuntimeConfig (construct_outputs=True) with the
    # SQLite backend, a smaller population and citation-dense articles.  Of
    # the workloads in BENCHMARK.json it is also the one that times parsing,
    # Stage 1 and Stage 2 on the serial runtime.
    "dblp_durable": Workload(
        name="dblp_durable",
        subscriptions=1000,
        runtime={"storage": "sqlite"},
        citations=30,
        open_rate=38.0,
    ),
}


class Inputs:
    """Everything one run publishes and registers, generated from the seed.

    The population, the warm-up and the open loop are generated up front.
    The closed loops, whose length depends on the program's speed, extend
    the document stream (and the churn schedule) on demand through
    :meth:`extend`; the same seed always yields the same stream.
    """

    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.config = workload.dblp_config()
        #: Warm-up documents (one window), published before anything is timed.
        self.warmup = workload.window
        #: Documents of the open loop, published right after the warm-up.
        self.open_docs = max(workload.batch, int(workload.open_rate * seconds * OPEN_SHARE))
        self.open_docs -= self.open_docs % workload.batch

        config = self.config
        self._sub_rng = random.Random(seed * 7919 + 1)
        self._sub_venues = ZipfSampler(config.num_venues, config.venue_theta, self._sub_rng)
        self._sub_sequence = 0
        #: ``(subscription id, query text)`` of the set-up population.
        self.population = [self._next_subscription() for _ in range(workload.subscriptions)]

        self._doc_rng = random.Random(seed * 7919 + 2)
        self._venues = ZipfSampler(config.num_venues, config.venue_theta, self._doc_rng)
        self._authors = ZipfSampler(config.num_authors, config.author_theta, self._doc_rng)
        self._churn_rng = random.Random(seed * 7919 + 3)
        self._live = [sid for sid, _ in self.population]
        #: ``(xml text, timestamp, stream)`` per document, in publish order.
        self.documents: list = []
        #: ``XmlDocument`` objects (batch workloads only), parallel to ``documents``.
        self.document_objects: Optional[list] = [] if workload.batch > 1 else None
        #: Per measured document: ``(cancelled ids, [(id, query text), ...])``.
        self.churn: list = []
        self.extend(self.warmup + self.open_docs)

    def _next_subscription(self) -> tuple:
        index = self._sub_sequence
        self._sub_sequence += 1
        query = generate_dblp_subscription(self.config, index, self._sub_rng, self._sub_venues)
        return f"s{index}", query

    def extend(self, count: int) -> None:
        """Generate ``count`` more documents (and their churn steps)."""
        workload = self.workload
        for _ in range(count):
            document = generate_article(
                self.config, len(self.documents), self._doc_rng, self._venues, self._authors
            )
            self.documents.append((to_xml(document.root), document.timestamp, document.stream))
            if self.document_objects is not None:
                self.document_objects.append(document)
            if workload.churn and len(self.documents) > self.warmup:
                live, rng = self._live, self._churn_rng
                cancelled = []
                for _ in range(workload.churn):
                    index = rng.randrange(len(live))
                    cancelled.append(live[index])
                    live[index] = live[-1]
                    live.pop()
                added = [self._next_subscription() for _ in range(workload.churn)]
                live.extend(sid for sid, _ in added)
                self.churn.append((cancelled, added))
