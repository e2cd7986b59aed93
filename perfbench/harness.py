"""One benchmark run: set-up, warm-up, measured loops, correctness gate.

An untraced run (``trace=False``) measures the end-to-end metrics:

1. **set-up**, ``setup_reps`` times: open the broker (worker processes
   included) and register the population; ``setup_s`` is the median.  The
   last broker is kept.  Its per-call ``subscribe`` times give
   ``subscribe_*`` on the workloads without churn.
2. **warm-up**: one window of documents, untimed, so state reaches its
   steady size.  ``peak_rss_mb`` is read at its end.
3. **open loop** for 15% of ``seconds``: documents are due at the fixed
   ``open_rate``; a document's delivery lag runs from its due time until
   its results have reached every subscriber callback, so backlog shows.
   The program's deterministic work counters are read at its end.
4. **closed loop** for the rest: back-to-back publishes give
   ``docs_per_s`` (the median throughput of its ten equal blocks) and the
   per-call ``publish_p50_ms``.
5. **cancel all** (workloads without churn) gives the cancel latencies.

The publish tail (90th percentile: at these run lengths it has at least ten
samples beyond it), the delivery lag and the ``subscribe``/``cancel``
latencies are reported in the diagnostics, with their sample counts, but
carry no bound: on a shared 2-CPU machine they spread too widely from run
to run (see perfbench/README.md).

A traced run (``trace=True``) sets up once under the tracer, then runs the
closed loop untraced and traced for half of ``seconds`` each, and reports
the per-layer split of the traced half (cancels included).  Every
run ends with the correctness gate of :mod:`perfbench.reference`.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from repro import open_broker

from perfbench.reference import digest_documents, reference_digests
from perfbench.tracing import Tracer
from perfbench.workloads import OPEN_SHARE, WORKLOADS, Inputs, Workload

WORK_DIR = Path(__file__).resolve().parent / ".work"
#: Blocks of a closed loop whose throughput is taken separately.
_RATE_BLOCKS = 10
#: Documents generated at a time when a closed loop runs out (a multiple of
#: every workload's batch size).
_EXTEND_DOCS = 200

END_TO_END_UNITS = {
    "setup_s": "s",
    "docs_per_s": "docs/s",
    "publish_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metric → unit.  ``ms/doc`` and ``count/doc`` are per document
#: published in the traced loop (self time: nested timed calls excluded);
#: ``ms/call`` is per call of a registration-path entry point; ``count``
#: is a gauge read at the end of the run.
PER_LAYER_UNITS = {
    "xmlmodel.parse_ms": "ms/doc",
    "xmlmodel.to_xml_ms": "ms/doc",
    "xpath.stage1_ms": "ms/doc",
    "core.witnesses.build_ms": "ms/doc",
    "core.processor.process_ms": "ms/doc",
    "core.processor.maintain_state_ms": "ms/doc",
    "core.processor.prune_state_ms": "ms/doc",
    "core.processor.templates_visited": "count/doc",
    "core.processor.templates_skipped": "count/doc",
    "relational.plan.delta_reduce_ms": "ms/doc",
    "relational.plan.execute_ms": "ms/doc",
    "relational.plan.compiles": "count/doc",
    "relational.plan.replans": "count/doc",
    "relational.conjunctive.delta_rows_scanned": "count/doc",
    "relational.conjunctive.delta_keep_ratio": "ratio",
    "relational.columnar.sync_ms": "ms/doc",
    "relational.columnar.syncs": "count/doc",
    "relational.columnar.dictionary_values": "count",
    "relational.database.bind_ms": "ms/doc",
    "core.state.documents": "count",
    "core.state.rows": "count",
    "core.engine.output_document_ms": "ms/doc",
    "core.engine.register_ms": "ms/call",
    "core.engine.deregister_ms": "ms/call",
    "xscl.parse_query_ms": "ms/call",
    "xscl.canonicalize_ms": "ms/call",
    "templates.registry.add_query_ms": "ms/call",
    "templates.registry.remove_query_ms": "ms/call",
    "templates.registry.templates": "count",
    "runtime.router.route_ms": "ms/doc",
    "runtime.router.dispatch_ratio": "ratio",
    "runtime.wire.encode_ms": "ms/doc",
    "runtime.wire.bytes": "B/doc",
    "runtime.process.worker_wait_ms": "ms/doc",
    "runtime.process.decode_matches_ms": "ms/doc",
    "storage.sqlite.commit_ms": "ms/doc",
    "storage.sqlite.upsert_ms": "ms/doc",
    "storage.sqlite.delete_ms": "ms/doc",
    "pubsub.subscription.deliver_ms": "ms/doc",
    "pubsub.subscription.deliveries": "count/doc",
    "pubsub.broker.unattributed_ms": "ms/doc",
    "pubsub.broker.publish_ms": "ms/doc",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer metrics read from the tracer: metric → (layer, normalization).
_TRACED = {
    "xmlmodel.parse_ms": ("xmlmodel.parse", "doc"),
    "xmlmodel.to_xml_ms": ("xmlmodel.to_xml", "doc"),
    "xpath.stage1_ms": ("xpath.stage1", "doc"),
    "core.witnesses.build_ms": ("core.witnesses.build", "doc"),
    "core.processor.process_ms": ("core.processor.process", "doc"),
    "core.processor.maintain_state_ms": ("core.processor.maintain_state", "doc"),
    "core.processor.prune_state_ms": ("core.processor.prune_state", "doc"),
    "relational.plan.delta_reduce_ms": ("relational.plan.delta_reduce", "doc"),
    "relational.plan.execute_ms": ("relational.plan.execute", "doc"),
    "relational.columnar.sync_ms": ("relational.columnar.sync", "doc"),
    "relational.database.bind_ms": ("relational.database.bind", "doc"),
    "core.engine.output_document_ms": ("core.engine.output_document", "doc"),
    "core.engine.register_ms": ("core.engine.register", "call"),
    "core.engine.deregister_ms": ("core.engine.deregister", "call"),
    "xscl.parse_query_ms": ("xscl.parse_query", "call"),
    "xscl.canonicalize_ms": ("xscl.canonicalize", "call"),
    "templates.registry.add_query_ms": ("templates.registry.add_query", "call"),
    "templates.registry.remove_query_ms": ("templates.registry.remove_query", "call"),
    "runtime.router.route_ms": ("runtime.router.route", "doc"),
    "runtime.wire.encode_ms": ("runtime.wire.encode", "doc"),
    "runtime.process.worker_wait_ms": ("runtime.process.worker_wait", "doc"),
    "runtime.process.decode_matches_ms": ("runtime.process.decode_matches", "doc"),
    "storage.sqlite.commit_ms": ("storage.sqlite.commit", "doc"),
    "storage.sqlite.upsert_ms": ("storage.sqlite.upsert", "doc"),
    "storage.sqlite.delete_ms": ("storage.sqlite.delete", "doc"),
    "pubsub.subscription.deliver_ms": ("pubsub.subscription.deliver", "doc"),
    "pubsub.broker.unattributed_ms": ("pubsub.broker", "doc"),
}


# --------------------------------------------------------------------------- #
# small helpers
# --------------------------------------------------------------------------- #
def percentile(values: list, q: float) -> float:
    """The ``q``-th percentile (linear interpolation between order statistics)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def calibrate() -> dict:
    """Machine-speed diagnostic: a fixed pure-Python loop plus load average."""
    best = float("inf")
    for _ in range(5):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        best = min(best, perf_counter() - start)
    return {"loop_ms": round(best * 1000.0, 3), "loadavg": list(os.getloadavg())}


def _ms(seconds: list) -> list:
    return [s * 1000.0 for s in seconds]


class _Ops:
    """Counts attempted and failed (raised) operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_error: Optional[str] = None

    def call(self, fn: Callable, *args, **kwargs) -> None:
        self.attempted += 1
        try:
            fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"{type(exc).__name__}: {exc}"


def worker_private_kb() -> int:
    """Memory private to this process's live worker processes, in KiB.

    Workers are forked, so their resident pages shared with the parent (the
    interpreter, the imported modules, the benchmark's inputs) are already
    in the parent's RSS; only each worker's private pages (``Private_Clean``
    plus ``Private_Dirty`` of ``/proc/<pid>/smaps_rollup``) are its own.
    """
    total = 0
    for child in multiprocessing.active_children():
        try:
            text = Path(f"/proc/{child.pid}/smaps_rollup").read_text()
        except OSError:
            continue  # ended meanwhile
        for line in text.splitlines():
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1])
    return total


# --------------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------------- #
class _Run:
    def __init__(self, workload: Workload, inputs: Inputs, seed: int):
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.ops = _Ops()
        #: ``(sid, lhs_ts, rhs_ts)`` of every result reaching a callback.
        self.deliveries: list = []
        self.broker = None
        self.published = 0  # documents handed to publish/publish_many
        self.subscribe_s: list = []
        self.cancel_s: list = []
        self.storage_dir = WORK_DIR / f"{os.getpid()}"

    # -------------------------------------------------------------- callbacks
    def on_result(self, result) -> None:
        match = result.match
        self.deliveries.append(
            (result.subscription_id, match.lhs_timestamp, match.rhs_timestamp)
        )

    # ------------------------------------------------------------------ setup
    def open(self, rep: int, on_open: Optional[Callable] = None) -> tuple:
        """Open a broker and register the population: ``(broker, seconds, per-call s)``."""
        storage_path = None
        if self.workload.runtime.get("storage") == "sqlite":
            storage_path = str(self.storage_dir / f"rep{rep}")
        config = self.workload.broker_config(storage_path)
        start = perf_counter()
        broker = open_broker(config)
        if on_open is not None:
            on_open()
        per_call = []
        subscribe = broker.subscribe
        callback = self.on_result
        for sid, query in self.inputs.population:
            t = perf_counter()
            self.ops.call(subscribe, query, callback=callback, subscription_id=sid)
            per_call.append(perf_counter() - t)
        return broker, perf_counter() - start, per_call

    # ------------------------------------------------------------- publishing
    def publish_unit(self, index: int) -> None:
        """Publish the unit (one document or one batch) starting at ``index``."""
        batch = self.workload.batch
        if batch == 1:
            text, timestamp, stream = self.inputs.documents[index]
            self.ops.call(self.broker.publish, text, timestamp=timestamp, stream=stream)
        else:
            self.ops.call(
                self.broker.publish_many,
                self.inputs.document_objects[index : index + batch],
            )
        self.published = index + batch

    def churn_before(self, index: int) -> None:
        """The timed cancel + subscribe calls issued before measured document ``index``."""
        if not self.inputs.churn:
            return
        cancelled, added = self.inputs.churn[index - self.inputs.warmup]
        cancel, subscribe, callback = self.broker.cancel, self.broker.subscribe, self.on_result
        for sid in cancelled:
            t = perf_counter()
            self.ops.call(cancel, sid)
            self.cancel_s.append(perf_counter() - t)
        for sid, query in added:
            t = perf_counter()
            self.ops.call(subscribe, query, callback=callback, subscription_id=sid)
            self.subscribe_s.append(perf_counter() - t)

    def warm_up(self) -> None:
        for index in range(0, self.inputs.warmup, self.workload.batch):
            self.publish_unit(index)

    def open_loop(self) -> dict:
        """Publish the open-loop documents on schedule: per-document lag and lateness.

        Units (documents, or batches) are due every ``batch / open_rate``
        seconds, so the offered document rate is ``open_rate``; every
        document of a batch is due when its batch is.  A document's lag runs
        from its due time until the publish call that delivers its results
        returns, by which time every subscriber callback for it has run.
        """
        batch = self.workload.batch
        interval = batch / self.workload.open_rate
        first = self.inputs.warmup
        lag: list = []
        late: list = []
        start = perf_counter() + 0.01
        for unit, index in enumerate(range(first, first + self.inputs.open_docs, batch)):
            due = start + unit * interval
            now = perf_counter()
            if now < due:
                time.sleep(due - now)
            late.append(max(0.0, perf_counter() - due))
            self.churn_before(index)
            self.publish_unit(index)
            lag.extend([perf_counter() - due] * batch)
        return {"lag": lag, "late": late, "seconds": perf_counter() - start}

    def closed_loop(self, seconds: float) -> dict:
        """Back-to-back publishes for ``seconds``; per-call times and throughput.

        Besides the totals, the loop's throughput is taken in each of
        ``_RATE_BLOCKS`` consecutive blocks of equal length, so a burst of
        load from outside the program in part of the loop can be told apart
        (and its median taken).  The clock stops while more documents are
        generated.
        """
        batch = self.workload.batch
        index = self.published
        per_call = []
        block_rates = []
        block_seconds = seconds / _RATE_BLOCKS
        start = perf_counter()
        deadline = start + seconds
        block_end = start + block_seconds
        block_docs = 0
        paused = 0.0
        docs = 0
        while perf_counter() < deadline:
            if index + batch > len(self.inputs.documents):
                t = perf_counter()
                self.inputs.extend(_EXTEND_DOCS)
                pause = perf_counter() - t
                paused += pause
                deadline += pause
                block_end += pause
            self.churn_before(index)
            t = perf_counter()
            self.publish_unit(index)
            done = perf_counter()
            per_call.append(done - t)
            index += batch
            docs += batch
            block_docs += batch
            if done >= block_end:
                block_rates.append(block_docs / (block_seconds + done - block_end))
                block_end = done + block_seconds
                block_docs = 0
        elapsed = perf_counter() - start - paused
        return {
            "per_call": per_call,
            "docs": docs,
            "seconds": elapsed,
            "block_rates": block_rates,
        }

    def cancel_all(self) -> None:
        """Cancel the whole population in seeded order (workloads without churn).

        All of it, so the share of cancels that retract the last holder of a
        query (the expensive path) is the population's, not a sample's.
        """
        if self.inputs.churn:
            return
        sids = [sid for sid, _ in self.inputs.population]
        random.Random(self.seed * 7919 + 4).shuffle(sids)
        for sid in sids:
            t = perf_counter()
            self.ops.call(self.broker.cancel, sid)
            self.cancel_s.append(perf_counter() - t)

    # ------------------------------------------------------------ inspection
    def work_counts(self) -> dict:
        """The program's deterministic work counters (repeat exactly per hash seed)."""
        broker = self.broker
        engine = getattr(broker, "engine", None)
        if engine is None:  # sharded: engines live in the workers
            stats = broker.stats()
            return {
                "templates": stats["engine_stats"]["num_templates"],
                "state_documents": stats["engine_stats"]["state_documents"],
                "matches": stats["engine_stats"]["num_matches"],
                "routing": stats["routing"],
                "transport": {
                    k: v
                    for k, v in stats["transport"].items()
                    if not k.endswith("_ms")
                },
            }
        processor = engine._processor()
        dictionary = processor.env.columnar_dictionary
        return {
            "delta_stats": engine.delta_stats,
            "plan_cache": engine.plan_cache.stats() if engine.plan_cache else None,
            "templates_skipped": processor.templates_skipped,
            "templates": engine.num_templates,
            "state_documents": processor.state.num_documents,
            "state_rows": sum(len(r) for r in processor.state.relations().values()),
            "dictionary_values": len(dictionary) if dictionary is not None else 0,
            "matches": engine.num_matches,
        }

    def close(self) -> None:
        if self.broker is not None:
            self.broker.close()
            self.broker = None

    # ---------------------------------------------------------- correctness
    def check(self, tamper: Optional[Callable] = None) -> dict:
        """Compare the delivered match set with the sequential reference."""
        delivered = self.deliveries
        if tamper is not None:
            delivered = tamper(list(delivered))
        documents = self.inputs.documents[: self.published]
        got = digest_documents(delivered, [ts for _, ts, _ in documents])
        expected, cached = reference_digests(self.inputs, self.published)
        mismatch = next(
            (i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
            None if len(got) == len(expected) else min(len(got), len(expected)),
        )
        return {
            "correct": mismatch is None,
            "documents": self.published,
            "deliveries": len(delivered),
            "first_mismatch_document": mismatch,
            "reference_cached": cached,
        }


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    tamper: Optional[Callable] = None,
) -> tuple:
    """Run one workload; returns ``(result, diagnostics)``.

    ``result`` is the benchmark's output object (``correct``, ``attempted``,
    ``failed``, ``metrics``).  ``tiny`` shrinks the workload for tests;
    ``tamper`` rewrites the delivered ``(sid, lhs_ts, rhs_ts)`` list before
    the correctness gate (tests use it to show the gate bites).
    """
    workload = WORKLOADS[workload_name]
    if tiny:
        workload = workload.tiny()
    diagnostics: dict = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "calibration_start": calibrate(),
    }
    start = perf_counter()
    inputs = Inputs(workload, seed, seconds)
    diagnostics["phase_s"] = {"generate": perf_counter() - start}
    state = _Run(workload, inputs, seed)
    # Everything alive before the first broker opens (the inputs, which
    # stand in for what a publisher process would hold, and the imported
    # modules) is frozen: it costs the program's garbage collector nothing,
    # and worker processes forked from this one do not copy it by touching
    # it.  Documents generated later, in small chunks, are not frozen.
    gc.collect()
    gc.freeze()
    try:
        if trace:
            metrics = _traced(state, seconds, diagnostics)
        else:
            metrics = _untraced(state, seconds, diagnostics)
    finally:
        state.close()
        gc.unfreeze()
        shutil.rmtree(state.storage_dir, ignore_errors=True)
    start = perf_counter()
    check = state.check(tamper)
    check["seconds"] = round(perf_counter() - start, 3)
    diagnostics["check"] = check
    diagnostics["ops"] = {
        "attempted": state.ops.attempted,
        "failed": state.ops.failed,
        "first_error": state.ops.first_error,
    }
    diagnostics["calibration_end"] = calibrate()
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": check["correct"] and state.ops.failed == 0,
        "attempted": state.ops.attempted,
        "failed": state.ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, diagnostics


def _untraced(state: _Run, seconds: float, diagnostics: dict) -> dict:
    workload = state.workload
    phases = diagnostics["phase_s"]
    setup_s = []
    population_subscribe_s: list = []
    mark = perf_counter()
    for rep in range(workload.setup_reps):
        state.close()
        gc.collect()  # the previous broker's garbage is not this set-up's cost
        state.broker, elapsed, population_subscribe_s = state.open(rep)
        setup_s.append(elapsed)
    if not workload.churn:
        state.subscribe_s = population_subscribe_s

    phases["setup"] = perf_counter() - mark
    mark = perf_counter()
    state.warm_up()
    phases["warm_up"] = perf_counter() - mark
    # Read here, once state has reached its steady size: the results the
    # subscriptions retain keep growing with every later document, by an
    # amount that follows the seed's match count (and, in the closed loop,
    # the program's speed).  The parent's peak RSS plus what the workers (if
    # any) hold privately; worker state is bounded by the window, so its
    # current size is its peak.
    worker_kb = worker_private_kb()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + worker_kb
    open_phase = state.open_loop()
    diagnostics["work_counts"] = state.work_counts()
    mark = perf_counter()
    closed = state.closed_loop(seconds * (1.0 - OPEN_SHARE))
    phases["closed_loop"] = perf_counter() - mark
    mark = perf_counter()
    state.cancel_all()
    phases["cancel_all"] = perf_counter() - mark
    diagnostics["work_counts_end"] = state.work_counts()
    mark = perf_counter()
    state.close()
    phases["close"] = perf_counter() - mark

    publish = _ms(closed["per_call"])
    lag = _ms(open_phase["lag"])
    subscribe = _ms(state.subscribe_s)
    cancel = _ms(state.cancel_s)
    late = _ms(open_phase["late"])
    diagnostics["samples"] = {
        "setup": len(setup_s),
        "publish": len(publish),
        "delivery_lag": len(lag),
        "subscribe": len(subscribe),
        "cancel": len(cancel),
        "closed_docs": closed["docs"],
        "closed_blocks": len(closed["block_rates"]),
    }
    diagnostics["closed_loop"] = {
        "docs_per_s_overall": closed["docs"] / closed["seconds"] if closed["seconds"] else 0.0,
        "block_docs_per_s": closed["block_rates"],
    }
    diagnostics["worker_private_mb"] = worker_kb / 1024.0
    diagnostics["setup_s_each"] = setup_s
    diagnostics["open_loop"] = {
        "rate_docs_per_s": workload.open_rate,
        "seconds": round(open_phase["seconds"], 3),
        "generator_late_p50_ms": percentile(late, 50),
        "generator_late_max_ms": max(late, default=0.0),
    }
    # Timings too noisy on a shared 2-CPU machine to carry a bound (see
    # perfbench/README.md), reported beside the metrics.
    diagnostics["unbounded_ms"] = {
        "publish_p90": percentile(publish, 90),
        "delivery_lag_p50": percentile(lag, 50),
        "delivery_lag_p90": percentile(lag, 90),
        "subscribe_p50": percentile(subscribe, 50),
        "subscribe_p90": percentile(subscribe, 90),
        "cancel_p50": percentile(cancel, 50),
        "cancel_p90": percentile(cancel, 90),
    }
    return {
        "setup_s": statistics.median(setup_s),
        "docs_per_s": statistics.median(closed["block_rates"] or [0.0]),
        "publish_p50_ms": percentile(publish, 50),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def _traced(state: _Run, seconds: float, diagnostics: dict) -> dict:
    workload = state.workload
    tracer = Tracer()
    sharded = workload.runtime.get("executor") == "processes"
    # Worker processes are forked untraced: the traced run times the
    # parent-side layers only (the serial workloads cover the rest).
    if sharded:
        state.broker, _, _ = state.open(0, on_open=tracer.install)
    else:
        tracer.install()
        state.broker, _, _ = state.open(0)
    tracer.uninstall()
    state.warm_up()

    # Untraced and traced blocks alternate, so drift in machine speed or in
    # the program's state over the run does not land on one side only.
    untraced = {"docs": 0, "seconds": 0.0}
    traced = {"docs": 0, "seconds": 0.0}
    deltas: Counter = Counter()
    for _ in range(2):
        for key, value in state.closed_loop(seconds / 4.0).items():
            if key in untraced:
                untraced[key] += value
        before = state.work_counts()
        tracer.install()
        try:
            block = state.closed_loop(seconds / 4.0)
        finally:
            tracer.uninstall()
        deltas.update(_counter_deltas(before, state.work_counts()))
        for key in traced:
            traced[key] += block[key]
    tracer.install()
    try:
        state.cancel_all()
    finally:
        tracer.uninstall()
    end_counts = state.work_counts()
    docs = max(traced["docs"], 1)

    def per_doc_ms(layer: str) -> float:
        return tracer.publish_self_s.get(layer, 0.0) * 1000.0 / docs

    def per_call_ms(layer: str) -> float:
        calls = tracer.calls.get(layer, 0)
        return tracer.self_s.get(layer, 0.0) * 1000.0 / calls if calls else 0.0

    def calls_per_doc(layer: str) -> float:
        return tracer.publish_calls.get(layer, 0) / docs

    metrics = {
        name: per_doc_ms(layer) if kind == "doc" else per_call_ms(layer)
        for name, (layer, kind) in _TRACED.items()
    }
    publish_ms = tracer.publish_s * 1000.0 / docs
    untraced_rate = untraced["docs"] / untraced["seconds"] if untraced["seconds"] else 0.0
    traced_rate = traced["docs"] / traced["seconds"] if traced["seconds"] else 0.0
    scanned = deltas["rows_scanned"]
    sends = deltas["shards_dispatched"] + deltas["shards_skipped"]
    metrics.update(
        {
            "pubsub.broker.publish_ms": publish_ms,
            "core.processor.templates_visited": calls_per_doc("core.processor.templates_visited"),
            "relational.columnar.syncs": calls_per_doc("relational.columnar.sync"),
            "pubsub.subscription.deliveries": calls_per_doc("pubsub.subscription.deliver"),
            "trace.overhead_ratio": traced_rate / untraced_rate if untraced_rate else 0.0,
            "core.processor.templates_skipped": deltas["templates_skipped"] / docs,
            "relational.plan.compiles": deltas["plan_misses"] / docs,
            "relational.plan.replans": deltas["plan_replans"] / docs,
            "relational.conjunctive.delta_rows_scanned": scanned / docs,
            "relational.conjunctive.delta_keep_ratio": (
                deltas["rows_kept"] / scanned if scanned else 0.0
            ),
            "runtime.router.dispatch_ratio": (
                deltas["shards_dispatched"] / sends if sends else 0.0
            ),
            "runtime.wire.bytes": deltas["wire_bytes"] / docs,
            "relational.columnar.dictionary_values": float(end_counts.get("dictionary_values", 0)),
            "core.state.documents": float(end_counts.get("state_documents") or 0),
            "core.state.rows": float(end_counts.get("state_rows", 0)),
            "templates.registry.templates": float(end_counts.get("templates") or 0),
        }
    )
    diagnostics["trace"] = {
        "docs": traced["docs"],
        "untraced_docs_per_s": untraced_rate,
        "traced_docs_per_s": traced_rate,
        "publish_ms": publish_ms,
        "attributed_ms": sum(per_doc_ms(layer) for layer in set(tracer.publish_self_s)),
        "calls": dict(tracer.calls),
    }
    diagnostics["work_counts"] = end_counts
    return metrics


#: Work counters behind the per-layer counts: name → path in ``work_counts``.
_COUNTERS = {
    "rows_scanned": ("delta_stats", "rows_scanned"),
    "rows_kept": ("delta_stats", "rows_kept"),
    "templates_skipped": ("templates_skipped",),
    "plan_misses": ("plan_cache", "misses"),
    "plan_replans": ("plan_cache", "replans"),
    "shards_dispatched": ("routing", "shards_dispatched"),
    "shards_skipped": ("routing", "shards_skipped"),
    "wire_bytes": ("transport", "wire_bytes"),
}


def _counter_deltas(before: dict, after: dict) -> dict:
    """How much each work counter grew (0 where the runtime does not expose it)."""

    def value(counts: dict, path: tuple) -> float:
        for key in path:
            counts = counts.get(key) if isinstance(counts, dict) else None
        return float(counts or 0)

    return {name: value(after, path) - value(before, path) for name, path in _COUNTERS.items()}
