"""The correctness gate: match digests from the ``sequential`` engine.

The ``sequential`` engine evaluates every query on its own, which is the
paper's reference algorithm.  To keep the check cheap, the reference
registers each *distinct* query text once and attributes its matches to
every live subscription holding that text (a subscription's matches depend
only on its query and the stream).  Churn is
replayed in the same order with per-text reference counts, so the set of
live queries, and with it the window state that late subscriptions can
join against, evolves exactly as in the broker.  The reference runs the
plain row-at-a-time path (``columnar=False``, ``delta_join=False``): it
shares none of the delta and columnar machinery of the broker under test,
and on this stream it is the sequential engine's fastest configuration.

Matches are keyed on ``(subscription id, lhs timestamp, rhs timestamp)``,
because the broker assigns its own docids to text publishes, and digested
per published document.  Digests are cached under ``perfbench/.cache`` keyed
on the inputs and the program's source, so a run repeating a seed on the
same code skips the recomputation.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterable

from repro import RuntimeConfig, SequentialEngine

CACHE_DIR = Path(__file__).resolve().parent / ".cache"


def digest_documents(deliveries: Iterable[tuple], timestamps: list) -> list:
    """Per-document digests of ``(sid, lhs_ts, rhs_ts)`` deliveries.

    ``timestamps`` are the published documents' timestamps in publish
    order; a delivery whose rhs timestamp is not among them lands in an
    extra trailing entry, so it can never go unnoticed.
    """
    position = {ts: i for i, ts in enumerate(timestamps)}
    groups: list = [[] for _ in range(len(timestamps) + 1)]
    for sid, lhs_ts, rhs_ts in deliveries:
        groups[position.get(rhs_ts, len(timestamps))].append((sid, lhs_ts, rhs_ts))
    out = []
    for group in groups:
        group.sort()
        out.append(hashlib.sha1(repr(group).encode()).hexdigest()[:16] if group else "")
    return out


def _replay(population, documents, churn, warmup) -> list:
    """Run the sequential engine over the published prefix.

    Returns the ``(sid, lhs_ts, rhs_ts)`` deliveries in publish order.
    """
    engine = SequentialEngine(
        RuntimeConfig(
            engine="sequential",
            construct_outputs=False,
            store_documents=False,
            columnar=False,
            delta_join=False,
        )
    )
    qid_of: dict = {}
    holders: dict = {}  # query text -> live subscription ids (insertion ordered)
    text_of: dict = {}

    def subscribe(sid: str, text: str) -> None:
        text_of[sid] = text
        live = holders.setdefault(text, {})
        if not live:
            qid = qid_of.setdefault(text, f"q{len(qid_of)}")
            engine.register_query(text, qid=qid)
        live[sid] = None

    def cancel(sid: str) -> None:
        text = text_of.pop(sid, None)
        if text is None:
            return
        live = holders[text]
        del live[sid]
        if not live:
            engine.deregister_query(qid_of[text])

    def live_sids() -> dict:
        return {qid_of[t]: tuple(live) for t, live in holders.items() if live}

    for sid, text in population:
        subscribe(sid, text)
    sids_of_qid = live_sids()
    out = []
    for index, (text, timestamp, stream) in enumerate(documents):
        if index >= warmup and churn:
            cancelled, added = churn[index - warmup]
            for sid in cancelled:
                cancel(sid)
            for sid, query in added:
                subscribe(sid, query)
            sids_of_qid = live_sids()
        for match in engine.process_text(text, timestamp=timestamp, stream=stream):
            for sid in sids_of_qid.get(match.qid, ()):
                out.append((sid, match.lhs_timestamp, match.rhs_timestamp))
    engine.close()
    return out


def _cache_key(inputs) -> str:
    """The inputs' workload and seed plus the source of the program, of the
    input generator and of this reference, so no cache entry outlives the
    code that produced it."""
    import repro

    h = hashlib.sha256(f"{inputs.workload!r}\0{inputs.seed}".encode())
    root = Path(repro.__file__).resolve().parent
    here = Path(__file__).resolve()
    for path in [here, here.with_name("workloads.py"), *sorted(root.rglob("*.py"))]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:32]


def reference_digests(inputs, published: int) -> tuple:
    """``(per-document digests, cache hit)`` for the first ``published`` documents."""
    path = CACHE_DIR / f"{inputs.workload.name}-{_cache_key(inputs)}.json"
    if path.exists():
        cached = json.loads(path.read_text())
        if len(cached) >= published:
            # Every document's matches depend only on what came before it,
            # so a longer cached replay covers any shorter prefix.
            return cached[:published] + [""], True
    documents = inputs.documents[:published]
    deliveries = _replay(inputs.population, documents, inputs.churn, inputs.warmup)
    digests = digest_documents(deliveries, [ts for _, ts, _ in documents])
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(digests[:published]))
    os.replace(tmp, path)
    return digests, False
