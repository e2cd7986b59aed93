"""Subscriptions: a registered query, its lifecycle, and its delivery sinks.

A subscription has a real lifecycle now:

* :meth:`Subscription.pause` / :meth:`Subscription.resume` — temporarily
  mute deliveries; the query stays registered and keeps costing processing
  time (the old ``unsubscribe`` semantics).
* :meth:`Subscription.cancel` — *retract* the subscription: the broker
  deregisters the query from its engine, releasing its templates,
  relevance-index postings, plan-cache entries and join state (see
  :meth:`repro.core.engine._BaseEngine.deregister_query`).

Deliveries flow through :class:`~repro.pubsub.sinks.DeliverySink` objects on
both the join and the single-block filter path.  The legacy ``callback=``
and ``results`` surfaces are thin views over a :class:`CallbackSink` and a
bounded :class:`CollectingSink`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from repro.core.results import Match
from repro.xmlmodel.document import XmlDocument
from repro.xscl.ast import XsclQuery

#: Default bound on the legacy ``Subscription.results`` collection.  The
#: pre-sink behavior (grow forever) is available with ``result_limit=None``.
DEFAULT_RESULT_LIMIT = 1024


@dataclass
class SubscriptionResult:
    """One delivery to a subscriber.

    For join queries ``match`` carries the document pair and bindings and
    ``output`` the constructed output document (when available).  For simple
    filter subscriptions ``document`` is the matching input document.
    """

    subscription_id: str
    document: Optional[XmlDocument] = None
    match: Optional[Match] = None
    output: Optional[XmlDocument] = None


#: Type of subscriber callbacks.
Callback = Callable[[SubscriptionResult], None]


class Subscription:
    """A registered subscription handle.

    Parameters
    ----------
    subscription_id:
        The broker-assigned id (also the engine query id for join queries).
    query:
        The parsed XSCL query.
    callback:
        Called once per match (wrapped in a
        :class:`~repro.pubsub.sinks.CallbackSink`); ``None`` means results
        are only collected.
    sink:
        An additional :class:`~repro.pubsub.sinks.DeliverySink` receiving
        every result (queues, batches, custom destinations).
    result_limit:
        Bound on the legacy :attr:`results` collection (``None`` keeps it
        unbounded, the pre-sink behavior).
    """

    def __init__(
        self,
        subscription_id: str,
        query: XsclQuery,
        callback: Optional[Callback] = None,
        sink: Optional[object] = None,
        result_limit: Optional[int] = DEFAULT_RESULT_LIMIT,
    ):
        from repro.pubsub.sinks import CallbackSink, CollectingSink

        self.subscription_id = subscription_id
        self.query = query
        self.callback = callback
        self.active = True
        self.cancelled = False
        self._collector = CollectingSink(max_results=result_limit)
        self.sinks: list = [self._collector]
        if callback is not None:
            self.sinks.append(CallbackSink(callback))
        if sink is not None:
            self.sinks.append(sink)
        self._sinks_closed = False
        #: Sink deliveries that raised (see :meth:`deliver`).
        self.delivery_failures = 0
        #: The most recent exception a sink raised, if any.
        self.last_delivery_error: Optional[Exception] = None
        # Bound by the owning broker; performs the engine-side retraction.
        self._retract: Optional[Callable[[str], bool]] = None

    # ------------------------------------------------------------------ #
    # delivery
    # ------------------------------------------------------------------ #
    @property
    def is_join_subscription(self) -> bool:
        """True when the subscription is an inter-document (join) query."""
        return self.query.is_join_query

    def deliver(self, result: SubscriptionResult) -> None:
        """Route one result through every attached sink (if active).

        A sink that raises cannot starve the others: the exception is
        counted in :attr:`delivery_failures` (kept in
        :attr:`last_delivery_error`) and delivery continues with the next
        sink, the next subscription and the publisher.
        """
        if not self.active:
            return
        for sink in self.sinks:
            try:
                sink.deliver(result)
            except Exception as exc:  # noqa: BLE001 - isolate faulty consumers
                self.delivery_failures += 1
                self.last_delivery_error = exc

    def attach_sink(self, sink) -> None:
        """Attach an additional delivery sink."""
        self.sinks.append(sink)

    @property
    def results(self) -> List[SubscriptionResult]:
        """The retained deliveries (bounded by ``result_limit``), oldest first.

        Returns a fresh snapshot list on every access: mutating it (e.g.
        ``sub.results.clear()``) does not affect the retained results.  To
        drop the retained results, clear the collecting sink itself
        (``sub.sinks[0].clear()``).
        """
        return self._collector.results

    @property
    def num_results(self) -> int:
        """Number of deliveries made so far (including any beyond the bound)."""
        return self._collector.delivered

    @property
    def num_results_dropped(self) -> int:
        """Deliveries evicted from :attr:`results` by the bound."""
        return self._collector.dropped

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def pause(self) -> None:
        """Mute deliveries; the query stays registered (cheap to resume)."""
        self.active = False

    def resume(self) -> None:
        """Resume deliveries after :meth:`pause`.

        A cancelled subscription cannot be resumed — its query was
        deregistered; subscribe again instead.
        """
        if self.cancelled:
            raise RuntimeError(
                f"subscription {self.subscription_id!r} was cancelled; "
                "its query is no longer registered — subscribe again"
            )
        self.active = True

    def cancel(self) -> bool:
        """Retract the subscription: deregister its query and reclaim state.

        Returns ``True`` if the subscription was cancelled by this call
        (``False`` when already cancelled).  Flushes and closes the attached
        sinks.  Idempotent.
        """
        if self.cancelled:
            return False
        if self._retract is not None:
            self._retract(self.subscription_id)
        else:
            self._mark_cancelled()
        return True

    def _mark_cancelled(self) -> None:
        """Broker-side bookkeeping: deactivate and close the sinks."""
        self.active = False
        self.cancelled = True
        self.close_sinks()

    def flush(self) -> None:
        """Flush every attached sink (e.g. pending batches)."""
        for sink in self.sinks:
            sink.flush()

    def close_sinks(self) -> None:
        """Flush and close every attached sink.

        Every sink gets its ``close()`` call even if an earlier one raises
        (a :class:`~repro.pubsub.sinks.BatchingSink` later in the list must
        still flush its pending batch); the first error is re-raised after
        the loop.  Idempotent: once every sink has had its ``close()``
        attempt, later calls (cancel followed by broker close) are no-ops —
        a sink that raised is not retried.
        """
        if self._sinks_closed:
            return
        self._sinks_closed = True
        first_error: Optional[BaseException] = None
        for sink in self.sinks:
            try:
                sink.close()
            except BaseException as exc:  # noqa: BLE001 - close all sinks
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("active" if self.active else "paused")
        return (
            f"<Subscription {self.subscription_id!r} {state} "
            f"results={self.num_results}>"
        )


def delivery_failure_stats(subscriptions: Iterable[Subscription]) -> dict:
    """The brokers' ``stats()["delivery_failures"]`` entry.

    ``total`` counts every sink delivery that raised; ``by_subscription``
    lists the subscriptions with at least one failure.
    """
    by_subscription = {
        s.subscription_id: s.delivery_failures
        for s in subscriptions
        if s.delivery_failures
    }
    return {"total": sum(by_subscription.values()), "by_subscription": by_subscription}
