"""The sustained-throughput service lane.

:class:`QueryService` turns the batch-oriented
:class:`~repro.service.broker.QueryBroker` into a server: an asynchronous
continuous-admission front-end where ``submit()`` enqueues a query and
returns a ticket immediately and ``poll()``/``result()`` (or a per-query
callback) observe completion.  A background admission loop drains up to
``max_wave`` queued queries per cycle and executes them as one broker
wave, so arrivals during an executing wave accumulate into the next one --
under open-loop load the broker behaves like a server (backlog coalesces
into bigger, cheaper waves) instead of a batch executor that blocks
admission while running.

Determinism: the admission thread is the only thread that executes waves,
and every coalesced exchange is gathered and answered in submission order,
so results are bit-identical to standalone runs under any arrival
interleaving (pinned by ``tests/test_service_equivalence.py``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import QueryTimeout, ServiceClosed
from repro.service.broker import resolve_broker
from repro.service.query import JoinQuery, QueryOutcome

__all__ = ["QueryService"]


@dataclass
class _Ticket:
    """Service-internal state of one asynchronous submission."""

    index: int
    query: JoinQuery
    callback: Optional[Callable[[QueryOutcome], None]]
    submitted_at: float
    done: threading.Event = field(default_factory=threading.Event)
    outcome: Optional[QueryOutcome] = None
    error: Optional[BaseException] = None


class QueryService:
    """Continuous-admission asynchronous front-end over one broker.

    Parameters
    ----------
    broker:
        A pre-built :class:`~repro.service.broker.QueryBroker` to serve
        through (its caches, breakers and hooks apply), or
        ``None`` to build one from ``broker_kwargs``.
    broker_kwargs:
        :class:`~repro.service.broker.QueryBroker` constructor arguments
        (``config``, ``max_wave``, ``cache``, ``breaker_threshold``,
        ``cache_max_bytes``, ``tracer``, ``metrics``, ...); combining any
        of them with a pre-built broker is a ``ValueError`` rather than a
        silent override.

    Usage::

        with QueryService(max_wave=8) as service:
            tickets = [service.submit(q) for q in queries]   # non-blocking
            outcomes = [service.result(t) for t in tickets]  # blocks per query

    ``submit`` may be called from any number of client threads; admission
    is strictly FIFO in submission order.  The background loop drains up to
    ``max_wave`` tickets per cycle into one broker batch, so queries that
    arrive while a wave is executing coalesce into the next wave -- the
    open-loop serving win.  Each outcome is stamped with its ticket and its
    measured submission-to-completion latency before ``result``/``poll``
    observe it (and before the callback fires, on the service thread).
    """

    def __init__(self, broker=None, **broker_kwargs) -> None:
        self.broker = resolve_broker(broker, broker_kwargs)
        # Observability: the broker's hooks double as the service's (a
        # pre-built broker brings its own).  The latency histogram is
        # wall-clock and therefore lives outside every determinism
        # fingerprint.
        broker_metrics = getattr(self.broker, "metrics", None)
        self._latency_hist = None
        if broker_metrics is not None:
            from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS

            self._latency_hist = broker_metrics.histogram(
                "repro_query_latency_seconds",
                "Submission-to-completion service latency per query",
                buckets=DEFAULT_LATENCY_BUCKETS,
            )
        self._wake = threading.Condition()
        self._queue: "deque[_Ticket]" = deque()
        self._tickets: Dict[int, _Ticket] = {}
        self._next_ticket = 0
        self._unfinished = 0
        self._closed = False
        self._thread = threading.Thread(
            target=self._serve_loop, name="repro-service-admission", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # client surface
    # ------------------------------------------------------------------ #

    def submit(
        self,
        query: JoinQuery,
        callback: Optional[Callable[[QueryOutcome], None]] = None,
    ) -> int:
        """Enqueue one query; returns its ticket immediately.

        ``callback``, when given, fires on the service thread with the
        stamped :class:`~repro.service.query.QueryOutcome` as soon as the
        query's wave completes (before any ``result()`` waiter wakes).
        """
        with self._wake:
            if self._closed:
                raise ServiceClosed("QueryService is closed")
            ticket = _Ticket(
                index=self._next_ticket,
                query=query,
                callback=callback,
                submitted_at=time.perf_counter(),
            )
            self._next_ticket += 1
            self._tickets[ticket.index] = ticket
            self._queue.append(ticket)
            self._unfinished += 1
            self._wake.notify_all()
        return ticket.index

    def submit_all(self, queries: Sequence[JoinQuery]) -> List[int]:
        return [self.submit(query) for query in queries]

    def poll(self, ticket: int) -> bool:
        """True when the ticket's outcome (or failure) is available."""
        return self._ticket(ticket).done.is_set()

    def result(self, ticket: int, timeout: Optional[float] = None) -> QueryOutcome:
        """Block until the ticket completes; returns its outcome.

        Re-raises the execution error if the query's batch failed, and a
        typed :class:`~repro.errors.QueryTimeout` (a ``TimeoutError``)
        when ``timeout`` expires first.  The ticket is released on
        successful collection; collecting it twice raises ``KeyError``.
        """
        entry = self._ticket(ticket)
        if not entry.done.wait(timeout):
            raise QueryTimeout(f"ticket {ticket} not completed within {timeout}s")
        with self._wake:
            self._tickets.pop(ticket, None)
        if entry.error is not None:
            raise entry.error
        assert entry.outcome is not None
        return entry.outcome

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted query has completed (or failed)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._wake:
            while self._unfinished:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise QueryTimeout(
                        f"{self._unfinished} queries still in flight after {timeout}s"
                    )
                self._wake.wait(remaining)

    def close(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop admitting; finish the queued work, then stop the loop.

        ``cancel_pending=True`` instead fails every not-yet-started ticket
        with a typed :class:`~repro.errors.ServiceClosed` -- their
        ``result()`` waiters wake with the error rather than waiting for
        work that will never run.  Queries already inside an executing
        wave still complete either way.
        """
        cancelled: List[_Ticket] = []
        with self._wake:
            self._closed = True
            if cancel_pending:
                cancelled = list(self._queue)
                self._queue.clear()
            self._wake.notify_all()
        for ticket in cancelled:
            ticket.error = ServiceClosed(
                f"QueryService closed before ticket {ticket.index} was executed"
            )
            self._finish(ticket)
        if wait:
            self._thread.join()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(wait=True)

    # ------------------------------------------------------------------ #
    # the admission loop
    # ------------------------------------------------------------------ #

    def _ticket(self, ticket: int) -> _Ticket:
        with self._wake:
            return self._tickets[ticket]

    def _serve_loop(self) -> None:
        max_wave = self.broker.max_wave
        try:
            while True:
                with self._wake:
                    while not self._queue and not self._closed:
                        self._wake.wait()
                    if not self._queue:
                        return  # closed and fully drained
                    batch = [
                        self._queue.popleft()
                        for _ in range(min(max_wave, len(self._queue)))
                    ]
                tracer = getattr(self.broker, "tracer", None)
                span = None
                if tracer is not None and tracer.enabled:
                    # The admission span parents the broker's "execute"
                    # span, completing the service -> wave -> query chain.
                    span = tracer.span(
                        "admission",
                        queries=len(batch),
                        first_ticket=batch[0].index,
                    )
                    self.broker._service_span = span
                try:
                    outcomes = self.broker.run_batch([t.query for t in batch])
                except BaseException as error:  # noqa: BLE001 -- forwarded to waiters
                    self._publish_failure(batch, error)
                    continue
                finally:
                    if span is not None:
                        self.broker._service_span = None
                        span.close()
                if len(outcomes) != len(batch):
                    self._publish_failure(
                        batch,
                        ServiceClosed(
                            f"broker returned {len(outcomes)} outcomes for a "
                            f"batch of {len(batch)} queries"
                        ),
                    )
                    continue
                completed_at = time.perf_counter()
                for ticket, outcome in zip(batch, outcomes):
                    outcome.ticket = ticket.index
                    outcome.service_latency_s = completed_at - ticket.submitted_at
                    if self._latency_hist is not None:
                        self._latency_hist.observe(outcome.service_latency_s)
                    ticket.outcome = outcome
                    self._finish(ticket)
        finally:
            # The loop is exiting -- orderly or because something above
            # escaped.  A waiter blocked in result()/drain() must never
            # hang on a ticket nobody will execute: fail everything still
            # undone with a typed shutdown error.
            with self._wake:
                leftovers = [t for t in self._tickets.values() if not t.done.is_set()]
                self._queue.clear()
            for ticket in leftovers:
                ticket.error = ServiceClosed(
                    f"QueryService admission loop stopped before ticket "
                    f"{ticket.index} completed"
                )
                self._finish(ticket)

    def _publish_failure(self, batch: List[_Ticket], error: BaseException) -> None:
        for ticket in batch:
            ticket.error = error
            self._finish(ticket)

    def _finish(self, ticket: _Ticket) -> None:
        if ticket.done.is_set():
            return
        ticket.done.set()
        if ticket.callback is not None and ticket.outcome is not None:
            try:
                ticket.callback(ticket.outcome)
            except Exception:  # noqa: BLE001 -- a client callback must not
                pass  # kill the admission loop; result() still works.
        with self._wake:
            self._unfinished -= 1
            self._wake.notify_all()
