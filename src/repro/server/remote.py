"""Metered client-side proxies for remote servers.

The mobile device never talks to a :class:`~repro.server.server.SpatialServer`
directly; it holds a :class:`RemoteServer`, which forwards every call over
a byte-accounting :class:`~repro.network.channel.Channel`:

* the request is accounted on the uplink (query string, plus probe objects
  for bucket range queries),
* the response is accounted on the downlink (objects or a scalar).

``RemoteServer`` therefore *is* the measurement harness: the byte totals of
every experiment are read off its channels after the join finishes.

Every batch endpoint is ``book(evaluate(...))``: the backing build answers
the rows without touching its statistics (``evaluate_*``) and the
connection books the answer (``count_batch_prefetched`` / ``book_*``) --
the backing server's statistics by the one
:class:`~repro.server.server.ServerQueryStats` rule of the kind, then the
exchange.  The step driver (:mod:`repro.device.steps`) calls the same two
halves, for one query or a whole wave, so nothing booked can tell who
evaluated the rows.

:class:`IndexedRemoteServer` additionally exposes the R-tree level MBRs and
a "forwarded window" operation; only the SemiJoin comparator uses it (the
paper assumes R-tree-published servers for that algorithm alone).

Resilience (PR 7).  A proxy may carry a :class:`ResilienceController`: every
metered exchange then runs through a retry loop against the deterministic
fault stream of :mod:`repro.network.faults`.  The protocol is built on
**idempotent request ids** -- the server caches the answer of the first
evaluation of a request id, so a retried exchange re-sends bytes but never
re-evaluates (and never re-bumps server statistics).  In the simulation
that shows up as an *evaluate-once* structure: each method evaluates the
backing server exactly once, then hands the channel-accounting closure to
the controller, which accounts failed/duplicated attempts on the channel's
retry lane and the one successful attempt on the primary lane.  The primary
ledger of a fault-injected run is therefore structurally identical to the
fault-free run; only the retry lane and the resilience counters differ.

Replication.  A connection is a *replica set*: a plain server is a
set of one, and a shard published on R replicas is a set of R, with one
channel (and one deterministic fault substream) per replica and every
exchange tried on the replicas in one health order (probe, healthy, failed
this query, down; index within a rank).  When an exchange exhausts its
retries on one replica, the proxy *fails over*: the identical request is
replayed against a sibling replica (idempotent request ids make the replay
safe).  The failed attempts were already accounted on the losing replica's
retry lane, and the winning replica accounts the exchange on its primary
lane -- so the shard-level merged primary ledger stays bit-identical to the
unreplicated fault-free run under any recoverable plan.  Only when every
replica of a shard fails the same exchange does the proxy surface a typed
:class:`~repro.errors.ServerUnavailable` for the whole shard; a set of one
has no sibling, so its replica's own typed error propagates unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    ChannelFault,
    InvalidInput,
    QueryTimeout,
    RetryExhausted,
    ServerUnavailable,
)
from repro.geometry import rect_array
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.rect_array import Windows
from repro.index.aggregate_rtree import Probes, bucket_probe_arrays, probe_arrays
from repro.network.channel import Channel
from repro.network.config import NetworkConfig
from repro.network.faults import FaultInjector, FaultKind, FaultPlan, RetryPolicy
from repro.network.messages import (
    AggregateQuery,
    BucketRangeQuery,
    CountQuery,
    MessageKind,
    ObjectPayload,
    RangeQuery,
    ScalarResponse,
    WindowQuery,
)
from repro.server.server import Prefetched, SpatialServer, per_request
from repro.server.sharded import FleetStats, RoutedCounts, ShardedSpatialServer, probe_squares

__all__ = [
    "RemoteServer",
    "IndexedRemoteServer",
    "ShardedRemoteServer",
    "ResilienceController",
    "SEMIJOIN_NEEDS_ONE_INDEX",
    "ServerPair",
]


class ResilienceController:
    """Per-query retry/timeout state shared by both of a session's proxies.

    Parameters
    ----------
    faults:
        The :class:`FaultPlan` to inject, or ``None`` for a reliable
        network (exchanges account directly, nothing is drawn).
    retry:
        Client retry policy; defaults to :class:`RetryPolicy()`.
    deadline_s:
        Optional per-query deadline budget in *simulated* seconds.  Stall
        latencies and retry backoffs advance the clock; crossing the budget
        raises :class:`QueryTimeout`.
    metrics:
        Optional read-only :class:`repro.obs.MetricsRegistry` counting
        faults, retries and failovers.

    One controller per query: its injectors are keyed by channel (server)
    name, so the fault stream each server sees depends only on the plan
    seed and that query's own exchange sequence -- the determinism contract
    that makes broker and standalone execution draw identical events.
    """

    def __init__(
        self,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        deadline_s: Optional[float] = None,
        metrics=None,
    ) -> None:
        self.plan = faults
        self.retry = retry if retry is not None else RetryPolicy()
        self.deadline_s = deadline_s
        self.elapsed_s = 0.0
        self.exchanges = 0
        self.attempts = 0
        self.retries = 0
        self.drops = 0
        self.stalls = 0
        self.duplicates_discarded = 0
        self.unavailable = 0
        self.failovers = 0
        self._failover_events: List[Tuple[str, str, str, str]] = []
        self._injectors: Dict[str, FaultInjector] = {}
        self._channels: List[Channel] = []
        # Observability hooks -- strictly read-only.  ``trace_span`` is the
        # owning query's span (set by the algorithm at run start); fault,
        # retry and failover events append there.  The healthy no-injector
        # fast path in :meth:`exchange` touches neither hook.
        self.trace_span = None
        self.metrics = metrics

    # ------------------------------------------------------------------ #

    def register(self, channel: Channel) -> None:
        """Attach a channel so its retry lane shows up in :meth:`summary`."""
        self._channels.append(channel)

    def injector(self, server_name: str) -> Optional[FaultInjector]:
        """The (memoised) fault stream of one server's channel."""
        if self.plan is None:
            return None
        injector = self._injectors.get(server_name)
        if injector is None:
            injector = self.plan.injector(server_name)
            self._injectors[server_name] = injector
        return injector

    def exchange(self, channel: Channel, label: str, account: Callable[[], None]) -> None:
        """Run one logical exchange through the fault/retry protocol.

        ``account`` performs the exchange's channel accounting (request
        record(s) then response record(s)); the server evaluation already
        happened, exactly once, before this call.  On success ``account``
        runs on the primary lane; every failed or duplicated attempt runs
        it inside a :meth:`~Channel.fault_lane` scope instead, so its bytes
        land on the retry lane (with the direction that never hit the wire
        suppressed).
        """
        self.exchanges += 1
        injector = self.injector(channel.name)
        if injector is None:
            self.attempts += 1
            account()
            return
        failures = 0
        while True:
            self.attempts += 1
            event = injector.next_event(label)
            kind = event.kind
            if kind is FaultKind.OK:
                account()
                return
            if kind is FaultKind.STALL:
                self.stalls += 1
                account()
                self._note_fault("stall", channel.name, label)
                self._advance(event.latency_s, label)
                return
            if kind is FaultKind.DUPLICATE:
                # The exchange succeeded; the response was delivered twice.
                # The duplicate carries an already-seen request id and is
                # discarded -- its downlink bytes land on the retry lane.
                self.duplicates_discarded += 1
                account()
                with channel.fault_lane("down"):
                    account()
                self._note_fault("duplicate", channel.name, label)
                return
            if kind is FaultKind.DISCONNECT:
                with channel.fault_lane("up"):
                    account()
                self._note_fault("disconnect", channel.name, label)
                raise ChannelFault(
                    f"link to server {channel.name!r} lost mid-query "
                    f"(exchange {event.op_index}, {label!r})",
                    server=channel.name,
                    op_index=event.op_index,
                    kind="disconnect",
                    recoverable=False,
                )
            # DROP (round trip burned) or UNAVAILABLE (request went out,
            # nobody answered): account the attempt on the retry lane,
            # then back off and retry -- or give up.
            if kind is FaultKind.DROP:
                self.drops += 1
                scope = "both"
            else:
                self.unavailable += 1
                scope = "up"
            with channel.fault_lane(scope):
                account()
            self._note_fault(kind.value, channel.name, label)
            failures += 1
            if failures >= self.retry.max_attempts:
                fault = ChannelFault(
                    f"exchange {label!r} to server {channel.name!r} failed "
                    f"{failures} times ({kind.value})",
                    server=channel.name,
                    op_index=event.op_index,
                    kind=kind.value,
                    recoverable=True,
                )
                if kind is FaultKind.UNAVAILABLE:
                    raise ServerUnavailable(
                        f"server {channel.name!r} unavailable after {failures} "
                        f"attempts at exchange {event.op_index} ({label!r})",
                        server=channel.name,
                        op_index=event.op_index,
                        kind="unavailable",
                        recoverable=True,
                    )
                raise RetryExhausted(
                    f"retry budget exhausted on {label!r} to server "
                    f"{channel.name!r} ({failures} attempts, last: {kind.value})",
                    last_fault=fault,
                )
            self.retries += 1
            self._note_retry(channel.name, label, failures)
            self._advance(self.retry.backoff_for(failures), label)

    def reset(self) -> None:
        """Return the controller to its seeded origin for a fresh run.

        Clears the simulated clock, all counters and the per-server fault
        streams -- a session reused across runs draws the same event
        sequence every time, exactly like a newly built stack.
        """
        self.elapsed_s = 0.0
        self.exchanges = 0
        self.attempts = 0
        self.retries = 0
        self.drops = 0
        self.stalls = 0
        self.duplicates_discarded = 0
        self.unavailable = 0
        self.failovers = 0
        self._failover_events.clear()
        self._injectors.clear()

    def _note_fault(self, kind: str, server: str, label: str) -> None:
        """Emit one fault event to the observability hooks (if attached).

        Only the fault branches of :meth:`exchange` call this, so healthy
        exchanges -- the hot path -- never pay for the checks.
        """
        span = self.trace_span
        if span is not None:
            span.event("fault", sim=self.elapsed_s, kind=kind, server=server, label=label)
        if self.metrics is not None:
            self.metrics.counter(
                "repro_faults_total",
                "Fault events drawn on the metered channels, by kind and server",
            ).inc(kind=kind, server=server)

    def _note_retry(self, server: str, label: str, attempt: int) -> None:
        span = self.trace_span
        if span is not None:
            span.event(
                "retry", sim=self.elapsed_s, server=server, label=label, attempt=attempt
            )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_retries_total",
                "Exchange retries after recoverable faults, by server",
            ).inc(server=server)

    def _advance(self, seconds: float, label: str) -> None:
        """Advance the simulated clock, enforcing the deadline budget."""
        self.elapsed_s += seconds
        if self.deadline_s is not None and self.elapsed_s > self.deadline_s:
            raise QueryTimeout(
                f"query deadline budget exceeded during {label!r}: "
                f"{self.elapsed_s:.3f}s simulated > {self.deadline_s:.3f}s budget"
            )

    def note_failover(self, shard: str, replica: str, label: str, kind: str) -> None:
        """Record one mid-query failover (a replica exchange abandoned).

        Called by :class:`RemoteServer` after an exchange
        exhausted its retries on one replica and is about to replay on a
        sibling; the broker reads the per-replica events to charge the
        right breaker units.
        """
        self.failovers += 1
        self._failover_events.append((shard, replica, label, kind))
        span = self.trace_span
        if span is not None:
            span.event(
                "failover",
                sim=self.elapsed_s,
                shard=shard,
                replica=replica,
                label=label,
                kind=kind,
            )
        if self.metrics is not None:
            self.metrics.counter(
                "repro_failovers_total",
                "Mid-query failovers between replicas, by shard and replica",
            ).inc(shard=shard, replica=replica)

    # ------------------------------------------------------------------ #

    def fault_events(self) -> Dict[str, Tuple[Tuple[int, str, str], ...]]:
        """Per-server drawn fault sequences (the determinism fingerprint)."""
        return {name: inj.event_tuples() for name, inj in sorted(self._injectors.items())}

    def summary(self) -> Dict[str, object]:
        """Counters + retry-lane totals, attached to ``JoinResult.resilience``."""
        return {
            "deadline_s": self.deadline_s,
            "elapsed_s": self.elapsed_s,
            "exchanges": self.exchanges,
            "attempts": self.attempts,
            "retries": self.retries,
            "drops": self.drops,
            "stalls": self.stalls,
            "duplicates_discarded": self.duplicates_discarded,
            "unavailable": self.unavailable,
            "failovers": self.failovers,
            "failover_events": tuple(self._failover_events),
            "retry_bytes": {ch.name: ch.retry_bytes for ch in self._channels},
            "fault_events": self.fault_events(),
        }


#: The batched protocols' query strings are sized by kind, never by window
#: or probe: a uniform batch is accounted through one stand-in message.
_ANY_WINDOW = Rect(0.0, 0.0, 0.0, 0.0)
_ANY_POINT = Point(0.0, 0.0)

class RemoteServer:
    """A metered proxy in front of one server, or one shard's replica set.

    Parameters
    ----------
    replicas:
        The backing servers: a plain server alone, or the R replicas of one
        shard (one immutable build under R names).
    channels:
        One accounting channel per replica, parallel to ``replicas``; the
        experiment reads the totals from them.
    resilience:
        Optional shared :class:`ResilienceController`; when present every
        exchange runs through its fault/retry protocol.
    name:
        The connection's name (a shard's); defaults to the lone server's.

    Every exchange tries the replicas in one order (see the module notes on
    failover), which ranks each replica by what is known of its health and
    breaks ties by replica index:

    0. *probe* -- the broker's half-open breaker verdict, so the probe
       traffic reaches the recovering replica;
    1. healthy;
    2. failed an exchange of this query (forgotten by :meth:`reset_channels`);
    3. *down* -- the broker's verdict for a breaker still cooling: tried
       last-resort only.

    The broker marks (:meth:`apply_health`) live as long as the stack.
    """

    def __init__(
        self,
        replicas: Sequence[SpatialServer],
        channels: Sequence[Channel],
        resilience: Optional[ResilienceController] = None,
        name: Optional[str] = None,
    ) -> None:
        replicas = tuple(replicas)
        channels = tuple(channels)
        if len(channels) != len(replicas):
            raise ValueError("one channel per replica required")
        if not replicas:
            raise ValueError("a connection needs at least one replica")
        self.name = replicas[0].name if name is None else name
        self._replicas = replicas
        self._names = tuple(rep.name for rep in replicas)
        self._channels = channels
        # Representative channel: config/tariff reads (all replica channels
        # share both); at R = 1 the connection's one channel.
        self.channel = channels[0]
        self.resilience = resilience
        #: Broker marks by replica name, and this query's failed indices.
        self._down: set = set()
        self._probe: set = set()
        self._failed: set = set()
        self._reorder()
        #: ``(replica_index, its primary log length)`` whenever the replica
        #: that carries the exchanges changes, in exchange order -- the
        #: splice map of the merged primary ledger.
        self._runs: List[Tuple[int, int]] = []
        self._serving: Optional[int] = None
        self._failover_events: List[Tuple[str, str, str, str]] = []

    # ------------------------------------------------------------------ #
    # the replica order and the failover loop
    # ------------------------------------------------------------------ #

    def _rank(self, idx: int) -> Tuple[int, int]:
        name = self._names[idx]
        if name in self._down:
            return 3, idx
        if idx in self._failed:
            return 2, idx
        if name in self._probe:
            return 0, idx
        return 1, idx

    def _reorder(self) -> None:
        """Rank the replicas again (after a mark or a failure changed).

        Every booking reads the order and its head, :attr:`_server` -- the
        replica the backing evaluation and its statistics follow.
        """
        self._tried = tuple(sorted(range(len(self._replicas)), key=self._rank))
        self._server = self._replicas[self._tried[0]]

    def _order(self) -> Tuple[int, ...]:
        """Replica indices in the order the next exchange tries them."""
        return self._tried

    def _exchange(self, label: str, account: Callable[[Channel], None]) -> None:
        """Account one logical exchange, failing over between replicas on loss.

        The server evaluation already happened (exactly once); ``account``
        writes the records to the channel it is given, so the identical
        exchange can be replayed onto the next candidate's channel once one
        exhausts its retries.  Unrecoverable faults (link disconnect),
        deadline timeouts and any loss on a set of one abort the query.
        """
        order = self._tried
        for idx in order:
            channel = self._channels[idx]
            if idx != self._serving:
                self._runs.append((idx, len(channel.log)))
                self._serving = idx
            try:
                if self.resilience is None:
                    account(channel)
                else:
                    self.resilience.exchange(channel, label, lambda: account(channel))
            except (ChannelFault, RetryExhausted) as err:
                if len(order) == 1 or (isinstance(err, ChannelFault) and not err.recoverable):
                    raise
                kind = err.kind if isinstance(err, ChannelFault) else err.last_fault.kind
                self._failed.add(idx)
                self._reorder()
                self._failover_events.append((self.name, channel.name, label, kind))
                if self.resilience is not None:
                    self.resilience.note_failover(self.name, channel.name, label, kind)
                continue
            if idx in self._failed:
                self._failed.discard(idx)
                self._reorder()
            return
        raise ServerUnavailable(
            f"all {len(order)} replicas of shard {self.name!r} unavailable "
            f"during {label!r}",
            server=self.name,
            op_index=None,
            kind="unavailable",
            recoverable=True,
        )

    def apply_health(self, health: Dict[str, str]) -> None:
        """Apply broker breaker verdicts (``"down"`` / ``"probe"`` by name)."""
        for name, state in health.items():
            if name not in self._names:
                continue
            if state == "down":
                self._down.add(name)
                self._probe.discard(name)
            elif state == "probe":
                self._probe.add(name)
                self._down.discard(name)
        self._reorder()

    @property
    def config(self) -> NetworkConfig:
        return self.channel.config

    @property
    def tariff(self) -> float:
        return self.channel.tariff

    @property
    def backing_server(self) -> SpatialServer:
        """The server behind the proxy: what a step is evaluated on."""
        return self._server

    # ------------------------------------------------------------------ #
    # metered primitive queries
    # ------------------------------------------------------------------ #

    def window(self, window: Rect) -> Tuple[np.ndarray, np.ndarray]:
        mbrs, oids = self._server.window(window)

        def account(channel: Channel) -> None:
            channel.send_query(WindowQuery(window), label="window")
            channel.send_response(ObjectPayload(mbrs, oids), label="window-result")

        self._exchange("window", account)
        return mbrs, oids

    def count(self, window: Rect) -> int:
        value = self._server.count(window)

        def account(channel: Channel) -> None:
            channel.send_query(CountQuery(window), label="count")
            channel.send_response(ScalarResponse(float(value)), label="count-result")

        self._exchange("count", account)
        return value

    def window_batch(
        self, windows: Windows
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Issue many WINDOW queries, evaluated server-side in one descent.

        Each window is accounted as its own query/response exchange, so the
        wire bytes are bit-identical to a loop of :meth:`window` calls; the
        per-window payloads are slices of the flat assembly of
        :meth:`window_batch_flat`.
        """
        return per_request(*self.window_batch_flat(windows))

    def window_batch_flat(
        self, windows: Windows
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Issue many WINDOW queries; responses assembled flat in one pass.

        Returns ``(mbrs, oids, bounds)`` in CSR form, all window payloads
        concatenated in window order (window ``i`` owns rows
        ``bounds[i]:bounds[i+1]``).  The ledger is bit-identical to a loop
        of :meth:`window` calls: one uplink query record per window and one
        downlink object payload per window, sized from the per-window row
        counts -- only the server-side evaluation and the response assembly
        are batched.  It is :meth:`book_window_batch` of the backing build's
        own evaluation.
        """
        return self.book_window_batch(windows, self._server.evaluate_window_batch(windows))

    def window_batch_prefetched(self, windows: Windows, sizes: np.ndarray) -> None:
        """Book a WINDOW batch evaluated elsewhere (``sizes[i]`` objects each).

        The one booking rule of the kind: the backing server's statistics,
        then one exchange of one query string per window (whatever the
        window) and one object payload per window.  The scatter proxy
        answers all its shards' sub-batches in one forest descent, then
        books each shard's share here.
        """
        wins = rect_array.window_array(windows)
        self._server.stats.book_window(wins.shape[0], int(sizes.sum()))
        if not sizes.shape[0]:
            # An empty batch never hits the wire, so it draws no fault
            # event -- keeps fault streams aligned across execution paths.
            return

        def account(channel: Channel) -> None:
            channel.send_uniform_batch(
                WindowQuery(_ANY_WINDOW), sizes.shape[0], direction="up", label="window"
            )
            self._send_object_batch(channel, sizes, "window-result")

        self._exchange("window-batch", account)

    def book_window_batch(
        self, windows: Windows, answer: Prefetched
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`window_batch_flat` over windows the backing build already answered.

        ``answer`` is the build's :meth:`~SpatialServer.evaluate_window_batch`
        of exactly these windows (a step driver hands every query its
        share of one descent over many queries' windows).
        """
        self.window_batch_prefetched(windows, np.diff(answer.bounds))
        return answer.mbrs, answer.oids, answer.bounds

    def _send_object_batch(self, channel: Channel, sizes: np.ndarray, label: str) -> None:
        """One downlink object payload per request, ``sizes[i]`` objects each."""
        channel.send_payload_batch(
            MessageKind.OBJECTS, sizes * self.config.object_bytes, direction="down", label=label
        )

    def count_batch(self, windows: Windows) -> List[int]:
        """Issue many COUNT queries, evaluated server-side in one descent.

        Accounting is bit-identical to a loop of :meth:`count` calls.
        """
        return self.count_batch_prefetched(windows, self._server.evaluate_count_batch(windows))

    def count_batch_prefetched(
        self, windows: Windows, values: Sequence[int]
    ) -> List[int]:
        """Book a COUNT batch answered elsewhere (``values`` its counts).

        The one booking rule of the kind: the backing server's statistics,
        then one exchange of one query string and one scalar response per
        window -- what a loop of :meth:`count` calls writes.  An empty batch
        never hits the wire and draws no fault event.
        """
        values = values.tolist() if isinstance(values, np.ndarray) else list(values)
        if len(values) != len(windows):
            raise ValueError("values must be parallel to windows")
        rect_array.window_array(windows)
        n = len(values)
        self._server.stats.book_count(n)
        if not n:
            return values

        def account(channel: Channel) -> None:
            channel.send_uniform_batch(CountQuery(_ANY_WINDOW), n, direction="up", label="count")
            channel.send_uniform_batch(
                ScalarResponse(0.0), n, direction="down", label="count-result"
            )

        self._exchange("count-batch", account)
        return values

    def range(self, center: Point, epsilon: float) -> Tuple[np.ndarray, np.ndarray]:
        mbrs, oids = self._server.range(center, epsilon)

        def account(channel: Channel) -> None:
            channel.send_query(RangeQuery(center, epsilon), label="range")
            channel.send_response(ObjectPayload(mbrs, oids), label="range-result")

        self._exchange("range", account)
        return mbrs, oids

    def range_batch(
        self, centers: Probes, radii: Sequence[float]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Issue many RANGE probes, evaluated server-side in one descent.

        Unlike :meth:`bucket_range` this is *not* the bucket protocol: every
        probe is metered as its own query/response exchange, bit-identical
        to a loop of :meth:`range` calls.  The per-probe payloads are
        slices of the flat assembly of :meth:`range_batch_flat`.
        """
        return per_request(*self.range_batch_flat(centers, radii))

    def range_batch_flat(
        self, centers: Probes, radii: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Issue many RANGE probes; responses assembled flat in one pass.

        ``centers`` is a sequence of :class:`Point` or a ``(P, 2)`` array,
        checked before anything is booked.  Returns
        ``(mbrs, oids, bounds)`` in CSR form, all probe payloads
        concatenated in probe order (probe ``i`` owns rows
        ``bounds[i]:bounds[i+1]``).  The ledger is bit-identical to a loop
        of :meth:`range` calls: one uplink query record per probe and one
        downlink object payload per probe, sized from the per-probe row
        counts.  It is :meth:`book_range_batch` of the backing build's own
        evaluation.
        """
        return self.book_range_batch(
            centers, radii, self._server.evaluate_range_batch(centers, radii)
        )

    def range_batch_prefetched(
        self, centers: Probes, radii: Sequence[float], sizes: np.ndarray
    ) -> None:
        """Book a RANGE batch evaluated elsewhere (see :meth:`window_batch_prefetched`)."""
        pts, _ = probe_arrays(centers, radii)
        self._server.stats.book_range(pts.shape[0], int(sizes.sum()))
        if not sizes.shape[0]:
            return

        def account(channel: Channel) -> None:
            channel.send_uniform_batch(
                RangeQuery(_ANY_POINT, 0.0), sizes.shape[0], direction="up", label="range"
            )
            self._send_object_batch(channel, sizes, "range-result")

        self._exchange("range-batch", account)

    def book_range_batch(
        self, centers: Probes, radii: Sequence[float], answer: Prefetched
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`range_batch_flat` over probes already answered (see :meth:`book_window_batch`)."""
        self.range_batch_prefetched(centers, radii, np.diff(answer.bounds))
        return answer.mbrs, answer.oids, answer.bounds

    def bucket_range(
        self,
        centers: Probes,
        epsilon: float,
        radii: Optional[Sequence[float]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bucket epsilon-RANGE: many probes in one request, one exchange.

        Returns ``(mbrs, oids, probe_index)``, ``probe_index[i]`` the probe
        that produced row ``i``.  Rows are *not* deduplicated across probes
        -- the server answers each probe independently, as a sequence of
        range queries would, and the client pays the duplicated bytes.
        ``radii`` overrides ``epsilon`` per probe.  It is
        :meth:`book_bucket_range` of the backing build's own evaluation.
        """
        pts, reach = bucket_probe_arrays(centers, epsilon, radii)
        return self.book_bucket_range(
            pts, epsilon, reach, self._server.evaluate_range_batch(pts, reach)
        )

    def bucket_range_prefetched(
        self, centers: Probes, epsilon: float, radii: Sequence[float], n_objects: int
    ) -> None:
        """Book a bucket RANGE query evaluated elsewhere (``n_objects`` returned)."""
        n_probes = bucket_probe_arrays(centers, epsilon, radii)[0].shape[0]
        self._server.stats.book_bucket(n_probes, n_objects)

        def account(channel: Channel) -> None:
            channel.send_query(BucketRangeQuery.of_size(n_probes, epsilon), label="bucket-range")
            # Eq. 5 of the paper charges one extra object-sized separator per
            # probe in the bucket response (the "+ Bobj" term).
            self._send_object_batch(
                channel, np.array([n_objects + n_probes]), "bucket-range-result"
            )

        self._exchange("bucket-range", account)

    def book_bucket_range(
        self,
        centers: Probes,
        epsilon: float,
        radii: Sequence[float],
        answer: Prefetched,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`bucket_range` over probes already answered (see :meth:`book_window_batch`).

        ``answer`` evaluated the probes with their per-probe ``radii``, as
        the bucket query itself does.
        """
        self.bucket_range_prefetched(centers, epsilon, radii, int(answer.oids.shape[0]))
        probes = np.repeat(answer.request, np.diff(answer.bounds))
        return answer.mbrs, answer.oids, probes

    def average_mbr_area(self, window: Rect) -> float:
        value = self._server.average_mbr_area(window)

        def account(channel: Channel) -> None:
            channel.send_query(
                AggregateQuery(window, "avg_mbr_area"), label="aggregate"
            )
            channel.send_response(ScalarResponse(value), label="aggregate-result")

        self._exchange("aggregate", account)
        return value

    # ------------------------------------------------------------------ #
    # connection introspection (one channel per replica)
    # ------------------------------------------------------------------ #

    @property
    def channels(self) -> Tuple[Channel, ...]:
        """All accounting channels behind this connection, replica order."""
        return self._channels

    def reset_channels(self) -> None:
        """Zero every channel ledger and forget this query's failures."""
        for channel in self._channels:
            channel.reset()
        self._runs.clear()
        self._serving = None
        self._failover_events.clear()
        self._failed.clear()
        self._reorder()

    def failover_events(self) -> Tuple[Tuple[str, str, str, str], ...]:
        """``(shard, replica, label, kind)`` per abandoned replica exchange."""
        return tuple(self._failover_events)

    def channel_snapshot(self) -> Dict[str, object]:
        """The ledger snapshot: the channel's own at R = 1, else summed
        totals plus per-replica detail."""
        snaps = [chan.snapshot() for chan in self._channels]
        if len(snaps) == 1:
            return snaps[0]
        return _merge_snapshots(self.name, self.tariff, "replicas", snaps)

    def ledger_fingerprint(self) -> Tuple:
        """Bit-exact fingerprint of the connection's primary-lane ledger."""
        return self.ledger_reader()()

    def ledger_reader(self) -> Callable[[], Tuple]:
        """The merged primary-lane fingerprint, to call later (holds the channels).

        Splices the per-replica primary log digests back into exchange
        order (a run of exchanges one replica carried is the slice of its
        log up to where its next run starts) and sums the per-replica
        primary counters.  Shaped like :meth:`Channel.ledger_fingerprint`
        (records carry no channel name), so it is replica-agnostic: a
        replicated shard under a recoverable plan fingerprints like the
        unreplicated fault-free shard, and a set of one like its channel.
        """
        name, channels = self.name, self._channels
        runs = tuple(self._runs)
        ends = [len(chan.log) for chan in channels]

        def fingerprint() -> Tuple:
            digests = [chan.log.fingerprint() for chan in channels]
            stop = list(ends)
            spans = []
            for idx, start in reversed(runs):
                spans.append(digests[idx][start : stop[idx]])
                stop[idx] = start
            records = tuple(record for span in reversed(spans) for record in span)
            sums = [sum(getattr(chan, key) for chan in channels) for key in _LEDGER_TOTALS]
            return (name, *sums, records)

        return fingerprint

    def server_stats(self) -> Dict[str, int]:
        """Replica-summed statistics (evaluation may move on failover)."""
        return FleetStats(self._replicas).as_dict()

    def total_bytes(self) -> int:
        """Total wire bytes moved over this connection so far."""
        return sum(chan.total_bytes for chan in self._channels)

    def total_cost(self) -> float:
        """Tariff-weighted cost of this connection so far."""
        return sum(chan.total_cost for chan in self._channels)


class IndexedRemoteServer(RemoteServer):
    """A remote server that additionally publishes its R-tree (SemiJoin only).

    The paper's SemiJoin comparator assumes both datasets are R-tree
    indexed and that the intermediate-level MBRs can be shipped between the
    servers (through the PDA, since the servers do not cooperate).  Those
    privileged operations are metered exactly like ordinary queries.
    """

    def tree_height(self) -> int:
        """Height of the server's R-tree (metadata; accounted as an aggregate)."""
        height = self._server.index.height

        def account(channel: Channel) -> None:
            channel.send_query(
                AggregateQuery(self._server.dataset.bounds(), "count"),
                label="tree-height",
            )
            channel.send_response(
                ScalarResponse(float(height)), label="tree-height-result"
            )

        self._exchange("tree-height", account)
        return height

    def object_count(self) -> int:
        """Total object count (metadata; accounted as an aggregate exchange)."""
        n = len(self._server.dataset)

        def account(channel: Channel) -> None:
            channel.send_query(
                AggregateQuery(self._server.dataset.bounds(), "count"), label="size"
            )
            channel.send_response(ScalarResponse(float(n)), label="size-result")

        self._exchange("size", account)
        return n

    def level_mbrs(self) -> List[Rect]:
        """Download the MBRs of the second-to-last R-tree level.

        The response is accounted as one object payload whose size is the
        number of MBRs (an MBR weighs one ``B_obj``, like any other spatial
        object on the wire).
        """
        mbrs = self._server.index.second_to_last_level_mbrs()
        rects = [Rect(*row) for row in mbrs.tolist()]
        oids = np.arange(mbrs.shape[0], dtype=np.int64)

        def account(channel: Channel) -> None:
            channel.send_query(
                AggregateQuery(self._server.dataset.bounds(), "count"),
                label="level-mbrs",
            )
            channel.send_response(
                ObjectPayload(mbrs, oids), label="level-mbrs-result"
            )

        self._exchange("level-mbrs", account)
        return rects

    def upload_windows_and_collect(
        self, windows: Windows
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Ship a batch of windows (MBRs) to the server; get back all objects inside.

        This is the SemiJoin step "all the objects of R inside these MBRs
        will be transferred back" with the PDA acting as mediator: the
        upload is charged as an object payload (one ``B_obj`` per MBR) and
        the response as a normal object payload.  Duplicate objects that
        fall in several windows are returned once (the server deduplicates
        before shipping, as the original algorithm does).  The server side
        reads the CSR window batch directly, so the relayed object set is
        assembled over one concatenated array.  ``windows`` is a sequence of
        :class:`Rect` or an ``(N, 4)`` array.
        """
        windows = rect_array.window_array(windows)
        if not windows.shape[0]:
            return np.empty((0, 4)), np.empty(0, dtype=np.int64)
        all_mbrs, all_oids, _ = self._server.window_batch_flat(windows)
        # Deduplicate objects returned by several windows, keeping the
        # first-seen order.
        _, first = np.unique(all_oids, return_index=True)
        keep = np.sort(first)
        mbrs_out = all_mbrs[keep]
        oids_out = all_oids[keep]

        def account(channel: Channel) -> None:
            # The query string + one object per window: exactly what
            # shipping the MBR list costs.
            channel.send_query(
                BucketRangeQuery.of_size(len(windows), 0.0), label="semijoin-windows"
            )
            channel.send_response(
                ObjectPayload(mbrs_out, oids_out), label="semijoin-objects"
            )

        self._exchange("semijoin-windows", account)
        return mbrs_out, oids_out

    #: The name ``benchmarks/e2e/layers.py`` (frozen) still patches.
    upload_windows_and_collect_flat = upload_windows_and_collect

    def upload_objects_and_join(
        self,
        mbrs: np.ndarray,
        oids: np.ndarray,
        epsilon: float,
    ) -> np.ndarray:
        """Ship foreign objects to this server and let it perform the final join.

        This is SemiJoin's last step: the qualifying objects of the small
        dataset are uploaded (through the PDA) and the server joins them
        against its own data with an in-memory kernel, returning the sorted
        ``(foreign_oid, local_oid)`` pairs as a ``(k, 2)`` ``int64`` block.
        The upload is charged as an object payload, the result as one
        object-sized row per pair.
        """
        from repro.geometry.predicates import (  # local import: avoids a cycle
            IntersectionPredicate,
            WithinDistancePredicate,
        )
        from repro.index.hash_join import JoinBatch, grid_hash_join_batch

        if mbrs.shape[0] == 0:
            return np.empty((0, 2), dtype=np.int64)
        predicate = (
            WithinDistancePredicate(epsilon=epsilon)
            if epsilon > 0
            else IntersectionPredicate()
        )
        local = self._server.dataset
        pairs, _ = grid_hash_join_batch(
            JoinBatch.one(mbrs, oids, local.mbrs, local.oids), predicate
        )
        result_mbrs = np.zeros((len(pairs), 4), dtype=np.float64)
        result_oids = np.arange(len(pairs), dtype=np.int64)

        def account(channel: Channel) -> None:
            channel.send_query(
                BucketRangeQuery.of_size(mbrs.shape[0], max(epsilon, 0.0)),
                label="semijoin-upload",
            )
            channel.send_response(
                ObjectPayload(result_mbrs, result_oids), label="semijoin-result"
            )

        self._exchange("semijoin-upload", account)
        return pairs


#: The ledger totals a fleet snapshot sums over its members' snapshots.
_SUMMED_SNAPSHOT_KEYS = (
    "uplink_bytes",
    "downlink_bytes",
    "total_bytes",
    "uplink_packets",
    "downlink_packets",
    "messages_up",
    "messages_down",
    "total_cost",
)


#: The primary-lane counters of a ledger fingerprint, in its order.
_LEDGER_TOTALS = ("uplink_bytes", "downlink_bytes", "uplink_packets", "downlink_packets",
                  "messages_up", "messages_down")


def _merge_snapshots(
    name: str, tariff: float, detail_key: str, snaps: List[Dict[str, object]]
) -> Dict[str, object]:
    """One ledger snapshot over member snapshots: summed totals plus the detail."""
    merged: Dict[str, object] = {"name": name}
    for key in _SUMMED_SNAPSHOT_KEYS:
        merged[key] = sum(snap[key] for snap in snaps)
    merged["tariff"] = tariff
    merged[detail_key] = snaps
    return merged


class ShardedRemoteServer:
    """A metered scatter/merge proxy in front of a shard fleet.

    The device-side algorithms see one connection with the endpoints of a
    :class:`RemoteServer`; underneath, every shard is its own
    :class:`RemoteServer` over its replica set, one :class:`Channel` per
    replica (named after it, e.g. ``"R#2"`` or ``"R#2/1"``), so per-shard
    byte ledgers, retry lanes, deterministic fault substreams and failover
    come for free.

    Routing is by bounds intersection: a request window is scattered only
    to the non-empty shards whose dataset bounds it intersects; a range
    probe is routed through its Chebyshev square ``centre +- radius``
    (min-distance <= radius implies the object MBR intersects that square,
    and every shard object's MBR lies inside the shard bounds, so routing
    never loses an answer).  Requests routed to zero shards produce empty
    answers without touching any wire.

    A batch endpoint is *evaluate once, attribute per shard* -- the
    composition ``book(evaluate(...))`` of a plain connection: the request
    batch becomes ``(shard, request)`` rows (request-major, shards
    ascending -- :meth:`ShardedSpatialServer.route`), **one** descent of
    the fleet's forest answers every row, and the booker hands each routed
    shard's proxy its own rows through that proxy's ``*_prefetched``
    booker.  The merged answer is the descent's own output read at request
    boundaries (summed COUNTs, payload rows request-major with shards
    ascending inside a request), bit-identical to the union server's.  Four
    ordering rules keep channels, ledgers, fault substreams, replica orders
    and statistics identical to a shard-by-shard scatter:

    1. shards are attributed in ascending order, one exchange each;
    2. a shard no row routes to is not touched and draws no fault event;
    3. a shard's statistics are bumped at its attribution step, on the
       replica at the head of its replica order at that moment, just before
       its exchange;
    4. an unrecoverable fault at one shard propagates at once: the shards
       after it stay unbooked.
    """

    def __init__(
        self,
        fleet: ShardedSpatialServer,
        channels: Sequence[Channel],
        resilience: Optional[ResilienceController] = None,
    ) -> None:
        channels = tuple(channels)
        expected = sum(len(group) for group in fleet.replica_groups)
        if len(channels) != expected:
            raise ValueError(
                "one channel per replica required "
                f"(fleet has {expected}, got {len(channels)})"
            )
        self._fleet = fleet
        self.name = fleet.name
        self.resilience = resilience
        # One replica-set connection per shard.  Channels arrive
        # replica-major in fleet order: R#0/0, R#0/1, ..., R#1/0, ...
        proxies: List[RemoteServer] = []
        pos = 0
        for group, shard_name in zip(fleet.replica_groups, fleet.shard_names):
            proxies.append(
                RemoteServer(group, channels[pos : pos + len(group)], resilience, shard_name)
            )
            pos += len(group)
        self._proxies = tuple(proxies)

    # ------------------------------------------------------------------ #
    # routing and per-shard attribution
    # ------------------------------------------------------------------ #

    def _routed(self, window: Rect) -> List[int]:
        """Shard indices one window scatters to: the one-row case of the routing."""
        return self._fleet.route(rect_array.window_array([window]))[0].tolist()

    @staticmethod
    def _by_shard(shard: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
        """``(shard, its row positions)``, shards ascending, rows in request order."""
        order = np.argsort(shard, kind="stable")
        for at in np.split(order, np.flatnonzero(np.diff(shard.take(order))) + 1):
            if at.shape[0]:
                yield int(shard[at[0]]), at

    def _book(self, answer, per_row: np.ndarray, book) -> None:
        """Book one evaluated batch shard by shard.

        ``book(proxy, requests, values)`` attributes one shard's rows -- the
        request indices it was routed, ascending, and their ``per_row``
        values (objects returned, or counted) -- through that shard's
        ``*_prefetched`` booker.
        """
        for si, at in self._by_shard(answer.shard):
            book(self._proxies[si], answer.request.take(at), per_row.take(at))

    @staticmethod
    def _request_bounds(request: np.ndarray, n_requests: int, bounds: np.ndarray) -> np.ndarray:
        """Row-level CSR ``bounds`` read at request boundaries (rows are request-major)."""
        return bounds.take(np.searchsorted(request, np.arange(n_requests + 1)))

    # ------------------------------------------------------------------ #
    # metered primitive queries (scatter to shards, merge answers)
    # ------------------------------------------------------------------ #

    def window(self, window: Rect) -> Tuple[np.ndarray, np.ndarray]:
        return _stack_payloads(
            [self._proxies[i].window(window) for i in self._routed(window)]
        )

    def window_batch(
        self, windows: Windows
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        return per_request(*self.window_batch_flat(windows))

    def window_batch_flat(
        self, windows: Windows
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        windows = rect_array.window_array(windows)
        return self.book_window_batch(windows, self._fleet.evaluate_window_batch(windows))

    def book_window_batch(
        self, windows: Windows, answer: Prefetched
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Book, shard by shard, a WINDOW batch the fleet already evaluated.

        The book half of :meth:`window_batch_flat`; a step driver calls it
        with this query's share of a descent it made for one or many queries.
        """
        windows = rect_array.window_array(windows)
        self._book(
            answer,
            np.diff(answer.bounds),
            lambda proxy, mine, sizes: proxy.window_batch_prefetched(windows[mine], sizes),
        )
        return (
            answer.mbrs,
            answer.oids,
            self._request_bounds(answer.request, len(windows), answer.bounds),
        )

    def count(self, window: Rect) -> int:
        return sum(self._proxies[i].count(window) for i in self._routed(window))

    def count_batch(self, windows: Windows) -> List[int]:
        windows = rect_array.window_array(windows)
        return self.count_batch_prefetched(windows, self._fleet.evaluate_count_batch(windows))

    def count_batch_prefetched(self, windows: Windows, values: RoutedCounts) -> List[int]:
        """Book, shard by shard, a COUNT batch the fleet already evaluated.

        ``values`` is the fleet's :meth:`ShardedSpatialServer.evaluate_count_batch`
        of exactly these windows (or a step driver's share of one): its
        routed rows say which shards to charge, so booking routes nothing
        again.  Each routed shard is charged exactly what :meth:`count_batch`
        over the same windows charges it.
        """
        windows = rect_array.window_array(windows)
        if len(values) != windows.shape[0]:
            raise ValueError("values must be parallel to windows")
        self._book(
            values,
            values.rows,
            lambda proxy, mine, counts: proxy.count_batch_prefetched(windows[mine], counts),
        )
        return list(values)

    def range(self, center: Point, epsilon: float) -> Tuple[np.ndarray, np.ndarray]:
        probe = probe_squares(*probe_arrays([center], [epsilon]))
        return _stack_payloads(
            [
                self._proxies[i].range(center, epsilon)
                for i in self._fleet.route(probe)[0].tolist()
            ]
        )

    def range_batch(
        self, centers: Probes, radii: Sequence[float]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        return per_request(*self.range_batch_flat(centers, radii))

    def range_batch_flat(
        self, centers: Probes, radii: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        probes = probe_arrays(centers, radii)
        return self.book_range_batch(*probes, self._fleet.evaluate_range_batch(*probes))

    def book_range_batch(
        self, centers: Probes, radii: Sequence[float], answer: Prefetched
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The book half of :meth:`range_batch_flat` (see :meth:`book_window_batch`)."""
        pts, reach = probe_arrays(centers, radii)
        self._book(
            answer,
            np.diff(answer.bounds),
            lambda proxy, mine, sizes: proxy.range_batch_prefetched(pts[mine], reach[mine], sizes),
        )
        return (
            answer.mbrs,
            answer.oids,
            self._request_bounds(answer.request, pts.shape[0], answer.bounds),
        )

    def bucket_range(
        self,
        centers: Probes,
        epsilon: float,
        radii: Optional[Sequence[float]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        pts, reach = bucket_probe_arrays(centers, epsilon, radii)
        return self.book_bucket_range(
            pts, epsilon, reach, self._fleet.evaluate_range_batch(pts, reach)
        )

    def book_bucket_range(
        self,
        centers: Probes,
        epsilon: float,
        radii: Sequence[float],
        answer: Prefetched,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The book half of :meth:`bucket_range`: one bucket exchange per routed shard."""
        pts, reach = bucket_probe_arrays(centers, epsilon, radii)
        sizes = np.diff(answer.bounds)
        self._book(
            answer,
            sizes,
            lambda proxy, mine, sizes: proxy.bucket_range_prefetched(
                pts[mine], epsilon, reach[mine], int(sizes.sum())
            ),
        )
        # Probe-major with ascending shards inside each probe: the rows' own order.
        return answer.mbrs, answer.oids, np.repeat(answer.request, sizes)

    def average_mbr_area(self, window: Rect) -> float:
        # Weighted mean of the per-shard aggregates; the weight (the
        # shard's object count in the window) rides in the same aggregate
        # response, so only the aggregate exchange is metered per shard.
        total = 0.0
        weight = 0
        for si in self._routed(window):
            proxy = self._proxies[si]
            n = proxy.backing_server.index.count(window)
            value = proxy.average_mbr_area(window)
            total += value * n
            weight += n
        return total / weight if weight else 0.0

    # ------------------------------------------------------------------ #
    # connection introspection
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> NetworkConfig:
        return self._proxies[0].config

    @property
    def tariff(self) -> float:
        return self._proxies[0].tariff

    @property
    def backing_server(self) -> ShardedSpatialServer:
        """The shard fleet behind the proxy: what a step is evaluated on."""
        return self._fleet

    @property
    def channels(self) -> Tuple[Channel, ...]:
        """All accounting channels, shard-major then replica order."""
        return tuple(chan for proxy in self._proxies for chan in proxy.channels)

    def reset_channels(self) -> None:
        for proxy in self._proxies:
            proxy.reset_channels()

    def apply_health(self, health: Dict[str, str]) -> None:
        """Push broker breaker verdicts down to every shard's replica set."""
        for proxy in self._proxies:
            proxy.apply_health(health)

    def failover_events(self) -> Tuple[Tuple[str, str, str, str], ...]:
        """All ``(shard, replica, label, kind)`` failovers, shard order."""
        return tuple(
            event for proxy in self._proxies for event in proxy.failover_events()
        )

    def channel_snapshot(self) -> Dict[str, object]:
        """Fleet ledger snapshot: summed totals plus per-shard detail."""
        shard_snaps = [proxy.channel_snapshot() for proxy in self._proxies]
        return _merge_snapshots(self.name, self.tariff, "shards", shard_snaps)

    def ledger_fingerprint(self) -> Tuple:
        """Per-shard primary-lane fingerprints, shard order (each shard's
        replica-agnostic, see :meth:`RemoteServer.ledger_reader`)."""
        return self.ledger_reader()()

    def ledger_reader(self) -> Callable[[], Tuple]:
        """:meth:`ledger_fingerprint` to call later: holds the channels only."""
        readers = [proxy.ledger_reader() for proxy in self._proxies]
        return lambda: tuple(read() for read in readers)

    def server_stats(self) -> Dict[str, int]:
        """Fleet-summed backing-server statistics."""
        return self._fleet.stats.as_dict()

    def total_bytes(self) -> int:
        """Total wire bytes over all shard connections so far."""
        return sum(proxy.total_bytes() for proxy in self._proxies)

    def total_cost(self) -> float:
        """Tariff-weighted cost over all shard connections so far."""
        return sum(proxy.total_cost() for proxy in self._proxies)


def _stack_payloads(
    parts: Sequence[Tuple[np.ndarray, np.ndarray]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-shard ``(mbrs, oids)`` payloads of one scalar query, back to back."""
    if not parts:
        return np.empty((0, 4)), np.empty(0, dtype=np.int64)
    return (
        np.vstack([m for m, _ in parts]),
        np.concatenate([o for _, o in parts]),
    )


#: Why SemiJoin cannot run on a fleet -- the one wording of the rule, for
#: injected servers (:meth:`ServerPair.connect`) and for stacks built from a
#: :class:`~repro.core.planner.StackConfig` (its ``check_algorithm``).
SEMIJOIN_NEEDS_ONE_INDEX = (
    "semijoin needs index-published servers; a sharded or replicated fleet "
    "does not publish a single R-tree"
)


@dataclass
class ServerPair:
    """The two metered connections a join session holds.

    ``r`` and ``s`` follow the paper's naming: the join is ``R join S``.
    """

    r: RemoteServer
    s: RemoteServer

    @property
    def backing(self) -> Tuple[object, object]:
        """The builds behind the two connections: what a step is evaluated on."""
        return self.r.backing_server, self.s.backing_server

    def total_bytes(self) -> int:
        """Total wire bytes over both connections (the figures' metric)."""
        return self.r.total_bytes() + self.s.total_bytes()

    def total_cost(self) -> float:
        """Tariff-weighted total cost (what the algorithms minimise)."""
        return self.r.total_cost() + self.s.total_cost()

    def reset(self) -> None:
        self.r.reset_channels()
        self.s.reset_channels()

    @staticmethod
    def connect(
        server_r: SpatialServer,
        server_s: SpatialServer,
        config: Optional[NetworkConfig] = None,
        indexed: bool = False,
        resilience: Optional[ResilienceController] = None,
        replica_health: Optional[Dict[str, str]] = None,
        observer=None,
    ) -> "ServerPair":
        """Create metered connections to two servers with a shared config.

        Either side may be a :class:`~repro.server.sharded.ShardedSpatialServer`
        fleet, in which case its connection is a scatter/merge
        :class:`ShardedRemoteServer` with one channel (and one fault
        substream) per *replica*.  ``resilience`` (if given) is shared by
        both sides: one retry policy, one deadline budget and one
        fault-plan instantiation per query, with a separate deterministic
        fault stream per channel name.  ``replica_health`` maps breaker
        unit names to ``"down"`` / ``"probe"`` breaker verdicts, applied to
        either side's replica sets at connect time.  ``observer`` is a
        read-only traffic observer threaded into every channel (see
        :class:`Channel`).
        """
        config = config or NetworkConfig()
        sharded = isinstance(server_r, ShardedSpatialServer) or isinstance(
            server_s, ShardedSpatialServer
        )
        if indexed and sharded:
            raise InvalidInput(SEMIJOIN_NEEDS_ONE_INDEX)
        proxy_cls = IndexedRemoteServer if indexed else RemoteServer

        def _connect_one(server, tariff: float):
            # One channel per breaker unit: the server itself, or every
            # replica of every shard, replica-major in fleet order.
            chans = [
                Channel(config, tariff=tariff, name=unit.name, observer=observer)
                for unit in server.breaker_units()
            ]
            if resilience is not None:
                for chan in chans:
                    resilience.register(chan)
            if isinstance(server, ShardedSpatialServer):
                proxy = ShardedRemoteServer(server, chans, resilience=resilience)
            else:
                proxy = proxy_cls((server,), chans, resilience=resilience)
            if replica_health:
                proxy.apply_health(replica_health)
            return proxy

        return ServerPair(
            r=_connect_one(server_r, config.tariff_r),
            s=_connect_one(server_s, config.tariff_s),
        )
