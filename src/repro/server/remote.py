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

Replication (PR 9).  A shard published on R > 1 replicas is fronted by a
:class:`ReplicatedRemoteServer`: one channel (and one deterministic fault
substream) per replica, with every exchange routed through a pluggable
:class:`ReplicaRouter`.  When an exchange exhausts its retries on one
replica, the proxy *fails over*: the identical request is replayed against
a sibling replica (idempotent request ids make the replay safe).  The
failed attempts were already accounted on the losing replica's retry lane,
and the winning replica accounts the exchange on its primary lane -- so the
shard-level merged primary ledger stays bit-identical to the unreplicated
fault-free run under any recoverable plan.  Only when every replica of a
shard fails the same exchange does the proxy surface a typed
:class:`~repro.errors.ServerUnavailable` for the whole shard.
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
from repro.server.sharded import RoutedCounts, ShardedSpatialServer, probe_squares

__all__ = [
    "RemoteServer",
    "IndexedRemoteServer",
    "ReplicatedRemoteServer",
    "ShardedRemoteServer",
    "ResilienceController",
    "ReplicaRouter",
    "HealthyFirstRouter",
    "RoundRobinRouter",
    "LeastRetryBytesRouter",
    "ROUTER_POLICIES",
    "make_router",
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

        Called by :class:`ReplicatedRemoteServer` after an exchange
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
    """A metered proxy in front of a :class:`SpatialServer`.

    Parameters
    ----------
    server:
        The backing server.
    channel:
        The accounting channel for this connection.  One channel per
        server; the experiment reads the totals from it.
    resilience:
        Optional shared :class:`ResilienceController`; when present every
        exchange runs through its fault/retry protocol.
    """

    def __init__(
        self,
        server: SpatialServer,
        channel: Channel,
        resilience: Optional[ResilienceController] = None,
    ) -> None:
        self._server = server
        self.channel = channel
        self.name = server.name
        self.resilience = resilience

    # ------------------------------------------------------------------ #

    def _exchange(self, label: str, account: Callable[[Channel], None]) -> None:
        """Account one logical exchange, via the resilience layer if any.

        The server evaluation must already have happened (exactly once)
        when this is called; ``account`` only writes channel records.  It
        takes the channel to write to as a parameter so a replicated proxy
        can replay the identical exchange onto a sibling replica's channel
        (see :class:`ReplicatedRemoteServer`); a single-channel proxy
        always passes its own channel.
        """
        if self.resilience is None:
            account(self.channel)
        else:
            self.resilience.exchange(
                self.channel, label, lambda: account(self.channel)
            )

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
    # connection introspection (one channel here; a shard fleet has many)
    # ------------------------------------------------------------------ #

    @property
    def channels(self) -> Tuple[Channel, ...]:
        """All accounting channels behind this connection."""
        return (self.channel,)

    def reset_channels(self) -> None:
        """Zero every channel ledger of this connection."""
        self.channel.reset()

    def failover_events(self) -> Tuple[Tuple[str, str, str, str], ...]:
        """``(shard, replica, label, kind)`` per abandoned replica exchange.

        Read by the broker to charge per-replica breakers; one channel has
        no sibling to fail over to.
        """
        return ()

    def channel_snapshot(self) -> Dict[str, object]:
        """The connection's ledger snapshot (merged over all channels)."""
        return self.channel.snapshot()

    def ledger_fingerprint(self) -> Tuple:
        """Bit-exact fingerprint of the connection's primary-lane ledger."""
        return self.ledger_reader()()

    def ledger_reader(self) -> Callable[[], Tuple]:
        """:meth:`ledger_fingerprint` to call later: holds the channels, not the server."""
        return self.channel.ledger_fingerprint

    def server_stats(self) -> Dict[str, int]:
        """The backing server's query-statistics counters."""
        return self._server.stats.as_dict()

    def total_bytes(self) -> int:
        """Total wire bytes moved over this connection so far."""
        return self.channel.total_bytes

    def total_cost(self) -> float:
        """Tariff-weighted cost of this connection so far."""
        return self.channel.total_cost


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


class ReplicaRouter:
    """Deterministic replica-choice policy for one shard's replica set.

    The router ranks the replicas of one shard before every exchange;
    :class:`ReplicatedRemoteServer` tries them in that order, failing over
    to the next candidate when an exchange exhausts its retries.  Ranking
    consults two kinds of state:

    * **broker marks** (:meth:`mark_down` / :meth:`mark_probe`): breaker
      verdicts applied at admission time -- a cooling replica is routed
      around (tried last-resort only), a half-open replica is *preferred*
      so the probe traffic reaches the recovering server;
    * **session failures** (:meth:`note_failure`): replicas that already
      failed an exchange of this query sink below the healthy ones for the
      rest of the query (cleared by :meth:`reset`, i.e. per run).

    Within a rank the tie-break is policy-specific but always
    deterministic: same marks, same history, same order.  Subclasses
    override :meth:`_key` (the within-rank sort key) and optionally
    :meth:`_advance` (state evolved once per routed exchange).
    """

    policy = "healthy"

    def __init__(self) -> None:
        self._names: Tuple[str, ...] = ()
        self._channels: Tuple[Channel, ...] = ()
        self._down: set = set()
        self._probe: set = set()
        self._failed: set = set()

    def bind(self, names: Sequence[str], channels: Sequence[Channel]) -> None:
        """Attach the replica names/channels this router chooses among."""
        self._names = tuple(names)
        self._channels = tuple(channels)

    # -- broker health marks ------------------------------------------- #

    def mark_down(self, name: str) -> None:
        """Route around ``name`` (its breaker is open and still cooling)."""
        if name in self._names:
            self._down.add(name)
            self._probe.discard(name)

    def mark_probe(self, name: str) -> None:
        """Prefer ``name`` (half-open breaker: send the probe to it)."""
        if name in self._names:
            self._probe.add(name)
            self._down.discard(name)

    # -- session failure memory ---------------------------------------- #

    def note_failure(self, idx: int) -> None:
        self._failed.add(idx)

    def note_success(self, idx: int) -> None:
        self._failed.discard(idx)

    def reset(self) -> None:
        """Forget session failures (broker marks survive; they are per-stack)."""
        self._failed.clear()

    # -- ordering ------------------------------------------------------- #

    def _rank(self, idx: int) -> int:
        name = self._names[idx]
        if name in self._down:
            return 3
        if idx in self._failed:
            return 2
        if name in self._probe:
            return 0
        return 1

    def _key(self, idx: int):
        """Within-rank tie-break; the default is the stable replica index."""
        return idx

    def _ordered(self) -> List[int]:
        return sorted(
            range(len(self._names)), key=lambda i: (self._rank(i), self._key(i), i)
        )

    def _advance(self) -> None:
        """Evolve per-exchange state (default: stateless)."""

    def order(self) -> List[int]:
        """Full candidate order for one exchange (advances policy state)."""
        out = self._ordered()
        self._advance()
        return out

    def peek(self) -> int:
        """The replica the *next* :meth:`order` call will try first.

        Never advances state: the proxy evaluates the backing server on the
        peeked replica, then routes the accounting through :meth:`order`,
        and the two must agree.
        """
        return self._ordered()[0]


class HealthyFirstRouter(ReplicaRouter):
    """Default policy: healthy replicas first, stable index tie-break."""

    policy = "healthy"

    def _ordered(self) -> List[int]:
        # Fast path for the overwhelmingly common state: no marks, no
        # session failures.  Rank and tie-break then both reduce to the
        # stable replica index, so the order is the identity -- skipping
        # the sort keeps zero-fault replication overhead near zero
        # (peek + order run before every exchange).
        if not self._down and not self._probe and not self._failed:
            return list(range(len(self._names)))
        return super()._ordered()


class RoundRobinRouter(ReplicaRouter):
    """Rotate the preferred replica one step per routed exchange."""

    policy = "round_robin"

    def __init__(self) -> None:
        super().__init__()
        self._cursor = 0

    def _key(self, idx: int):
        n = len(self._names)
        return (idx - self._cursor) % n if n else 0

    def _advance(self) -> None:
        n = len(self._names)
        if n:
            self._cursor = (self._cursor + 1) % n


class LeastRetryBytesRouter(ReplicaRouter):
    """Prefer the replica whose channel has burned the fewest retry bytes."""

    policy = "least_retry_bytes"

    def _key(self, idx: int):
        return (self._channels[idx].retry_bytes, idx)


ROUTER_POLICIES: Dict[str, type] = {
    "healthy": HealthyFirstRouter,
    "round_robin": RoundRobinRouter,
    "least_retry_bytes": LeastRetryBytesRouter,
}


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


def make_router(policy: Optional[str] = None) -> ReplicaRouter:
    """Instantiate a replica-routing policy by name (``None`` -> default)."""
    if policy is None:
        return HealthyFirstRouter()
    if isinstance(policy, ReplicaRouter):
        return policy
    cls = ROUTER_POLICIES.get(policy)
    if cls is None:
        raise ValueError(
            f"unknown replica router policy {policy!r}; "
            f"known: {sorted(ROUTER_POLICIES)}"
        )
    return cls()


class ReplicatedRemoteServer(RemoteServer):
    """A metered failover proxy in front of one shard's replica set.

    Looks exactly like a :class:`RemoteServer` for the shard (same metered
    methods, same evaluate-once structure) but holds one channel per
    replica.  Every exchange is routed by a :class:`ReplicaRouter`; on
    retry exhaustion against one replica the identical request is replayed
    on the next candidate (the failed attempts stay on the loser's retry
    lane), and only when every replica fails does the exchange surface a
    shard-level :class:`~repro.errors.ServerUnavailable`.

    The merged primary ledger is the failover invariant:
    :meth:`ledger_fingerprint` splices the per-replica primary records back
    into exchange order, yielding a fingerprint bit-identical to the one
    the unreplicated shard channel would produce -- whichever replicas
    served, under any recoverable plan, with any router policy.
    """

    def __init__(
        self,
        name: str,
        replicas: Sequence[SpatialServer],
        channels: Sequence[Channel],
        resilience: Optional[ResilienceController] = None,
        router: Optional[ReplicaRouter] = None,
    ) -> None:
        replicas = tuple(replicas)
        channels = tuple(channels)
        if len(channels) != len(replicas):
            raise ValueError("one channel per replica required")
        if not replicas:
            raise ValueError("a replicated proxy needs at least one replica")
        self.name = name
        self._replicas = replicas
        self._channels_tuple = channels
        # Representative channel: config/tariff reads only (all replica
        # channels share both); never written to directly.
        self.channel = channels[0]
        self.resilience = resilience
        self.router = router if router is not None else HealthyFirstRouter()
        self.router.bind(tuple(rep.name for rep in replicas), channels)
        #: ``(replica_index, primary_message_count)`` per successful
        #: exchange, in exchange order -- the splice map of the merged
        #: primary ledger.
        self._primary_sequence: List[Tuple[int, int]] = []
        self._failover_events: List[Tuple[str, str, str, str]] = []

    # ------------------------------------------------------------------ #

    @property
    def _server(self) -> SpatialServer:
        """The replica the next exchange will be routed to first.

        Evaluation (and its statistics) follows the router's current first
        choice; replicas share one immutable build, so the answer is the
        same whichever replica evaluates.
        """
        return self._replicas[self.router.peek()]

    def _exchange(self, label: str, account: Callable[[Channel], None]) -> None:
        """Route one exchange across the replicas, failing over on loss.

        Candidates are tried in router order.  A candidate that exhausts
        its retries (or is declared unavailable) has already accounted its
        attempts on its own retry lane; the exchange is then replayed
        verbatim on the next candidate.  Unrecoverable faults (link
        disconnect) and deadline timeouts are not failover events -- they
        abort the query as before.
        """
        order = self.router.order()
        for position, idx in enumerate(order):
            channel = self._channels_tuple[idx]
            before = len(channel.log)
            try:
                if self.resilience is None:
                    account(channel)
                else:
                    self.resilience.exchange(
                        channel, label, lambda: account(channel)
                    )
            except (ChannelFault, RetryExhausted) as err:
                if isinstance(err, ChannelFault) and not err.recoverable:
                    raise
                kind = (
                    err.kind
                    if isinstance(err, ChannelFault)
                    else err.last_fault.kind
                )
                self.router.note_failure(idx)
                self._failover_events.append((self.name, channel.name, label, kind))
                if self.resilience is not None:
                    self.resilience.note_failover(
                        self.name, channel.name, label, kind
                    )
                continue
            self.router.note_success(idx)
            self._primary_sequence.append((idx, len(channel.log) - before))
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
            if state == "down":
                self.router.mark_down(name)
            elif state == "probe":
                self.router.mark_probe(name)

    # ------------------------------------------------------------------ #
    # connection introspection (one channel per replica)
    # ------------------------------------------------------------------ #

    @property
    def channels(self) -> Tuple[Channel, ...]:
        """All replica channels, replica order."""
        return self._channels_tuple

    def reset_channels(self) -> None:
        for channel in self._channels_tuple:
            channel.reset()
        self._primary_sequence.clear()
        self._failover_events.clear()
        self.router.reset()

    def failover_events(self) -> Tuple[Tuple[str, str, str, str], ...]:
        return tuple(self._failover_events)

    def channel_snapshot(self) -> Dict[str, object]:
        """Shard ledger snapshot: summed totals plus per-replica detail."""
        replica_snaps = [chan.snapshot() for chan in self._channels_tuple]
        return _merge_snapshots(self.name, self.tariff, "replicas", replica_snaps)

    def ledger_reader(self) -> Callable[[], Tuple]:
        """The shard's merged primary-lane fingerprint (replica-agnostic).

        Splices the per-replica primary log digests back into exchange
        order using the ``(replica, message_count)`` sequence captured at
        exchange time, and sums the per-replica primary counters.  Shaped
        exactly like :meth:`Channel.ledger_fingerprint` of a single shard
        channel (record tuples carry no channel name), so a replicated shard
        under a recoverable plan fingerprints bit-identically to the
        unreplicated fault-free shard.
        """
        name, channels = self.name, self._channels_tuple
        sequence = tuple(self._primary_sequence)

        def fingerprint() -> Tuple:
            digests = [chan.log.fingerprint() for chan in channels]
            cursors = [0] * len(digests)
            merged_records: List[Tuple] = []
            for idx, count in sequence:
                start = cursors[idx]
                merged_records.extend(digests[idx][start : start + count])
                cursors[idx] = start + count
            sums = [sum(getattr(chan, key) for chan in channels) for key in _LEDGER_TOTALS]
            return (name, *sums, tuple(merged_records))

        return fingerprint

    def server_stats(self) -> Dict[str, int]:
        """Replica-summed statistics (evaluation may move on failover)."""
        totals: Dict[str, int] = {}
        for rep in self._replicas:
            for key, value in rep.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def total_bytes(self) -> int:
        return sum(chan.total_bytes for chan in self._channels_tuple)

    def total_cost(self) -> float:
        return sum(chan.total_cost for chan in self._channels_tuple)


class ShardedRemoteServer:
    """A metered scatter/merge proxy in front of a shard fleet.

    The device-side algorithms see one connection with the endpoints of a
    :class:`RemoteServer`; underneath, every shard has its own ordinary
    :class:`RemoteServer` on its own :class:`Channel` (named after the
    shard, e.g. ``"R#2"``), so per-shard byte ledgers, retry lanes and
    deterministic fault substreams come for free.

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
    ordering rules keep channels, ledgers, fault substreams, replica routers and
    statistics identical to a shard-by-shard scatter:

    1. shards are attributed in ascending order, one exchange each;
    2. a shard no row routes to is not touched and draws no fault event;
    3. a shard's statistics are bumped at its attribution step, on the
       replica its router names at that moment, just before its exchange;
    4. an unrecoverable fault at one shard propagates at once: the shards
       after it stay unbooked.
    """

    def __init__(
        self,
        fleet: ShardedSpatialServer,
        channels: Sequence[Channel],
        resilience: Optional[ResilienceController] = None,
        router: Optional[str] = None,
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
        self.router_policy = router
        # One proxy per shard: a plain RemoteServer for an unreplicated
        # shard (bit-identical to the PR 8 plane), a failover
        # ReplicatedRemoteServer -- with its own router instance -- when
        # the shard has siblings.  Channels arrive replica-major in fleet
        # order: R#0/0, R#0/1, ..., R#1/0, ...
        proxies: List[RemoteServer] = []
        pos = 0
        for group, shard_name in zip(fleet.replica_groups, fleet.shard_names):
            group_chans = channels[pos : pos + len(group)]
            pos += len(group)
            if len(group) == 1:
                proxies.append(
                    RemoteServer(group[0], group_chans[0], resilience=resilience)
                )
            else:
                proxies.append(
                    ReplicatedRemoteServer(
                        shard_name,
                        group,
                        group_chans,
                        resilience=resilience,
                        router=make_router(router),
                    )
                )
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

    def apply_replica_health(self, health: Dict[str, str]) -> None:
        """Push broker breaker verdicts down to the per-shard routers."""
        for proxy in self._proxies:
            if isinstance(proxy, ReplicatedRemoteServer):
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
        """Per-shard primary-lane fingerprints, shard order.

        A replicated shard contributes its replica-agnostic merged
        fingerprint (see :meth:`ReplicatedRemoteServer.ledger_reader`),
        so the fleet fingerprint of a replicated run equals the
        unreplicated one whenever the primary ledgers match.
        """
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
        router: Optional[str] = None,
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
        fault stream per channel name.  ``router`` names the
        :data:`ROUTER_POLICIES` entry replicated shards route through
        (``None`` -> healthy-first); ``replica_health`` maps replica names
        to ``"down"`` / ``"probe"`` breaker verdicts applied to the routers
        at connect time.  ``observer`` is a read-only traffic observer
        threaded into every channel (see :class:`Channel`).
        """
        config = config or NetworkConfig()
        sharded = isinstance(server_r, ShardedSpatialServer) or isinstance(
            server_s, ShardedSpatialServer
        )
        if indexed and sharded:
            raise InvalidInput(SEMIJOIN_NEEDS_ONE_INDEX)
        proxy_cls = IndexedRemoteServer if indexed else RemoteServer

        def _connect_one(server, tariff: float):
            if isinstance(server, ShardedSpatialServer):
                chans = [
                    Channel(config, tariff=tariff, name=replica.name, observer=observer)
                    for group in server.replica_groups
                    for replica in group
                ]
                if resilience is not None:
                    for chan in chans:
                        resilience.register(chan)
                proxy = ShardedRemoteServer(
                    server, chans, resilience=resilience, router=router
                )
                if replica_health:
                    proxy.apply_replica_health(replica_health)
                return proxy
            chan = Channel(config, tariff=tariff, name=server.name, observer=observer)
            if resilience is not None:
                resilience.register(chan)
            return proxy_cls(server, chan, resilience=resilience)

        return ServerPair(
            r=_connect_one(server_r, config.tariff_r),
            s=_connect_one(server_s, config.tariff_s),
        )
