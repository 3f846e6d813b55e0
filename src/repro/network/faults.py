"""Deterministic fault injection at the channel boundary.

The paper's setting is ad-hoc spatial joins over *wireless* links, yet the
seed reproduction's simulated network delivered every message, every time.
This module adds the misbehaving network: a :class:`FaultPlan` describes,
from one RNG seed, a deterministic schedule of

* **drops** -- the request (or its response) is lost; the attempt's wire
  bytes are burned and the exchange must be retried,
* **stalls** -- the exchange succeeds but costs extra (simulated) latency,
* **duplicates** -- the server re-sends the response; the copy carries an
  already-seen request id and is discarded by the client,
* **unavailability windows** -- a server answers nothing for a span of
  exchanges (:class:`Outage`),
* **mid-query disconnects** -- the link dies for good at a given exchange
  (:class:`Disconnect`; the one unrecoverable fault).

Determinism contract: each channel draws its events from its **own**
substream, seeded by ``(plan seed, server name)`` and advanced once per
exchange *attempt* on that channel.  A query's fault sequence therefore
depends only on the plan and on the query's own exchange sequence -- never
on wave width, submission order, or what other queries do.
That is what lets the chaos suite pin fault-injected runs bit-identical to
fault-free ones (the retry layer in :mod:`repro.server.remote` accounts all
failure traffic on a separate ledger lane).

:class:`RetryPolicy` is the client-side answer: bounded attempts with
exponential backoff.  Backoff and stall latency are *simulated* seconds --
they advance a per-query clock against an optional deadline budget, they
never sleep.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import require_count, require_finite

__all__ = [
    "Disconnect",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "Outage",
    "RetryPolicy",
    "replica_outages",
]


class FaultKind(Enum):
    """What one exchange attempt experienced."""

    OK = "ok"
    DROP = "drop"
    STALL = "stall"
    DUPLICATE = "duplicate"
    UNAVAILABLE = "unavailable"
    DISCONNECT = "disconnect"


@dataclass(frozen=True)
class Outage:
    """One server's unavailability window, in per-channel exchange indices.

    Exchange attempts ``start <= i < start + length`` on the named server's
    channel fail with an unavailable verdict.  Recoverable whenever the
    retry policy's attempt budget outlasts ``length`` (each retry advances
    the exchange index by one).
    """

    server: str
    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.length < 1:
            raise ValueError("outage start must be >= 0 and length >= 1")

    def covers(self, op_index: int) -> bool:
        return self.start <= op_index < self.start + self.length


def replica_outages(
    shard: str,
    replicas: int,
    start: int,
    length: int,
    indices: Optional[Sequence[int]] = None,
) -> Tuple[Outage, ...]:
    """Outages covering the named replicas of one replicated shard.

    Replica channels are named ``"<shard>/<j>"`` and fault substreams are
    keyed by exact channel name, so ``Outage("R#0", ...)`` never touches a
    replica of shard ``"R#0"`` -- this helper builds the per-replica
    outages instead.  ``indices`` selects which replicas to kill (default:
    all of them, i.e. the whole shard goes dark).
    """
    require_count(replicas, "replicas")
    chosen = range(replicas) if indices is None else indices
    out = []
    for j in chosen:
        if not 0 <= j < replicas:
            raise ValueError(f"replica index {j} out of range for R={replicas}")
        out.append(Outage(f"{shard}/{j}", start, length))
    return tuple(out)


@dataclass(frozen=True)
class Disconnect:
    """A permanent mid-query link loss: every exchange attempt on the named
    server's channel from index ``at`` onward fails unrecoverably."""

    server: str
    at: int

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("disconnect index must be >= 0")


@dataclass(frozen=True)
class FaultEvent:
    """One drawn fault verdict (the unit of the determinism contract)."""

    op_index: int
    kind: FaultKind
    label: str
    latency_s: float = 0.0

    def as_tuple(self) -> Tuple[int, str, str]:
        """Hashable digest used by the determinism suite."""
        return (self.op_index, self.kind.value, self.label)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of channel faults.

    Rates are per exchange *attempt* and mutually exclusive (one verdict
    per attempt): ``drop_rate + stall_rate + duplicate_rate <= 1``.
    Outage windows and disconnects override the random draw for the
    exchange indices they cover.  The plan object is frozen and hashable,
    so it can ride on a :class:`~repro.service.query.JoinQuery` and take
    part in result-cache keys.
    """

    seed: int = 0
    drop_rate: float = 0.0
    stall_rate: float = 0.0
    duplicate_rate: float = 0.0
    stall_latency_s: float = 0.05
    outages: Tuple[Outage, ...] = ()
    disconnects: Tuple[Disconnect, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_rate", "stall_rate", "duplicate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.drop_rate + self.stall_rate + self.duplicate_rate > 1.0 + 1e-12:
            raise ValueError("fault rates must sum to at most 1")
        require_finite(self.stall_latency_s, "stall_latency_s")
        # Normalise to tuples so hand-built plans with lists still hash.
        object.__setattr__(self, "outages", tuple(self.outages))
        object.__setattr__(self, "disconnects", tuple(self.disconnects))

    # ------------------------------------------------------------------ #

    @property
    def recoverable(self) -> bool:
        """True when no fault is *structurally* terminal (no disconnects).

        Drops and outages are recoverable by a sufficient retry budget;
        whether a concrete policy suffices depends on its attempt count.
        """
        return not self.disconnects

    def injector(self, server_name: str) -> "FaultInjector":
        """The deterministic fault stream of one server's channel."""
        return FaultInjector(self, server_name)


class FaultInjector:
    """Per-channel fault stream: one verdict per exchange attempt.

    The RNG substream is derived from ``(plan seed, server name)`` alone,
    and one uniform draw is consumed per attempt even when an outage or
    disconnect overrides the verdict -- so the stream position is always
    exactly the attempt index, and two executions that perform the same
    exchanges see the same events regardless of anything happening on other
    channels or in other queries.
    """

    #: Uniforms are drawn from the generator in blocks of this size --
    #: ``Generator.random(n)`` consumes the bit stream exactly like ``n``
    #: scalar draws, so buffering changes nothing about the contract while
    #: amortising the per-attempt RNG cost (``server.remote.self_s_per_op``
    #: on ``BENCHMARK.json``'s ``fleet_faults`` workload is what cares).
    _BLOCK = 256

    def __init__(self, plan: FaultPlan, server_name: str) -> None:
        self.plan = plan
        self.server = server_name
        self._rng = np.random.default_rng(
            (plan.seed, zlib.crc32(server_name.encode("utf-8")))
        )
        self._buffer: List[float] = []
        self._buffer_pos = 0
        self.op_index = 0
        #: Every verdict drawn so far, in attempt order (the determinism
        #: suite compares these sequences across execution configurations).
        self.events: List[FaultEvent] = []

    def _next_uniform(self) -> float:
        if self._buffer_pos >= len(self._buffer):
            self._buffer = self._rng.random(self._BLOCK).tolist()
            self._buffer_pos = 0
        draw = self._buffer[self._buffer_pos]
        self._buffer_pos += 1
        return draw

    def next_event(self, label: str) -> FaultEvent:
        """Draw the verdict for the next exchange attempt on this channel."""
        op = self.op_index
        self.op_index += 1
        draw = self._next_uniform()
        plan = self.plan
        kind = FaultKind.OK
        latency = 0.0
        if any(d.server == self.server and op >= d.at for d in plan.disconnects):
            kind = FaultKind.DISCONNECT
        elif any(o.server == self.server and o.covers(op) for o in plan.outages):
            kind = FaultKind.UNAVAILABLE
        elif draw < plan.drop_rate:
            kind = FaultKind.DROP
        elif draw < plan.drop_rate + plan.stall_rate:
            kind = FaultKind.STALL
            latency = plan.stall_latency_s
        elif draw < plan.drop_rate + plan.stall_rate + plan.duplicate_rate:
            kind = FaultKind.DUPLICATE
        event = FaultEvent(op_index=op, kind=kind, label=label, latency_s=latency)
        self.events.append(event)
        return event

    def event_tuples(self) -> Tuple[Tuple[int, str, str], ...]:
        """The drawn sequence as hashable tuples (determinism fingerprint)."""
        return tuple(event.as_tuple() for event in self.events)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff (simulated seconds).

    ``max_attempts`` counts the first try too: a policy of 6 retries a
    failed exchange at most 5 times.  Backoff for the ``n``-th failed
    attempt is ``base_backoff_s * backoff_factor**(n-1)`` capped at
    ``max_backoff_s``; it advances the query's simulated clock (checked
    against the deadline budget), never a wall clock.
    """

    max_attempts: int = 6
    base_backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0

    def __post_init__(self) -> None:
        # A non-finite duration would make the simulated clock NaN, and a
        # NaN clock never crosses a deadline.
        require_count(self.max_attempts, "max_attempts")
        require_finite(self.base_backoff_s, "base_backoff_s")
        require_finite(self.max_backoff_s, "max_backoff_s")
        require_finite(self.backoff_factor, "backoff_factor", minimum=1.0)

    def backoff_for(self, failed_attempts: int) -> float:
        """Simulated wait before the retry following the n-th failure."""
        return min(
            self.base_backoff_s * self.backoff_factor ** (failed_attempts - 1),
            self.max_backoff_s,
        )
