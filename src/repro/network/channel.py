"""Byte-accounting channels.

A :class:`Channel` represents the (logical) connection between the mobile
device and one server.  Every request and response is passed through
:meth:`Channel.send_query` / :meth:`Channel.send_response`, which packetise
the payload with Eq. 1 and accumulate:

* raw wire bytes (the metric plotted in every figure of the paper), and
* tariff-weighted cost (``bytes * b_X``), which is what the algorithms
  minimise when ``b_R != b_S``.

Channels are the *measurement* layer: algorithms may estimate costs with
the planning model in :mod:`repro.core.costmodel`, but all reported totals
come from here.  Each lane also keeps a :class:`TrafficLog`, the
per-message ledger that fingerprints, the metering invariants and the
discrete-event replay read.  It is stored as columns: one entry per send
call -- direction, kind, label and the payload sizes (one size and a count
for a uniform batch, an ``int64`` array for a payload batch) -- and Eq. 1
runs once per call, on the array.  :class:`TrafficRecord` objects and
fingerprint tuples are built only when the log is read.

Since PR 7 a channel carries **two ledger lanes**.  The *primary* lane is
the one described above -- the paper's transfer figures, fingerprints and
snapshots read it exclusively.  The *retry* lane accumulates the wire
traffic of failed or duplicated exchange attempts injected by
:mod:`repro.network.faults`: while a :meth:`fault_lane` context is active,
accounting lands on the ``retry_*`` counters and ``retry_log`` instead (a
direction outside the context's scope is suppressed entirely -- e.g. a
dropped request burned uplink and downlink, an unavailable server only ever
saw the uplink).  This is what keeps fault-injected runs bit-identical to
fault-free ones on the primary lane while still measuring what the faults
cost.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.network.config import NetworkConfig
from repro.network.messages import Message, MessageKind
from repro.network.packets import num_packets, transferred_bytes

__all__ = ["Channel", "TrafficLog", "TrafficRecord"]

#: Sentinel lane marker: the direction is out of the fault context's scope,
#: so the message never hit the wire and must not be accounted anywhere.
SUPPRESSED = object()


@dataclass(frozen=True)
class TrafficRecord:
    """One logged message."""

    direction: str  # "up" (device -> server) or "down" (server -> device)
    kind: MessageKind
    payload_bytes: int
    wire_bytes: int
    packets: int
    label: str = ""


class TrafficLog:
    """The per-message ledger of one channel lane, one entry per exchange.

    An entry is ``(direction, kind, label, sizes, n)``: ``n`` messages whose
    payload sizes are ``sizes`` -- one size for all of them (a single
    message or a uniform batch) or an ``(n,)`` ``int64`` array.  Wire bytes
    and packets are Eq. 1 of the sizes, derived when the log is read.
    """

    __slots__ = ("config", "_entries", "_messages")

    def __init__(self, config: NetworkConfig) -> None:
        self.config = config
        self._entries: List[Tuple[str, MessageKind, str, object, int]] = []
        self._messages = 0

    def add(self, direction: str, kind: MessageKind, label: str, sizes, n: int) -> None:
        self._entries.append((direction, kind, label, sizes, n))
        self._messages += n

    def __len__(self) -> int:
        """Messages logged (nothing is built)."""
        return self._messages

    def _rows(self, make) -> Iterator:
        """``make(direction, kind, payload, wire, packets, label)`` per
        message, called once per distinct size of an entry."""
        config = self.config
        for direction, kind, label, sizes, n in self._entries:
            if not isinstance(sizes, np.ndarray):
                wire, packets = transferred_bytes(sizes, config), num_packets(sizes, config)
                yield from repeat(make(direction, kind, sizes, wire, packets, label), n)
                continue
            distinct, inverse = np.unique(sizes, return_inverse=True)
            wire, packets = transferred_bytes(distinct, config), num_packets(distinct, config)
            rows = [
                make(direction, kind, *row, label)
                for row in zip(distinct.tolist(), wire.tolist(), packets.tolist())
            ]
            yield from map(rows.__getitem__, inverse.tolist())

    @property
    def records(self) -> List[TrafficRecord]:
        """One :class:`TrafficRecord` per message, built on read."""
        return list(self._rows(TrafficRecord))

    def count_by_kind(self) -> Dict[MessageKind, int]:
        """Message counts per kind (reads :attr:`records`)."""
        return dict(Counter(rec.kind for rec in self.records))

    def bytes_by_kind(self) -> Dict[MessageKind, int]:
        """Wire-byte totals per kind (reads :attr:`records`)."""
        out: Counter = Counter()
        for rec in self.records:
            out[rec.kind] += rec.wire_bytes
        return dict(out)

    def fingerprint(self) -> Tuple[Tuple, ...]:
        """A hashable, order-sensitive digest of the per-message ledger.

        Two logs fingerprint equal iff they hold the same records in the
        same order.  The query-service equivalence suite uses this to pin a
        broker-coalesced query's wire traffic record for record against its
        standalone reference run (cross-query coalescing may share the
        physical evaluation, never the attributed ledger).  One 6-tuple
        ``(direction, kind value, payload, wire, packets, label)`` per
        message, built from the entries without a record object.
        """
        return tuple(self._rows(lambda direction, kind, *rest: (direction, kind.value, *rest)))

    def clear(self) -> None:
        self._entries.clear()
        self._messages = 0


class Channel:
    """Accounting conduit between the device and one server.

    Parameters
    ----------
    config:
        Wire-level constants.
    tariff:
        Per-byte price of this connection (``b_R`` or ``b_S``).
    name:
        Server name for reports (conventionally ``"R"`` or ``"S"``).
    observer:
        Optional read-only traffic observer with an ``on_traffic(server,
        lane, direction, wire, packets, messages)`` method (see
        :class:`repro.obs.metrics.ChannelMetricsObserver`).
    """

    def __init__(
        self,
        config: NetworkConfig,
        tariff: float = 1.0,
        name: str = "server",
        observer=None,
    ) -> None:
        if tariff < 0:
            raise ValueError("tariff must be non-negative")
        self.config = config
        self.tariff = tariff
        self.name = name
        self.log = TrafficLog(config)
        # Read-only traffic observer (e.g. ChannelMetricsObserver); called
        # after the ledgers update, never consulted for accounting.
        self.observer = observer
        self.uplink_bytes = 0
        self.downlink_bytes = 0
        self.uplink_packets = 0
        self.downlink_packets = 0
        self.messages_up = 0
        self.messages_down = 0
        # Retry lane: traffic of failed/duplicated exchange attempts.  Never
        # mixed into the primary counters above or the paper's figures.
        self.retry_uplink_bytes = 0
        self.retry_downlink_bytes = 0
        self.retry_uplink_packets = 0
        self.retry_downlink_packets = 0
        self.retry_messages_up = 0
        self.retry_messages_down = 0
        self.retry_log = TrafficLog(config)
        # None = primary lane; "up"/"down"/"both" = retry lane scoped to
        # those directions (the other direction is suppressed, not primary).
        self._fault_lane: Optional[str] = None

    # ------------------------------------------------------------------ #

    @property
    def total_bytes(self) -> int:
        """Total wire bytes moved in both directions."""
        return self.uplink_bytes + self.downlink_bytes

    @property
    def total_cost(self) -> float:
        """Tariff-weighted cost of all traffic."""
        return self.total_bytes * self.tariff

    @property
    def retry_bytes(self) -> int:
        """Total retry-lane wire bytes (failed/duplicated attempts)."""
        return self.retry_uplink_bytes + self.retry_downlink_bytes

    @contextmanager
    def fault_lane(self, directions: str = "both") -> Iterator["Channel"]:
        """Route accounting onto the retry lane while the context is active.

        ``directions`` scopes which sides of the exchange actually hit the
        wire: ``"both"`` for a dropped round trip or duplicated exchange,
        ``"up"`` when only the request went out (server unavailable,
        disconnect), ``"down"`` when only a response arrived (duplicate
        delivery).  Accounting in the other direction is suppressed --
        those bytes never existed, on either lane.
        """
        if directions not in ("up", "down", "both"):
            raise ValueError("fault_lane directions must be 'up', 'down' or 'both'")
        previous = self._fault_lane
        self._fault_lane = directions
        try:
            yield self
        finally:
            self._fault_lane = previous

    def send_query(self, message: Message, label: str = "") -> int:
        """Account an uplink message; returns its wire bytes."""
        return self._send("up", message.kind, label, message.payload_bytes(self.config), 1)

    def send_response(self, message: Message, label: str = "") -> int:
        """Account a downlink message; returns its wire bytes."""
        return self._send("down", message.kind, label, message.payload_bytes(self.config), 1)

    def send_uniform_batch(
        self, message: Message, n: int, direction: str = "up", label: str = ""
    ) -> int:
        """Account ``n`` identical messages in one call; returns total wire bytes.

        The per-message ledger is exactly what ``n`` :meth:`send_query` /
        :meth:`send_response` calls would produce -- message payloads of the
        batched protocols (query strings, scalar answers) do not depend on
        the query parameters, so one packetisation suffices for the whole
        batch and the traffic log receives one entry of one size and ``n``.
        """
        if n <= 0:
            return 0
        return self._send(direction, message.kind, label, message.payload_bytes(self.config), n)

    def send_payload_batch(
        self,
        kind: MessageKind,
        payload_sizes,
        direction: str = "down",
        label: str = "",
    ) -> int:
        """Account many messages of one kind by payload size; returns wire total.

        Used for batched object responses, whose payloads vary per query:
        ``payload_sizes`` (a list or an array) is kept as one ``int64``
        column and packetised by one array evaluation of Eq. 1.  The
        per-record ledger is identical to a loop of scalar sends.
        """
        sizes = np.array(payload_sizes, dtype=np.int64)
        return self._send(direction, kind, label, sizes, sizes.shape[0])

    def ledger_fingerprint(self) -> Tuple:
        """Counters plus the per-message log digest, as one hashable value.

        Equality means the two channels carried bit-identical traffic:
        same byte/packet/message totals *and* the same record sequence.
        """
        return (
            self.name,
            self.uplink_bytes,
            self.downlink_bytes,
            self.uplink_packets,
            self.downlink_packets,
            self.messages_up,
            self.messages_down,
            self.log.fingerprint(),
        )

    def snapshot(self) -> Dict[str, float]:
        """A summary dictionary (used by results and reports)."""
        return {
            "name": self.name,
            "uplink_bytes": self.uplink_bytes,
            "downlink_bytes": self.downlink_bytes,
            "total_bytes": self.total_bytes,
            "uplink_packets": self.uplink_packets,
            "downlink_packets": self.downlink_packets,
            "messages_up": self.messages_up,
            "messages_down": self.messages_down,
            "tariff": self.tariff,
            "total_cost": self.total_cost,
        }

    def reset(self) -> None:
        """Zero all counters (both lanes) and clear the logs."""
        self.uplink_bytes = 0
        self.downlink_bytes = 0
        self.uplink_packets = 0
        self.downlink_packets = 0
        self.messages_up = 0
        self.messages_down = 0
        self.log.clear()
        self.retry_uplink_bytes = 0
        self.retry_downlink_bytes = 0
        self.retry_uplink_packets = 0
        self.retry_downlink_packets = 0
        self.retry_messages_up = 0
        self.retry_messages_down = 0
        self.retry_log.clear()

    # ------------------------------------------------------------------ #

    def _lane_log(self, direction: str):
        """Traffic log of the active lane, or ``SUPPRESSED``.

        Primary mode routes to ``self.log``.  Inside a :meth:`fault_lane`
        context, directions in scope route to ``self.retry_log``; the out
        of scope direction is suppressed (no bytes on either lane).
        """
        lane = self._fault_lane
        if lane is None:
            return self.log
        if lane != "both" and lane != direction:
            return SUPPRESSED
        return self.retry_log

    def _bump(self, direction: str, wire: int, packets: int, messages: int) -> None:
        """Add to the active lane's counters for one direction."""
        if self._fault_lane is None:
            if direction == "up":
                self.uplink_bytes += wire
                self.uplink_packets += packets
                self.messages_up += messages
            else:
                self.downlink_bytes += wire
                self.downlink_packets += packets
                self.messages_down += messages
        else:
            if direction == "up":
                self.retry_uplink_bytes += wire
                self.retry_uplink_packets += packets
                self.retry_messages_up += messages
            else:
                self.retry_downlink_bytes += wire
                self.retry_downlink_packets += packets
                self.retry_messages_down += messages
        observer = self.observer
        if observer is not None:
            observer.on_traffic(
                self.name,
                "primary" if self._fault_lane is None else "retry",
                direction,
                wire,
                packets,
                messages,
            )

    def _send(self, direction: str, kind: MessageKind, label: str, sizes, n: int) -> int:
        """Account ``n`` messages of payload ``sizes`` (one size for all or an
        ``(n,)`` array) on the active lane as one log entry; returns their
        wire bytes."""
        log = self._lane_log(direction)
        if log is SUPPRESSED:
            return 0
        wire = transferred_bytes(sizes, self.config)
        packets = num_packets(sizes, self.config)
        if isinstance(sizes, np.ndarray):
            wire, packets = int(wire.sum()), int(packets.sum())
        else:
            wire, packets = wire * n, packets * n
        self._bump(direction, wire, packets, n)
        log.add(direction, kind, label, sizes, n)
        return wire
