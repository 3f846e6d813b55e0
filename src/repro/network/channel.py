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
come from here.  A :class:`TrafficLog` optionally keeps a per-message trace
for debugging and for the protocol-level discrete-event simulation.

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
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

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


@dataclass
class TrafficLog:
    """Optional per-message trace of a channel."""

    records: List[TrafficRecord] = field(default_factory=list)
    enabled: bool = True

    def add(self, record: TrafficRecord) -> None:
        if self.enabled:
            self.records.append(record)

    def count_by_kind(self) -> Dict[MessageKind, int]:
        """Message counts per kind (single C-level pass)."""
        return dict(Counter(rec.kind for rec in self.records))

    def bytes_by_kind(self) -> Dict[MessageKind, int]:
        """Wire-byte totals per kind (single pass)."""
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
        physical evaluation, never the attributed ledger).

        The batch sends append one record *object* many times (``n``
        identical messages, equal payload sizes), so each distinct object is
        digested once per call and the log is read through that table.
        """
        ids = list(map(id, self.records))
        digests = {
            key: (
                rec.direction,
                rec.kind.value,
                rec.payload_bytes,
                rec.wire_bytes,
                rec.packets,
                rec.label,
            )
            for key, rec in dict(zip(ids, self.records)).items()
        }
        return tuple(map(digests.__getitem__, ids))

    def clear(self) -> None:
        self.records.clear()


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
    log:
        Optional traffic log; a fresh (enabled) log is created by default.
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
        log: Optional[TrafficLog] = None,
        observer=None,
    ) -> None:
        if tariff < 0:
            raise ValueError("tariff must be non-negative")
        self.config = config
        self.tariff = tariff
        self.name = name
        self.log = log if log is not None else TrafficLog()
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
        self.retry_log = TrafficLog()
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
        return self._account(message, direction="up", label=label)

    def send_response(self, message: Message, label: str = "") -> int:
        """Account a downlink message; returns its wire bytes."""
        return self._account(message, direction="down", label=label)

    def send_uniform_batch(
        self, message: Message, n: int, direction: str = "up", label: str = ""
    ) -> int:
        """Account ``n`` identical messages in one call; returns total wire bytes.

        The per-message ledger is exactly what ``n`` :meth:`send_query` /
        :meth:`send_response` calls would produce -- message payloads of the
        batched protocols (query strings, scalar answers) do not depend on
        the query parameters, so one packetisation suffices for the whole
        batch and the traffic log receives ``n`` identical records.
        """
        if n <= 0:
            return 0
        log = self._lane_log(direction)
        if log is SUPPRESSED:
            return 0
        payload = message.payload_bytes(self.config)
        wire = transferred_bytes(payload, self.config)
        packets = num_packets(payload, self.config)
        self._bump(direction, wire * n, packets * n, n)
        if log.enabled:
            record = TrafficRecord(
                direction=direction,
                kind=message.kind,
                payload_bytes=payload,
                wire_bytes=wire,
                packets=packets,
                label=label,
            )
            log.records.extend([record] * n)
        return wire * n

    def send_payload_batch(
        self,
        kind: MessageKind,
        payload_sizes: List[int],
        direction: str = "down",
        label: str = "",
    ) -> int:
        """Account many messages of one kind by payload size; returns wire total.

        Used for batched object responses, whose payloads vary per query.
        Packetisation results are memoised per distinct size, so a batch of
        mostly-small (or empty) responses costs a handful of Eq. 1
        evaluations instead of one per message.  The per-record ledger is
        identical to a loop of scalar sends.
        """
        log = self._lane_log(direction)
        if log is SUPPRESSED:
            return 0
        total_wire = 0
        total_packets = 0
        cache: Dict[int, TrafficRecord] = {}
        records = log.records if log.enabled else None
        for payload in payload_sizes:
            record = cache.get(payload)
            if record is None:
                wire = transferred_bytes(payload, self.config)
                packets = num_packets(payload, self.config)
                record = TrafficRecord(
                    direction=direction,
                    kind=kind,
                    payload_bytes=payload,
                    wire_bytes=wire,
                    packets=packets,
                    label=label,
                )
                cache[payload] = record
            total_wire += record.wire_bytes
            total_packets += record.packets
            if records is not None:
                records.append(record)
        self._bump(direction, total_wire, total_packets, len(payload_sizes))
        return total_wire

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

    def _account(self, message: Message, direction: str, label: str) -> int:
        log = self._lane_log(direction)
        if log is SUPPRESSED:
            return 0
        payload = message.payload_bytes(self.config)
        wire = transferred_bytes(payload, self.config)
        packets = num_packets(payload, self.config)
        self._bump(direction, wire, packets, 1)
        # Disabled fast path: skip TrafficRecord construction entirely --
        # byte/packet totals above are unaffected, so metering-off runs pay
        # nothing per message beyond the counter updates.
        if log.enabled:
            log.add(
                TrafficRecord(
                    direction=direction,
                    kind=message.kind,
                    payload_bytes=payload,
                    wire_bytes=wire,
                    packets=packets,
                    label=label,
                )
            )
        return wire
