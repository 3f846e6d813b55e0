"""IEEE 802.11b link timing model.

The prototype in the paper connects the PDA through an 802.11b WiFi
interface.  Byte counts (the optimisation metric) do not depend on link
timing, but the library also reports *estimated response times*, which is
useful for the examples.

The model is deliberately simple and standard:

* effective application-level throughput ``goodput_bps`` (defaults to
  5 Mbit/s, a typical 802.11b figure once MAC overhead is paid),
* a fixed per-packet medium-access latency ``per_packet_latency_s``
  (DIFS/SIFS/ACK plus processing, ~2 ms),
* a fixed per-request server processing time ``server_latency_s``.

Timing of a request/response exchange is then

    t = latency_up + latency_down + (wire_bytes * 8) / goodput

with per-packet latencies applied to every packet of the exchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.network.channel import Channel, TrafficRecord
from repro.network.config import NetworkConfig
from repro.network.packets import num_packets, transferred_bytes

__all__ = ["WifiLinkModel"]


@dataclass(frozen=True)
class WifiLinkModel:
    """Timing parameters of an 802.11b-like wireless hop."""

    #: Effective goodput in bits per second (after MAC/PHY overhead).
    goodput_bps: float = 5_000_000.0
    #: Medium-access plus propagation latency per packet, seconds.
    per_packet_latency_s: float = 0.002
    #: Server-side processing time per request, seconds.
    server_latency_s: float = 0.005

    def __post_init__(self) -> None:
        if self.goodput_bps <= 0:
            raise ValueError("goodput must be positive")
        if self.per_packet_latency_s < 0 or self.server_latency_s < 0:
            raise ValueError("latencies must be non-negative")

    # ------------------------------------------------------------------ #

    def transfer_time(self, payload_bytes: int, config: NetworkConfig) -> float:
        """Seconds needed to move ``payload_bytes`` of payload over the hop."""
        wire = transferred_bytes(payload_bytes, config)
        packets = num_packets(payload_bytes, config)
        return packets * self.per_packet_latency_s + (wire * 8.0) / self.goodput_bps

    def exchange_time(
        self, request_payload: int, response_payload: int, config: NetworkConfig
    ) -> float:
        """Seconds for one request/response round trip."""
        return (
            self.transfer_time(request_payload, config)
            + self.server_latency_s
            + self.transfer_time(response_payload, config)
        )

    def record_delay(self, rec: TrafficRecord) -> float:
        """Replay delay of one logged message (the per-record timing model).

        :meth:`replay_time` is the closed form of summing this over a log;
        the discrete-event oracle (``tests/oracles/wifi_event.py``) replays
        it record by record and the wifi tests pin the two against each
        other.
        """
        delay = rec.packets * self.per_packet_latency_s
        delay += (rec.wire_bytes * 8.0) / self.goodput_bps
        if rec.direction == "up":
            delay += self.server_latency_s
        return delay

    def estimate_channel_time(self, channel: Channel) -> float:
        """Estimated wall-clock seconds to replay all traffic of a channel.

        Requests and responses are replayed sequentially (the device blocks
        on each response, as the prototype does), so the estimate is simply
        the sum of per-message transfer times plus one server latency per
        uplink message.  The channel sums packets, wire bytes and uplink
        messages of its primary lane as the log grows (the metering
        invariants pin those totals equal to the log's), so this reads three
        integers whatever the log length -- :meth:`replay_time` of the log,
        without the walk.
        """
        return self._delay(
            channel.uplink_packets + channel.downlink_packets,
            channel.total_bytes,
            channel.messages_up,
        )

    def replay_time(self, records: List[TrafficRecord]) -> float:
        """Closed-form replay time of one traffic log.

        A replay only ever waits out pure delays, so its finish time is the
        sum of per-record delays -- no event interleaving can change it: the
        closed form of summing :meth:`record_delay` (integer sums below
        ``2**53``, so exact in any order).
        """
        return self._delay(
            sum(rec.packets for rec in records),
            sum(rec.wire_bytes for rec in records),
            sum(1 for rec in records if rec.direction == "up"),
        )

    def _delay(self, packets: int, wire_bytes: int, uplinks: int) -> float:
        return float(
            packets * self.per_packet_latency_s
            + (wire_bytes * 8.0) / self.goodput_bps
            + uplinks * self.server_latency_s
        )

    def simulate_channels(self, channels: List[Channel]) -> float:
        """Replay several channels concurrently; returns the makespan.

        Channels replay independently (no contention is modelled), so the
        makespan is the slowest channel's total replay time.
        """
        return max(map(self.estimate_channel_time, channels), default=0.0)
