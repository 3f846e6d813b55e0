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

A message then takes ``packets * per_packet_latency_s + wire_bytes * 8 /
goodput_bps`` seconds, plus ``server_latency_s`` when it travels up.  A
channel's replay time is the sum of that over its log, which
:meth:`WifiLinkModel.estimate_channel_time` reads in closed form from the
channel's running totals; the per-record walk and the discrete-event replay
it is held against are test oracles (``tests/oracles/wifi_event.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.network.channel import Channel

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

    def estimate_channel_time(self, channel: Channel) -> float:
        """Estimated wall-clock seconds to replay all traffic of a channel.

        Requests and responses are replayed sequentially (the device blocks
        on each response, as the prototype does), so the estimate is simply
        the sum of per-message transfer times plus one server latency per
        uplink message.  The channel sums packets, wire bytes and uplink
        messages of its primary lane as the log grows (the metering
        invariants pin those totals equal to the log's), so this reads three
        integers whatever the log length: the closed form of the per-record
        walk, without the walk.
        """
        return float(
            (channel.uplink_packets + channel.downlink_packets) * self.per_packet_latency_s
            + (channel.total_bytes * 8.0) / self.goodput_bps
            + channel.messages_up * self.server_latency_s
        )

    def simulate_channels(self, channels: List[Channel]) -> float:
        """Replay several channels concurrently; returns the makespan.

        Channels replay independently (no contention is modelled), so the
        makespan is the slowest channel's total replay time.
        """
        return max(map(self.estimate_channel_time, channels), default=0.0)
