"""Wireless transfer-cost substrate.

The paper's optimisation objective is the number of bytes moved over the
cellular/WiFi link, weighted by per-byte tariffs.  This subpackage models
exactly that:

* :class:`~repro.network.config.NetworkConfig` -- MTU, TCP/IP header size,
  query/answer string sizes, object wire size and per-byte tariffs.
* :mod:`repro.network.packets` -- Eq. 1 of the paper: payload-to-wire-bytes
  packetisation, the one payload rule that sizes every message by its kind
  and object count, plus helpers for query and aggregate-answer costs.
* :mod:`repro.network.messages` -- the kinds of wire message exchanged
  between the PDA and a server (window / count / range / bucket-range /
  aggregate queries, object and scalar responses).
* :class:`~repro.network.channel.Channel` -- a byte-accounting conduit; all
  traffic of one PDA-server connection flows through one channel, which is
  the measured ground truth for every experiment.
* :class:`~repro.network.wifi.WifiLinkModel` -- an IEEE 802.11b timing
  model used to estimate response times from the byte counts (closed
  form; the discrete-event replay it is pinned against is
  ``tests/oracles/wifi_event.py``).
"""

from __future__ import annotations

from repro.network.config import NetworkConfig
from repro.network.messages import MessageKind
from repro.network.packets import (
    aggregate_answer_bytes,
    num_packets,
    query_bytes,
    transferred_bytes,
)
from repro.network.channel import Channel, TrafficLog, TrafficRecord
from repro.network.wifi import WifiLinkModel

__all__ = [
    "NetworkConfig",
    "transferred_bytes",
    "num_packets",
    "query_bytes",
    "aggregate_answer_bytes",
    "MessageKind",
    "Channel",
    "TrafficLog",
    "TrafficRecord",
    "WifiLinkModel",
]
