"""Packetisation model (Equation 1 of the paper).

When ``B_D`` payload bytes are shipped over the network they are cut into
packets of at most ``MTU - B_H`` payload bytes each, and every packet pays
``B_H`` bytes of TCP/IP headers:

    TB(B_D) = B_D + B_H * ceil(B_D / (MTU - B_H))            (Eq. 1)

These helpers convert logical payload sizes into wire bytes.  Every byte
count reported by the experiments, and every estimate of the planning cost
model, goes through :func:`transferred_bytes`.

:func:`payload_size` is the one payload rule a channel prices every send
by, before Eq. 1: a query (any request kind) is the query string ``B_Q``
plus ``B_obj`` per object it carries (bucket probes, relayed MBRs), a
scalar answer is ``B_A``, and an object payload is ``B_obj`` per object
(a bucket answer carries one extra separator object per probe, Eq. 5).

:func:`num_packets` and :func:`transferred_bytes` are written in integer
arithmetic that is valid on a Python ``int`` (the channels' per-message
metering) and on an ``int64`` array alike (the cost model's per-level
tables): one implementation, exact on both.
"""

from __future__ import annotations

from repro.network.config import NetworkConfig
from repro.network.messages import MessageKind

__all__ = [
    "payload_size",
    "num_packets",
    "packetise",
    "transferred_bytes",
    "query_bytes",
    "aggregate_answer_bytes",
]


def payload_size(kind: MessageKind, objects, config: NetworkConfig):
    """Payload bytes of one message of ``kind`` carrying ``objects`` objects.

    ``objects`` is an ``int`` or an ``int64`` array (one message per
    element); a scalar answer carries none.
    """
    if kind is MessageKind.OBJECTS:
        return objects * config.object_bytes
    if kind is MessageKind.SCALAR:
        return config.answer_bytes
    return config.query_bytes + objects * config.object_bytes


def num_packets(payload_bytes, config: NetworkConfig):
    """Number of packets needed for ``payload_bytes`` of payload.

    ``payload_bytes`` is an ``int`` or an ``int64`` array (one result per
    element).  A zero-byte payload still needs no packets (the
    acknowledgement that would carry it is accounted by the message that
    triggered it).
    """
    negative = payload_bytes < 0  # a bool for an int, a mask for an array
    if negative if isinstance(negative, bool) else negative.any():
        raise ValueError("payload_bytes must be non-negative")
    # Integer ceil-division: exact for ints and arrays, and 0 -> 0.
    return -(-payload_bytes // config.payload_per_packet)


def packetise(payload_bytes, config: NetworkConfig):
    """Eq. 1 evaluated once: ``(TB(B_D), packets)`` of a payload (``int`` or
    ``int64`` array) -- what a channel books for every send."""
    packets = num_packets(payload_bytes, config)
    return payload_bytes + config.header_bytes * packets, packets


def transferred_bytes(payload_bytes, config: NetworkConfig):
    """Wire bytes for a payload: Eq. 1, ``TB(B_D)`` (``int`` or ``int64`` array)."""
    return packetise(payload_bytes, config)[0]


def query_bytes(config: NetworkConfig) -> int:
    """Wire bytes of a single query message (``B_H + B_Q``).

    The paper charges a query as one header plus the query string; queries
    are small enough to always fit a single packet.
    """
    return config.header_bytes + config.query_bytes


def aggregate_answer_bytes(config: NetworkConfig) -> int:
    """Wire bytes of a single aggregate answer (``B_H + B_A``)."""
    return config.header_bytes + config.answer_bytes
