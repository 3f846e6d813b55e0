"""Packetisation model (Equation 1 of the paper).

When ``B_D`` payload bytes are shipped over the network they are cut into
packets of at most ``MTU - B_H`` payload bytes each, and every packet pays
``B_H`` bytes of TCP/IP headers:

    TB(B_D) = B_D + B_H * ceil(B_D / (MTU - B_H))            (Eq. 1)

These helpers convert logical payload sizes into wire bytes.  Every byte
count reported by the experiments, and every estimate of the planning cost
model, goes through :func:`transferred_bytes`.

:func:`num_packets` and :func:`transferred_bytes` are written in integer
arithmetic that is valid on a Python ``int`` (the channels' per-message
metering) and on an ``int64`` array alike (the cost model's per-level
tables): one implementation, exact on both.
"""

from __future__ import annotations

from repro.network.config import NetworkConfig

__all__ = [
    "num_packets",
    "transferred_bytes",
    "object_payload_bytes",
    "query_bytes",
    "aggregate_answer_bytes",
]


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


def transferred_bytes(payload_bytes, config: NetworkConfig):
    """Wire bytes for a payload: Eq. 1, ``TB(B_D)`` (``int`` or ``int64`` array)."""
    return payload_bytes + config.header_bytes * num_packets(payload_bytes, config)


def object_payload_bytes(num_objects: int, config: NetworkConfig) -> int:
    """Payload bytes of ``num_objects`` spatial objects (``|D| * B_obj``)."""
    if num_objects < 0:
        raise ValueError("num_objects must be non-negative")
    return num_objects * config.object_bytes


def query_bytes(config: NetworkConfig) -> int:
    """Wire bytes of a single query message (``B_H + B_Q``).

    The paper charges a query as one header plus the query string; queries
    are small enough to always fit a single packet.
    """
    return config.header_bytes + config.query_bytes


def aggregate_answer_bytes(config: NetworkConfig) -> int:
    """Wire bytes of a single aggregate answer (``B_H + B_A``)."""
    return config.header_bytes + config.answer_bytes
