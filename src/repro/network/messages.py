"""The kinds of wire message exchanged between the mobile device and a server.

The servers understand only a narrow protocol (Section 3 of the paper):

* ``WINDOW(w)``           -- objects intersecting ``w``;
* ``COUNT(w)``            -- number of objects intersecting ``w``;
* ``RANGE(p, eps)``       -- objects within ``eps`` of point ``p``;
* ``BUCKET_RANGE(ps, eps)`` -- the bucket variant: many range probes in one
  request (Section 3.1, "if the database server supports bucket queries");
* ``AGGREGATE(w, what)``  -- auxiliary scalar aggregates (average object-MBR
  area, index metadata).

A server answers with ``OBJECTS`` or a ``SCALAR``.  A message is its size:
nothing on the wire depends on a window, a probe or a value, only on the
kind and on how many objects the message carries.  The one payload rule,
:func:`repro.network.packets.payload_size`, prices every send beside Eq. 1:
a query is ``B_Q`` plus ``B_obj`` per carried object, a scalar answer
``B_A``, an object payload ``B_obj`` per object.  A channel send names a
kind and its object count (:class:`~repro.network.channel.Channel`), and the
kind's ``value`` is what traffic logs and ledger fingerprints record.
"""

from __future__ import annotations

import enum

__all__ = ["MessageKind"]


class MessageKind(enum.Enum):
    """Classification of wire messages, used by traffic logs and traces."""

    WINDOW = "window"
    COUNT = "count"
    RANGE = "range"
    BUCKET_RANGE = "bucket_range"
    AGGREGATE = "aggregate"
    OBJECTS = "objects"
    SCALAR = "scalar"
