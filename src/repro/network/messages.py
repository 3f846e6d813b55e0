"""Wire messages exchanged between the mobile device and a server.

The servers understand only a narrow protocol (Section 3 of the paper):

* ``WINDOW(w)``           -- objects intersecting ``w``;
* ``COUNT(w)``            -- number of objects intersecting ``w``;
* ``RANGE(p, eps)``       -- objects within ``eps`` of point ``p``;
* ``BUCKET_RANGE(ps, eps)`` -- the bucket variant: many range probes in one
  request (Section 3.1, "if the database server supports bucket queries");
* ``AGGREGATE(w, what)``  -- auxiliary scalar aggregates (average object-MBR
  area), returned together with COUNT when joining polygon datasets.

Each message knows its payload size; the channel turns payload sizes into
wire bytes with the packetisation model.  Responses carry either objects
(:class:`ObjectPayload`) or a scalar (:class:`ScalarResponse`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.network.config import NetworkConfig

__all__ = [
    "MessageKind",
    "Message",
    "QueryMessage",
    "WindowQuery",
    "CountQuery",
    "RangeQuery",
    "BucketRangeQuery",
    "AggregateQuery",
    "ResponseMessage",
    "ObjectPayload",
    "ScalarResponse",
]


class MessageKind(enum.Enum):
    """Classification of wire messages, used by traffic logs and traces."""

    WINDOW = "window"
    COUNT = "count"
    RANGE = "range"
    BUCKET_RANGE = "bucket_range"
    AGGREGATE = "aggregate"
    OBJECTS = "objects"
    SCALAR = "scalar"


class Message:
    """Base class for all wire messages."""

    kind: MessageKind

    def payload_bytes(self, config: NetworkConfig) -> int:
        """Logical payload size in bytes (before packetisation)."""
        raise NotImplementedError

    def is_query(self) -> bool:
        return isinstance(self, QueryMessage)


class QueryMessage(Message):
    """A request sent from the device to a server.

    All queries are modelled as fixed-size strings of ``B_Q`` bytes, as in
    the paper's cost model; bucket queries additionally carry their probe
    objects.
    """

    def payload_bytes(self, config: NetworkConfig) -> int:
        return config.query_bytes


@dataclass(frozen=True)
class WindowQuery(QueryMessage):
    """``WINDOW(w)``: return all objects intersecting ``window``."""

    window: Rect
    kind: MessageKind = field(default=MessageKind.WINDOW, init=False)


@dataclass(frozen=True)
class CountQuery(QueryMessage):
    """``COUNT(w)``: return the number of objects intersecting ``window``."""

    window: Rect
    kind: MessageKind = field(default=MessageKind.COUNT, init=False)


@dataclass(frozen=True)
class RangeQuery(QueryMessage):
    """``RANGE(p, eps)``: return objects within ``epsilon`` of ``center``."""

    center: Point
    epsilon: float
    kind: MessageKind = field(default=MessageKind.RANGE, init=False)

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")


@dataclass(frozen=True)
class BucketRangeQuery(QueryMessage):
    """Bucket variant: ship ``len(centers)`` probe objects in one request.

    The request payload is the query string plus the probe objects
    themselves (``|probe| * B_obj``), matching the paper's bucket NLSJ cost
    ``(b_R + b_S) * TB(|Rw| * B_obj)`` -- the probes are first downloaded
    from one server and then uploaded to the other.  A probe object encodes
    its own extent on the wire, so per-probe search radii (which the
    connections check and the servers apply) add nothing to the payload.
    """

    centers: Tuple[Point, ...]
    epsilon: float
    probe_count: Optional[int] = None
    kind: MessageKind = field(default=MessageKind.BUCKET_RANGE, init=False)

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.probe_count is None:
            object.__setattr__(self, "probe_count", len(self.centers))
        elif self.centers and self.probe_count != len(self.centers):
            raise ValueError("probe_count must equal the number of centers")
        if self.probe_count < 1:
            raise ValueError("a bucket range query needs at least one probe point")

    @classmethod
    def of_size(cls, probe_count: int, epsilon: float) -> "BucketRangeQuery":
        """A query that carries only its size, for callers that just meter it."""
        return cls((), epsilon, probe_count=probe_count)

    def payload_bytes(self, config: NetworkConfig) -> int:
        return config.query_bytes + self.probe_count * config.object_bytes


@dataclass(frozen=True)
class AggregateQuery(QueryMessage):
    """``AGGREGATE(w, what)``: scalar aggregate over a window.

    ``what`` is one of ``"count"`` (redundant with COUNT, kept for symmetry)
    or ``"avg_mbr_area"``.
    """

    window: Rect
    what: str = "avg_mbr_area"
    kind: MessageKind = field(default=MessageKind.AGGREGATE, init=False)

    _ALLOWED = ("count", "avg_mbr_area")

    def __post_init__(self) -> None:
        if self.what not in self._ALLOWED:
            raise ValueError(f"unknown aggregate {self.what!r}; allowed: {self._ALLOWED}")


class ResponseMessage(Message):
    """A response sent from a server back to the device."""


@dataclass(frozen=True)
class ObjectPayload(ResponseMessage):
    """A set of spatial objects shipped to the device.

    ``mbrs`` is an ``(N, 4)`` array, ``oids`` the parallel id array.  For
    bucket range queries the server returns the concatenation of all probe
    results plus, per the paper's Eq. 5, one object-sized separator per
    probe (modelled via ``per_probe_overhead_objects``).
    """

    mbrs: np.ndarray
    oids: np.ndarray
    per_probe_overhead_objects: int = 0
    kind: MessageKind = field(default=MessageKind.OBJECTS, init=False)

    def __post_init__(self) -> None:
        if self.mbrs.ndim != 2 or self.mbrs.shape[1] != 4:
            raise ValueError("ObjectPayload.mbrs must be an (N, 4) array")
        if self.oids.shape[0] != self.mbrs.shape[0]:
            raise ValueError("oids and mbrs must have the same length")
        if self.per_probe_overhead_objects < 0:
            raise ValueError("per_probe_overhead_objects must be non-negative")

    @property
    def count(self) -> int:
        return int(self.mbrs.shape[0])

    def payload_bytes(self, config: NetworkConfig) -> int:
        return (self.count + self.per_probe_overhead_objects) * config.object_bytes


@dataclass(frozen=True)
class ScalarResponse(ResponseMessage):
    """A scalar answer (COUNT result or an aggregate value)."""

    value: float
    kind: MessageKind = field(default=MessageKind.SCALAR, init=False)

    def payload_bytes(self, config: NetworkConfig) -> int:
        return config.answer_bytes
