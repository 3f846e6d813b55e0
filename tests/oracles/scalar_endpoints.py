"""The one-query WINDOW / COUNT / RANGE paths ``src/repro/`` shipped at 382aa8c.

Kept verbatim in behaviour as the oracle of "a single query is a batch of
one" and of every batch endpoint's ledger: one query, one index descent
from node 0 (``FlatRTree._descend``), hits in ascending entry order, the
connection's statistics booked for one query, then one exchange of its
own -- the query message built from *this* window or probe, the response
from *these* rows -- under the scalar labels ``"window"`` / ``"count"`` /
``"range"``.  A fleet scatters the query to every non-empty shard whose
bounds meet it (a probe through its Chebyshev square), shards ascending,
and stacks the per-shard answers.

Every function takes a live endpoint -- a
:class:`~repro.server.server.SpatialServer`, a
:class:`~repro.server.remote.RemoteServer` or a
:class:`~repro.server.remote.ShardedRemoteServer` -- and answers and books
on it what ``endpoint.window(...)`` / ``.count(...)`` / ``.range(...)`` did
then, so channels, ledgers, fault substreams, replica orders and
statistics are the real ones.  A server build counts nothing: a
connection books on the replica at the head of its order.  Only the labels the fault streams are drawn
under differ from today's one-row batches (see :data:`BATCH_LABELS`).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.datasets.partition import partition_dataset
from repro.geometry import rect_array
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.rect_array import expand_index_ranges
from repro.index.aggregate_rtree import probe_arrays
from repro.network.messages import MessageKind
from repro.server.remote import ShardedRemoteServer
from repro.server.server import SpatialServer

Payload = Tuple[np.ndarray, np.ndarray]

#: The exchange label of a scalar query -> that of today's one-row batch.
BATCH_LABELS = {"window": "window-batch", "count": "count-batch", "range": "range-batch"}


# --------------------------------------------------------------------------- #
# the index: one query's descent
# --------------------------------------------------------------------------- #


def _meets(boxes, wins) -> np.ndarray:
    """Closed ``(4, k)`` boxes meeting a closed ``(4, 1)`` window column."""
    bx0, by0, bx1, by1 = boxes
    wx0, wy0, wx1, wy1 = wins
    return ~((bx1 < wx0) | (wx1 < bx0) | (by1 < wy0) | (wy1 < by0))


def _reaches(boxes, x: float, y: float, radius: float) -> np.ndarray:
    """``(4, k)`` boxes whose minimum distance to ``(x, y)`` is within ``radius``."""
    bx0, by0, bx1, by1 = boxes
    dx = np.maximum(np.maximum(bx0 - x, 0.0), x - bx1)
    dy = np.maximum(np.maximum(by0 - y, 0.0), y - by1)
    return np.hypot(dx, dy) <= radius


def _descend(flat, keep) -> np.ndarray:
    """One query's descent: ``keep(boxes)`` masks the ``(4, k)`` boxes it reaches.

    A level's surviving nodes stay in left-to-right order, so the hits come
    out in ascending entry position.
    """
    nodes = np.zeros(1, dtype=np.intp)
    while True:
        nodes = nodes[keep(flat.node_cols.take(nodes, axis=1))]
        # Every leaf of an R-tree is at the same depth.
        if nodes.shape[0] == 0 or flat.is_leaf[nodes[0]]:
            break
        kid = expand_index_ranges(flat.child_start[nodes], flat.child_end[nodes])[1]
        nodes = flat.child_ids[kid]
    ent = expand_index_ranges(flat.ent_start[nodes], flat.ent_end[nodes])[1]
    return ent[keep(flat.entries_at(ent)[0].T)]


def window_rows(flat, window: Rect) -> np.ndarray:
    """Entry rows of a :class:`~repro.index.flat.FlatRTree` meeting ``window``, ascending."""
    wcol = np.array(window.as_tuple(), dtype=np.float64).reshape(4, 1)
    return _descend(flat, lambda boxes: _meets(boxes, wcol))


def range_rows(flat, center: Point, radius: float) -> np.ndarray:
    """Entry rows within ``radius`` of ``center``, ascending."""
    return _descend(flat, lambda boxes: _reaches(boxes, center.x, center.y, radius))


# --------------------------------------------------------------------------- #
# one server
# --------------------------------------------------------------------------- #


def _server_window(server: SpatialServer, window: Rect) -> Payload:
    rect_array.window_array([window])
    return server.index.entries_at(window_rows(server.index, window))


def _server_count(server: SpatialServer, window: Rect) -> int:
    rect_array.window_array([window])
    return int(window_rows(server.index, window).shape[0])


def _server_range(server: SpatialServer, center: Point, epsilon: float) -> Payload:
    probe_arrays([center], [epsilon])
    return server.index.entries_at(range_rows(server.index, center, epsilon))


# --------------------------------------------------------------------------- #
# one connection: evaluate once, then one exchange
# --------------------------------------------------------------------------- #


def _remote_window(proxy, window: Rect) -> Payload:
    mbrs, oids = _server_window(proxy.backing_server, window)
    proxy._booked.book_window(1, oids.shape[0])

    def account(channel) -> None:
        channel.send_query(MessageKind.WINDOW, label="window")
        channel.send_response(MessageKind.OBJECTS, label="window-result", objects=oids.shape[0])

    proxy._exchange("window", account)
    return mbrs, oids


def _remote_count(proxy, window: Rect) -> int:
    value = _server_count(proxy.backing_server, window)
    proxy._booked.book_count(1)

    def account(channel) -> None:
        channel.send_query(MessageKind.COUNT, label="count")
        channel.send_response(MessageKind.SCALAR, label="count-result")

    proxy._exchange("count", account)
    return value


def _remote_range(proxy, center: Point, epsilon: float) -> Payload:
    mbrs, oids = _server_range(proxy.backing_server, center, epsilon)
    proxy._booked.book_range(1, oids.shape[0])

    def account(channel) -> None:
        channel.send_query(MessageKind.RANGE, label="range")
        channel.send_response(MessageKind.OBJECTS, label="range-result", objects=oids.shape[0])

    proxy._exchange("range", account)
    return mbrs, oids


# --------------------------------------------------------------------------- #
# a fleet: route, ask each shard in turn, stack
# --------------------------------------------------------------------------- #


def _routed(proxy: ShardedRemoteServer, window: Rect) -> List[int]:
    """Non-empty shards whose bounds meet ``window``, ascending.

    A shard's bounds are those of its partition (a shard server keeps no
    dataset), equal bit for bit to its index root's box."""
    fleet = proxy.backing_server
    parts = partition_dataset(fleet.dataset, len(fleet.shards), fleet.scheme)
    return [si for si, part in enumerate(parts) if len(part) and part.bounds().intersects(window)]


def _stack_payloads(parts: List[Payload]) -> Payload:
    """Per-shard ``(mbrs, oids)`` payloads of one query, back to back."""
    if not parts:
        return np.empty((0, 4)), np.empty(0, dtype=np.int64)
    return np.vstack([m for m, _ in parts]), np.concatenate([o for _, o in parts])


# --------------------------------------------------------------------------- #
# the endpoints
# --------------------------------------------------------------------------- #


def window(endpoint, window: Rect) -> Payload:
    """``endpoint.window(window)`` as it was: rows ascending per shard."""
    if isinstance(endpoint, SpatialServer):
        return _server_window(endpoint, window)
    if isinstance(endpoint, ShardedRemoteServer):
        return _stack_payloads(
            [_remote_window(endpoint._proxies[si], window) for si in _routed(endpoint, window)]
        )
    return _remote_window(endpoint, window)


def count(endpoint, window: Rect) -> int:
    """``endpoint.count(window)`` as it was."""
    if isinstance(endpoint, SpatialServer):
        return _server_count(endpoint, window)
    if isinstance(endpoint, ShardedRemoteServer):
        return sum(_remote_count(endpoint._proxies[si], window) for si in _routed(endpoint, window))
    return _remote_count(endpoint, window)


def range(endpoint, center: Point, epsilon: float) -> Payload:
    """``endpoint.range(center, epsilon)`` as it was: rows ascending per shard."""
    if isinstance(endpoint, SpatialServer):
        return _server_range(endpoint, center, epsilon)
    if isinstance(endpoint, ShardedRemoteServer):
        square = Rect(center.x - epsilon, center.y - epsilon, center.x + epsilon, center.y + epsilon)
        return _stack_payloads(
            [
                _remote_range(endpoint._proxies[si], center, epsilon)
                for si in _routed(endpoint, square)
            ]
        )
    return _remote_range(endpoint, center, epsilon)


def count_window(device, server_name: str, window: Rect) -> int:
    """``MobileDevice.count_window`` as it was: one COUNT, counted on the device."""
    device.counts.count_queries += 1
    server = device.servers.r if server_name.upper() == "R" else device.servers.s
    return count(server, window)
