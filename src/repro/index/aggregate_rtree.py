"""The aggregate R-tree's queries beyond COUNT: range probes and the area aggregate.

The paper notes that "COUNT queries can be answered fast by data structures
such as the aR-tree or the aHRB-tree".  The servers' index,
:class:`~repro.index.flat.FlatRTree`, already is that aR-tree: a subtree's
count is the width of its entry range, so a COUNT adds whole-subtree counts
for nodes fully contained in the window and only descends into
partially-covered subtrees.  This module holds what the index answers on
top of that: the checked probe arrays every RANGE endpoint takes, and the
per-node total object-MBR area behind the scalar aggregate query.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import InvalidInput
from repro.geometry import rect_array
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.flat import FlatRTree

__all__ = [
    "AggregateRTree",
    "Probes",
    "average_mbr_area",
    "bucket_probe_arrays",
    "probe_arrays",
    "total_mbr_area",
]

#: The name ``benchmarks/e2e/layers.py`` (frozen) still patches for
#: ``index.build``: the servers' index is a :class:`FlatRTree`.
AggregateRTree = FlatRTree


def average_mbr_area(index: FlatRTree, window: Rect) -> float:
    """Average object-MBR area over ``window`` (0.0 when no object meets it).

    The paper's cost model needs it when joining polygon datasets ("we can
    post an additional aggregate query together with the COUNT query").
    """
    count = int(index.count_batch(rect_array.window_array([window]))[0])
    if count == 0:
        return 0.0
    return total_mbr_area(index, window) / count


def total_mbr_area(index: FlatRTree, window: Rect) -> float:
    """Total object-MBR area of the objects intersecting ``window``.

    Exact: fully contained subtrees add their aggregate, partially covered
    ones are descended (an index acceleration, not an estimate).  The
    per-node aggregate is summed per call; only this query reads it.
    """
    return _total_area(index, _subtree_areas(index), 0, window)


def _subtree_areas(index: FlatRTree) -> np.ndarray:
    """Per-node total object area, summed left to right over the leaf's
    entries, then over each node's children, one level at a time."""
    ids = np.arange(index.is_leaf.shape[0], dtype=np.intp)
    leaves = ids[index.is_leaf]
    # Preorder puts a node's first child right after it, so the walk from a
    # node down its first children ends at the next leaf id.
    level = leaves[np.searchsorted(leaves, ids)] - ids
    area = np.zeros(ids.shape[0], dtype=np.float64)
    area[leaves] = _sequential_sums(
        rect_array.areas(index.entry_mbrs), index.ent_start[leaves], index.ent_end[leaves]
    )
    for depth in range(1, index.height):
        nodes = ids[level == depth]
        area[nodes] = _sequential_sums(
            area[index.child_ids], index.child_start[nodes], index.child_end[nodes]
        )
    return area


def _total_area(index: FlatRTree, area: np.ndarray, node: int, window: Rect) -> float:
    # A descent, not a frontier: the sum must associate the way the tree
    # nests for the float result to be reproducible.
    box = Rect(*index.boxes[node].tolist())
    if index.ent_start[node] == index.ent_end[node] or not box.intersects(window):
        return 0.0
    if window.contains_rect(box):
        return float(area[node])
    if index.is_leaf[node]:
        mbrs = index.entries_at(np.arange(index.ent_start[node], index.ent_end[node]))[0]
        mask = rect_array.intersects_window(mbrs, window)
        return float(sum(rect_array.areas(mbrs[mask]).tolist()))
    kids = index.child_ids[index.child_start[node] : index.child_end[node]]
    return sum(_total_area(index, area, int(kid), window) for kid in kids)


Probes = Union[Sequence[Point], np.ndarray]


def probe_arrays(centers: Probes, radii: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Range probes as the ``(P, 2)`` centre / ``(P,)`` radius arrays the index takes.

    ``centers`` is a sequence of :class:`Point` or already the ``(P, 2)``
    array: every probe-taking endpoint accepts either and converts here,
    once, at its boundary -- which is also where probes are checked, before
    anything is answered, metered or booked.  A centre array that is not
    ``(P, 2)``, a negative or non-finite radius (``nan`` would match
    nothing, ``inf`` everything) or a non-finite centre is
    :class:`~repro.errors.InvalidInput`.
    """
    if isinstance(centers, np.ndarray):
        pts = centers
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidInput(f"probe centres must be a (P, 2) array, got shape {pts.shape}")
    else:
        pts = np.array([(p.x, p.y) for p in centers], dtype=np.float64).reshape(-1, 2)
    reach = np.asarray(radii, dtype=np.float64)
    if reach.shape != (pts.shape[0],):
        raise InvalidInput("radii must be parallel to centers")
    if (reach < 0).any():
        raise InvalidInput("epsilon must be non-negative")
    if not (np.isfinite(reach).all() and np.isfinite(pts).all()):
        raise InvalidInput("range probes need finite centres and radii")
    return pts, reach


def bucket_probe_arrays(
    centers: Probes, epsilon: float, radii: Optional[Sequence[float]]
) -> Tuple[np.ndarray, np.ndarray]:
    """The probes of one bucket query as checked arrays (:func:`probe_arrays`);
    ``epsilon``, the bucket's own radius, is every probe's when ``radii`` is ``None``."""
    if not len(centers):
        raise InvalidInput("bucket_range needs at least one probe point")
    probe_arrays(centers[:1], [epsilon])
    return probe_arrays(centers, np.full(len(centers), epsilon) if radii is None else radii)


def _sequential_sums(
    values: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """``values[starts[i]:ends[i]]`` summed left to right, for every ``i``.

    One column of every range per step, so each sum rounds exactly as a
    scalar ``for`` loop over its range would.
    """
    width = ends - starts
    out = np.zeros(starts.shape[0], dtype=np.float64)
    for column in range(int(width.max(initial=0))):
        live = width > column
        out[live] += values[starts[live] + column]
    return out
