"""Aggregate R-tree (aR-tree style) for fast COUNT window queries.

The paper notes that "COUNT queries can be answered fast by data structures
such as the aR-tree or the aHRB-tree".  The server substrate therefore
backs its COUNT primitive with this index: every node knows the number of
objects in its subtree, so a COUNT query adds whole-subtree counts for
nodes fully contained in the window and only descends into
partially-covered subtrees.

The structure is a thin view over an STR-bulk-loaded
:class:`~repro.index.flat.FlatRTree` and is read-only (servers in the paper
are static data publishers).  A subtree's count is the width of its entry
range; the only aggregate stored on top of the flat arrays is the per-node
total object-MBR area.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import InvalidInput
from repro.geometry import rect_array
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.rect_array import Windows
from repro.index.flat import FlatRTree

__all__ = ["AggregateRTree", "Probes", "bucket_probe_arrays", "probe_arrays"]


class AggregateRTree:
    """A read-only count/area-augmented R-tree.

    Parameters
    ----------
    entries:
        ``(mbr, oid)`` pairs to index.
    max_entries:
        Node fanout of the underlying R-tree.

    Notes
    -----
    Besides the object count, each node also aggregates the *total MBR
    area* of the objects below it.  The paper's cost model needs the
    average object-MBR area of a window when joining polygon datasets
    ("we can post an additional aggregate query together with the COUNT
    query"); the server substrate answers that aggregate from this field.
    """

    def __init__(
        self, entries: Sequence[Tuple[Rect, int]], max_entries: int = 16
    ) -> None:
        entries = list(entries)
        mbrs = rect_array.rects_to_array([rect for rect, _ in entries])
        oids = np.array([oid for _, oid in entries], dtype=np.int64)
        self._adopt(FlatRTree.from_mbr_array(mbrs, oids, max_entries))

    @classmethod
    def from_mbr_array(
        cls,
        mbrs: np.ndarray,
        oids: Optional[Sequence[int]] = None,
        max_entries: int = 16,
    ) -> "AggregateRTree":
        """Build from an ``(N, 4)`` MBR array; the servers' entry point.

        Structurally identical to ``AggregateRTree(entries)`` over the same
        rows, but never materialises per-object :class:`Rect` instances.
        """
        self = cls.__new__(cls)
        self._adopt(FlatRTree.from_mbr_array(mbrs, oids, max_entries))
        return self

    def _adopt(self, flat: FlatRTree) -> None:
        self._flat = flat
        n_nodes = flat.boxes.shape[0]
        # Preorder puts a node's first child right after it, so the walk
        # from a node down its first children ends at the next leaf id.
        ids = np.arange(n_nodes, dtype=np.intp)
        leaves = ids[flat.is_leaf]
        self._level = leaves[np.searchsorted(leaves, ids)] - ids

    @cached_property
    def _area(self) -> np.ndarray:
        """Per-node total object area, summed left to right over the leaf's
        entries, then over each node's children, one level at a time.

        Only the area aggregate reads it, so it is summed on first read,
        not at every build."""
        flat = self._flat
        ids = np.arange(flat.boxes.shape[0], dtype=np.intp)
        leaves = ids[flat.is_leaf]
        area = np.zeros(ids.shape[0], dtype=np.float64)
        area[leaves] = _sequential_sums(
            rect_array.areas(flat.entry_mbrs), flat.ent_start[leaves], flat.ent_end[leaves]
        )
        for level in range(1, self.height):
            nodes = ids[self._level == level]
            area[nodes] = _sequential_sums(
                area[flat.child_ids], flat.child_start[nodes], flat.child_end[nodes]
            )
        return area

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._flat.size

    @property
    def flat(self) -> FlatRTree:
        """The underlying index arrays (a fleet lays its shards' out as one forest)."""
        return self._flat

    @property
    def height(self) -> int:
        """Number of levels (a tree holding only a root leaf has height 1)."""
        return int(self._level[0]) + 1

    def bounds(self) -> Optional[Rect]:
        """The MBR of every indexed object (``None`` for an empty index).

        The sharded data plane routes scatter requests by intersecting
        them with each shard's bounds; reading the root MBR here keeps
        that routing consistent with what the index will actually answer.
        """
        return Rect(*self._flat.boxes[0].tolist()) if len(self) else None

    def second_to_last_level_mbrs(self) -> np.ndarray:
        """The ``(K, 4)`` node MBRs SemiJoin transfers.

        The leaf-parent level (the root MBR for a single-leaf tree, nothing
        for an empty one), last node first: the order in which a stack-based
        walk of a pointer tree meets them, which the frozen traces record.
        """
        if not len(self):
            return rect_array.empty_mbrs()
        return self._flat.boxes[self._level == min(1, self.height - 1)][::-1]

    def count(self, window: Rect) -> int:
        """Number of indexed objects intersecting the window."""
        return int(self._flat.count_batch(rect_array.window_array([window]))[0])

    def count_batch(self, windows: Windows) -> List[int]:
        """Answer many COUNT queries in one vectorised frontier traversal.

        Whole subtrees contained in a window contribute their aggregate
        count without being descended, exactly as in :meth:`count`; all
        (node, window) pairs of a traversal step are tested in one
        vectorised operation.  ``windows`` (here and in the other batch
        queries) is a sequence of :class:`Rect` or an ``(N, 4)`` array.
        """
        return self._flat.count_batch(rect_array.window_array(windows)).tolist()

    def window_query_batch_flat(
        self, windows: Windows
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched window queries in CSR ``(bounds, rows)`` form (see :meth:`entries_at`)."""
        return self._flat.window_batch_flat(rect_array.window_array(windows))

    def entries_at(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(mbrs, oids)`` of the entry rows a ``*_batch_flat`` query matched."""
        return self._flat.entries_at(rows)

    def range_query_batch_flat(
        self, centers: "Probes", radii: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Batched range queries in CSR ``(bounds, rows)`` form (see :meth:`entries_at`)."""
        return self._flat.range_batch_flat(*probe_arrays(centers, radii))

    def total_mbr_area(self, window: Rect) -> float:
        """Total object-MBR area of objects intersecting the window.

        Exact for fully contained subtrees; partially covered subtrees are
        resolved by descending, so the result is exact (this is an index
        acceleration, not an estimate).
        """
        return self._total_area(0, window)

    def average_mbr_area(self, window: Rect) -> float:
        """Average object-MBR area over the window (0.0 for an empty window)."""
        c = self.count(window)
        if c == 0:
            return 0.0
        return self.total_mbr_area(window) / c

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _total_area(self, node: int, window: Rect) -> float:
        # A descent, not a frontier: the sum must associate the way the
        # tree nests for the float result to be reproducible.
        flat = self._flat
        box = Rect(*flat.boxes[node].tolist())
        if flat.ent_start[node] == flat.ent_end[node] or not box.intersects(window):
            return 0.0
        if window.contains_rect(box):
            return float(self._area[node])
        if flat.is_leaf[node]:
            mbrs = flat.entries_at(np.arange(flat.ent_start[node], flat.ent_end[node]))[0]
            mask = rect_array.intersects_window(mbrs, window)
            return float(sum(rect_array.areas(mbrs[mask]).tolist()))
        kids = flat.child_ids[flat.child_start[node] : flat.child_end[node]]
        return sum(self._total_area(int(kid), window) for kid in kids)


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
