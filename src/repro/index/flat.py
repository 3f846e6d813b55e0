"""The array-native R-tree: a read-only structure-of-arrays index.

:class:`FlatRTree` holds an R-tree as parallel arrays (nodes in preorder
DFS, each subtree's entries contiguous) and answers whole query batches
with frontier traversal: each step tests every active (node, query) pair in
one vectorised operation and expands the survivors with ``np.repeat`` -- no
per-node Python loop and no node object exists.

:meth:`FlatRTree.from_mbr_array` is the index build the servers use: an STR
bulk load that tiles level by level on arrays and writes the node arrays
directly.  ``FlatRTree(tree)`` snapshots an insertable pointer
:class:`~repro.index.rtree.RTree` into the same layout (that tree drops
the snapshot on mutation); both produce identical arrays for the same bulk
load, which the tests pin.

Because the DFS layout keeps each subtree's entries contiguous, a node
fully covered by a query window contributes its whole entry range without
being descended, which is exactly the aggregate-R-tree COUNT shortcut: the
subtree count is ``ent_end - ent_start``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.rect_array import (
    expand_index_ranges,
    intersects_window,
    min_distance_to_point,
)

__all__ = ["FlatRTree", "str_tiling"]


class FlatRTree:
    """A read-only R-tree in structure-of-arrays form.

    Parameters
    ----------
    tree:
        A :class:`repro.index.rtree.RTree` to snapshot; the arrays reflect
        the tree at construction time.  Use :meth:`from_mbr_array` to bulk
        load from data without building a pointer tree.
    """

    def __init__(self, tree) -> None:
        nodes: List = []  # preorder; a node's id is its position
        kids: List[List[int]] = []
        spans: List[Tuple[int, int]] = []  # subtree entry range per node
        leaves: List[Tuple[np.ndarray, np.ndarray]] = []
        self.size = 0

        def visit(node) -> int:
            nid = len(nodes)
            nodes.append(node)
            kids.append([])
            spans.append((0, 0))
            start = self.size
            if node.is_leaf:
                leaves.append(node.leaf_arrays())
                self.size += leaves[-1][1].shape[0]
            else:
                kids[nid] = [visit(child) for child in node.children]
            spans[nid] = (start, self.size)
            return nid

        visit(tree.root)
        no_box = (0.0, 0.0, 0.0, 0.0)  # the root of an empty tree
        self.boxes = np.array(
            [n.mbr.as_tuple() if n.mbr is not None else no_box for n in nodes],
            dtype=np.float64,
        )
        self.is_leaf = np.array([n.is_leaf for n in nodes], dtype=bool)
        self.entry_mbrs = np.vstack([mbrs for mbrs, _ in leaves])
        self.entry_oids = np.concatenate([oids for _, oids in leaves])
        self.ent_start = np.array([lo for lo, _ in spans], dtype=np.intp)
        self.ent_end = np.array([hi for _, hi in spans], dtype=np.intp)
        fanout = np.array([len(k) for k in kids], dtype=np.intp)
        self.child_end = np.cumsum(fanout)
        self.child_start = self.child_end - fanout
        self.child_ids = np.array([c for k in kids for c in k], dtype=np.intp)

    @classmethod
    def from_mbr_array(
        cls,
        mbrs: np.ndarray,
        oids: Optional[Sequence[int]] = None,
        max_entries: int = 16,
    ) -> "FlatRTree":
        """STR bulk load of an ``(N, 4)`` MBR array (oids default to ``range(N)``).

        Tiles bottom-up on arrays -- each level is one STR tiling of the
        boxes below it, its own boxes one ``reduceat`` -- then lays the
        levels out in preorder top-down.  Every array equals, value and
        dtype, what ``FlatRTree(RTree.from_mbr_array(...))`` holds.
        """
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        arr = np.ascontiguousarray(np.asarray(mbrs, dtype=np.float64)).reshape(-1, 4)
        n = arr.shape[0]
        if oids is None:
            oid_arr = np.arange(n, dtype=np.int64)
        else:
            oid_arr = np.asarray(oids, dtype=np.int64)
            if oid_arr.shape != (n,):
                raise ValueError("oids must be a 1D array parallel to mbrs")

        # Bottom-up.  Level k's nodes are the STR tiles of level k-1's boxes
        # (level 0 tiles the entries); ``weight`` counts the entries below.
        tiles = []
        if n == 0:  # no data: a lone leaf over no entries
            zeros = np.zeros(2, dtype=np.intp)
            tiles.append((zeros[:0], zeros, np.zeros((1, 4)), zeros[:1]))
        boxes, weight = arr, np.ones(n, dtype=np.intp)
        while not tiles or boxes.shape[0] > 1:
            perm, offs = str_tiling(boxes, max_entries)
            members = boxes[perm]
            boxes = np.hstack(
                [
                    np.minimum.reduceat(members[:, :2], offs[:-1]),
                    np.maximum.reduceat(members[:, 2:], offs[:-1]),
                ]
            )
            weight = np.add.reduceat(weight[perm], offs[:-1])
            tiles.append((perm, offs, boxes, weight))

        # Top-down.  ``order`` lists a level's nodes left to right: the
        # parents' tiles, parent by parent.  Numbering the nodes level by
        # level for now (the root, then its children, ...) makes a node's
        # children one contiguous run of the next level's block, and the
        # last ``order`` is the entries in depth-first order.
        order = np.zeros(1, dtype=np.intp)
        columns = []
        block_end = 0
        for level in range(len(tiles) - 1, -1, -1):
            perm, offs, boxes, weight = tiles[level]
            lo, hi = offs[order], offs[order + 1]
            fanout = hi - lo if level else np.zeros_like(lo)
            block_end += order.shape[0]
            columns.append(
                (
                    boxes[order],
                    np.cumsum(weight[order]),
                    weight[order],
                    block_end + np.cumsum(fanout),
                    fanout,
                )
            )
            order = perm[expand_index_ranges(lo, hi)[1]]
        boxes, ent_end, weight, kid_end, fanout = (
            np.concatenate(column) for column in zip(*columns)
        )

        # Renumber in preorder.  Blocks run root level first, so a stable
        # sort on the first entry below a node puts a node before its
        # descendants and after everything to its left.
        pre = np.argsort(ent_end - weight, kind="stable")
        node_id = np.empty_like(pre)
        node_id[pre] = np.arange(pre.shape[0], dtype=np.intp)
        kids = expand_index_ranges((kid_end - fanout)[pre], kid_end[pre])[1]
        fanout = fanout[pre]

        self = cls.__new__(cls)
        self.boxes = boxes[pre]
        self.is_leaf = fanout == 0
        self.entry_mbrs = arr[order]
        self.entry_oids = oid_arr[order]
        self.ent_end = ent_end[pre]
        self.ent_start = self.ent_end - weight[pre]
        self.child_end = np.cumsum(fanout)
        self.child_start = self.child_end - fanout
        self.child_ids = node_id[kids]
        self.size = n
        return self

    # ------------------------------------------------------------------ #
    # batch queries
    # ------------------------------------------------------------------ #

    def count_batch(self, wins: np.ndarray) -> np.ndarray:
        """COUNT for every window of a ``(W, 4)`` array, aggregate-style."""
        out = np.zeros(wins.shape[0], dtype=np.int64)
        if self.size == 0 or wins.shape[0] == 0:
            return out
        for qids, contained_node, part_nodes, part_qids in self._frontier(wins):
            np.add.at(
                out,
                qids,
                self.ent_end[contained_node] - self.ent_start[contained_node],
            )
            if part_nodes.shape[0]:
                row, ent = expand_index_ranges(
                    self.ent_start[part_nodes], self.ent_end[part_nodes]
                )
                hit = self._entries_in_windows(ent, wins, part_qids[row])
                np.add.at(out, part_qids[row[hit]], 1)
        return out

    def window_batch(self, wins: np.ndarray) -> List[np.ndarray]:
        """Qualifying oids for every window of a ``(W, 4)`` array."""
        bounds, rows = self.window_batch_flat(wins)
        oids = self.entry_oids[rows]
        return [oids[bounds[i] : bounds[i + 1]] for i in range(wins.shape[0])]

    def window_batch_flat(self, wins: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Qualifying entries for a window batch, in CSR (offset-array) form.

        Returns ``(bounds, rows)`` with ``len(bounds) == W + 1``: the
        entries of window ``i`` are ``rows[bounds[i]:bounds[i+1]]``,
        positions into :attr:`entry_mbrs` / :attr:`entry_oids`.  The
        traversal has just tested these very rows, so a consumer gathers
        payload MBRs and oids with one take each and never looks an oid up
        again.
        """
        W = wins.shape[0]
        if self.size == 0 or W == 0:
            return np.zeros(W + 1, dtype=np.intp), np.empty(0, dtype=np.intp)
        q_chunks: List[np.ndarray] = []
        e_chunks: List[np.ndarray] = []
        for qids, contained_node, part_nodes, part_qids in self._frontier(wins):
            if contained_node.shape[0]:
                row, ent = expand_index_ranges(
                    self.ent_start[contained_node], self.ent_end[contained_node]
                )
                q_chunks.append(qids[row])
                e_chunks.append(ent)
            if part_nodes.shape[0]:
                row, ent = expand_index_ranges(
                    self.ent_start[part_nodes], self.ent_end[part_nodes]
                )
                hit = self._entries_in_windows(ent, wins, part_qids[row])
                q_chunks.append(part_qids[row[hit]])
                e_chunks.append(ent[hit])
        return self._flatten_by_query(q_chunks, e_chunks, W)

    def range_batch(self, pts: np.ndarray, radii: np.ndarray) -> List[np.ndarray]:
        """Qualifying oids for every probe of ``(P, 2)`` centres / radii."""
        bounds, rows = self.range_batch_flat(pts, radii)
        oids = self.entry_oids[rows]
        return [oids[bounds[i] : bounds[i + 1]] for i in range(pts.shape[0])]

    def range_batch_flat(
        self, pts: np.ndarray, radii: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Qualifying entries for a probe batch, in CSR (offset-array) form.

        Returns ``(bounds, rows)`` with ``len(bounds) == P + 1``: the
        entries of probe ``i`` are ``rows[bounds[i]:bounds[i+1]]``,
        positions into :attr:`entry_mbrs` / :attr:`entry_oids` like
        :meth:`window_batch_flat`'s.
        """
        P = pts.shape[0]
        if self.size == 0 or P == 0:
            return np.zeros(P + 1, dtype=np.intp), np.empty(0, dtype=np.intp)
        q_chunks: List[np.ndarray] = []
        e_chunks: List[np.ndarray] = []
        nodes = np.zeros(1, dtype=np.intp)
        qids = np.arange(P, dtype=np.intp)
        nodes, qids = np.meshgrid(nodes, qids, indexing="ij")
        nodes, qids = nodes.ravel(), qids.ravel()
        while nodes.shape[0]:
            keep = self._nodes_within(nodes, pts, radii, qids)
            nodes, qids = nodes[keep], qids[keep]
            if nodes.shape[0] == 0:
                break
            leaf = self.is_leaf[nodes]
            lf_nodes, lf_qids = nodes[leaf], qids[leaf]
            if lf_nodes.shape[0]:
                row, ent = expand_index_ranges(
                    self.ent_start[lf_nodes], self.ent_end[lf_nodes]
                )
                q = lf_qids[row]
                boxes = self.entry_mbrs[ent]
                dx = np.maximum(
                    np.maximum(boxes[:, 0] - pts[q, 0], 0.0), pts[q, 0] - boxes[:, 2]
                )
                dy = np.maximum(
                    np.maximum(boxes[:, 1] - pts[q, 1], 0.0), pts[q, 1] - boxes[:, 3]
                )
                hit = np.hypot(dx, dy) <= radii[q]
                q_chunks.append(q[hit])
                e_chunks.append(ent[hit])
            in_nodes, in_qids = nodes[~leaf], qids[~leaf]
            row, kid = expand_index_ranges(
                self.child_start[in_nodes], self.child_end[in_nodes]
            )
            nodes = self.child_ids[kid]
            qids = in_qids[row]
        return self._flatten_by_query(q_chunks, e_chunks, P)

    # ------------------------------------------------------------------ #
    # single queries
    # ------------------------------------------------------------------ #

    def window_query(self, window: Rect) -> np.ndarray:
        """Oids of the entries meeting ``window``, in entry order."""
        return self.entry_oids[self.window_rows(window)]

    def window_rows(self, window: Rect) -> np.ndarray:
        """Entry rows meeting ``window``, ascending (see :meth:`window_batch_flat`)."""
        return self._descend(lambda boxes: intersects_window(boxes, window))

    def range_query(self, center: Point, radius: float) -> np.ndarray:
        """Oids of the entries within ``radius`` of ``center``, in entry order."""
        return self.entry_oids[self.range_rows(center, radius)]

    def range_rows(self, center: Point, radius: float) -> np.ndarray:
        """Entry rows within ``radius`` of ``center``, ascending."""
        return self._descend(
            lambda boxes: min_distance_to_point(boxes, center.x, center.y) <= radius
        )

    def _descend(self, keep) -> np.ndarray:
        """One query's descent: ``keep(boxes)`` masks the boxes it reaches.

        A level's surviving nodes stay in left-to-right order, so the hits
        come out in ascending entry position -- the order a recursive
        depth-first descent reports them in, which the scalar payloads on
        the wire have always had.  One query has no use for the frontier's
        per-(node, query) bookkeeping and skips it.
        """
        nodes = np.zeros(1, dtype=np.intp)
        while True:
            nodes = nodes[keep(self.boxes[nodes])]
            # Every leaf of an R-tree is at the same depth.
            if nodes.shape[0] == 0 or self.is_leaf[nodes[0]]:
                break
            kid = expand_index_ranges(self.child_start[nodes], self.child_end[nodes])[1]
            nodes = self.child_ids[kid]
        ent = expand_index_ranges(self.ent_start[nodes], self.ent_end[nodes])[1]
        return ent[keep(self.entry_mbrs[ent])]

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _frontier(self, wins: np.ndarray):
        """Level-synchronous traversal for window-shaped queries.

        Yields, per step, the (query ids, contained node ids) pairs whose
        subtree is fully covered, and the (leaf node ids, query ids) pairs
        needing per-entry tests.  Partially covered internal nodes are
        expanded into the next step's frontier.
        """
        nodes = np.zeros(1, dtype=np.intp)
        qids = np.arange(wins.shape[0], dtype=np.intp)
        nodes, qids = np.meshgrid(nodes, qids, indexing="ij")
        nodes, qids = nodes.ravel(), qids.ravel()
        while nodes.shape[0]:
            nb = self.boxes[nodes]
            wb = wins[qids]
            inter = ~(
                (nb[:, 2] < wb[:, 0])
                | (wb[:, 2] < nb[:, 0])
                | (nb[:, 3] < wb[:, 1])
                | (wb[:, 3] < nb[:, 1])
            )
            nodes, qids, nb, wb = nodes[inter], qids[inter], nb[inter], wb[inter]
            if nodes.shape[0] == 0:
                return
            contained = (
                (wb[:, 0] <= nb[:, 0])
                & (wb[:, 1] <= nb[:, 1])
                & (nb[:, 2] <= wb[:, 2])
                & (nb[:, 3] <= wb[:, 3])
            )
            partial_nodes, partial_qids = nodes[~contained], qids[~contained]
            leaf = self.is_leaf[partial_nodes]
            yield (
                qids[contained],
                nodes[contained],
                partial_nodes[leaf],
                partial_qids[leaf],
            )
            in_nodes = partial_nodes[~leaf]
            in_qids = partial_qids[~leaf]
            row, kid = expand_index_ranges(
                self.child_start[in_nodes], self.child_end[in_nodes]
            )
            nodes = self.child_ids[kid]
            qids = in_qids[row]

    def _entries_in_windows(
        self, ent: np.ndarray, wins: np.ndarray, qids: np.ndarray
    ) -> np.ndarray:
        eb = self.entry_mbrs[ent]
        wb = wins[qids]
        return ~(
            (eb[:, 2] < wb[:, 0])
            | (wb[:, 2] < eb[:, 0])
            | (eb[:, 3] < wb[:, 1])
            | (wb[:, 3] < eb[:, 1])
        )

    def _nodes_within(
        self, nodes: np.ndarray, pts: np.ndarray, radii: np.ndarray, qids: np.ndarray
    ) -> np.ndarray:
        nb = self.boxes[nodes]
        dx = np.maximum(np.maximum(nb[:, 0] - pts[qids, 0], 0.0), pts[qids, 0] - nb[:, 2])
        dy = np.maximum(np.maximum(nb[:, 1] - pts[qids, 1], 0.0), pts[qids, 1] - nb[:, 3])
        return np.hypot(dx, dy) <= radii[qids]

    def _flatten_by_query(
        self, q_chunks: List[np.ndarray], e_chunks: List[np.ndarray], n_queries: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Turn (query id, entry row) chunk pairs into CSR offsets + rows."""
        if not q_chunks:
            return np.zeros(n_queries + 1, dtype=np.intp), np.empty(0, dtype=np.intp)
        q = np.concatenate(q_chunks)
        e = np.concatenate(e_chunks)
        order = np.argsort(q, kind="stable")
        bounds = np.searchsorted(q[order], np.arange(n_queries + 1))
        return bounds, e[order]


def str_tiling(boxes: np.ndarray, capacity: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sort-Tile-Recursive grouping of ``N >= 1`` boxes into tiles of ``capacity``.

    Rows are sorted by centre x (stable), cut into ``ceil(sqrt(N / capacity))``
    vertical slices, each slice sorted by centre y (stable) and cut into
    runs of ``capacity``.  Returns ``(perm, offs)``: tile ``i`` holds rows
    ``perm[offs[i]:offs[i + 1]]``.  Equal keys keep input order.  The one
    copy of the tiling math: the pointer tree's bulk load calls it too.
    """
    n = boxes.shape[0]
    slice_count = math.ceil(math.sqrt(math.ceil(n / capacity)))
    slice_size = math.ceil(n / slice_count)
    cx = (boxes[:, 0] + boxes[:, 2]) / 2.0
    cy = (boxes[:, 1] + boxes[:, 3]) / 2.0
    slices = np.split(np.argsort(cx, kind="stable"), range(slice_size, n, slice_size))
    perm = np.concatenate([s[np.argsort(cy[s], kind="stable")] for s in slices])
    rank = np.arange(n, dtype=np.intp)
    offs = np.append(rank[rank % slice_size % capacity == 0], n)
    return perm, offs
