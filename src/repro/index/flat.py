"""The array-native R-tree: a read-only structure-of-arrays index.

:class:`FlatRTree` holds an R-tree as parallel arrays (nodes in preorder
DFS, each subtree's entries contiguous) and answers whole query batches
with frontier traversal: each step tests every active (node, query) pair in
one vectorised operation and expands the survivors with ``np.repeat`` -- no
per-node Python loop and no node object exists.

Storage is literally structure-of-arrays: node boxes and entry MBRs are
``(4, n)`` *column blocks* (:attr:`FlatRTree.node_cols`,
:attr:`FlatRTree.entry_cols`; rows ``xmin, ymin, xmax, ymax``), so a
traversal step gathers the boxes it reaches with one ``take`` and compares
contiguous coordinate columns.  ``boxes`` / ``entry_mbrs`` are the
``(n, 4)`` transposed *views* of those blocks -- nothing is held twice.

An index is a forest with one tree.  :meth:`FlatRTree.forest` lays several
trees out back to back (node ids, child ranges and entry positions shifted
by what precedes them; the trees' entry arrays become slices of the forest's)
and :attr:`FlatRTree.roots` names each tree's root node; the batch queries
take an optional per-row ``roots`` array and start every row at its own
root, so one descent answers rows that belong to different trees.  Each row
descends exactly as it would through its own tree -- same steps, same
order -- hence its answer, entry order included, is that tree's answer with
the entry positions shifted by the tree's offset in the forest.

:meth:`FlatRTree.from_mbr_array` is the index build: an STR bulk load that
tiles level by level on arrays and writes the node arrays directly.  The
constructor takes those arrays as they are -- it is the one place that says
what an index holds.  The tests pin the build, array for array, against a
pointer R-tree flattened into the same layout
(``tests/oracles/pointer_rtree.py``).

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
from repro.geometry.rect_array import expand_index_ranges

__all__ = ["FlatRTree", "str_tiling"]


class FlatRTree:
    """A read-only R-tree in structure-of-arrays form.

    The constructor stores the arrays it is given; build an index with
    :meth:`from_mbr_array` (from data) or :meth:`forest` (from indexes).

    Attributes
    ----------
    node_cols, entry_cols:
        ``(4, n)`` coordinate column blocks (rows ``xmin, ymin, xmax,
        ymax``) of the node boxes and the entry MBRs; :attr:`boxes` and
        :attr:`entry_mbrs` are their ``(n, 4)`` views.
    is_leaf:
        Per node (preorder; a node's id is its position): has no children.
    entry_oids:
        Object id of every entry, depth-first, parallel to ``entry_cols``.
    ent_start, ent_end:
        Per node, the range of entry positions its subtree holds.
    child_start, child_end, child_ids:
        Per node, its range in ``child_ids``, which lists children's node
        ids left to right.
    size:
        Number of entries.
    roots:
        The root node id of every tree laid out in this index: ``[0]``
        unless :meth:`forest` built it.
    """

    def __init__(
        self,
        node_cols: np.ndarray,
        is_leaf: np.ndarray,
        entry_cols: np.ndarray,
        entry_oids: np.ndarray,
        ent_start: np.ndarray,
        ent_end: np.ndarray,
        child_start: np.ndarray,
        child_end: np.ndarray,
        child_ids: np.ndarray,
        roots: Optional[np.ndarray] = None,
    ) -> None:
        self.node_cols = node_cols
        self.is_leaf = is_leaf
        self.entry_cols = entry_cols
        self.entry_oids = entry_oids
        self.ent_start = ent_start
        self.ent_end = ent_end
        self.child_start = child_start
        self.child_end = child_end
        self.child_ids = child_ids
        self.size = int(entry_oids.shape[0])
        self.roots = np.zeros(1, dtype=np.intp) if roots is None else roots

    @property
    def boxes(self) -> np.ndarray:
        """Node boxes as ``(n_nodes, 4)`` rows: a view of :attr:`node_cols`."""
        return self.node_cols.T

    @property
    def entry_mbrs(self) -> np.ndarray:
        """Entry MBRs as ``(size, 4)`` rows: a view of :attr:`entry_cols`."""
        return self.entry_cols.T

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
        levels out in preorder top-down.
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

        ent_end = ent_end[pre]
        child_end = np.cumsum(fanout)
        return cls(
            node_cols=np.ascontiguousarray(boxes[pre].T),
            is_leaf=fanout == 0,
            entry_cols=np.ascontiguousarray(arr.take(order, axis=0).T),
            entry_oids=oid_arr[order],
            ent_start=ent_end - weight[pre],
            ent_end=ent_end,
            child_start=child_end - fanout,
            child_end=child_end,
            child_ids=node_id[kids],
        )

    @classmethod
    def forest(cls, trees: Sequence["FlatRTree"]) -> "FlatRTree":
        """Lay ``trees`` out back to back as one index with a root per tree.

        Tree ``t`` keeps its node, child and entry order; its node ids grow
        by the nodes before it, its entry positions by the entries before
        it (``ent_start[roots[t]]``).  Afterwards every tree's
        ``entry_cols`` / ``entry_oids`` *are* its slice of the forest's, so
        a fleet holds its entries once however it is queried.
        """

        def offsets(lengths) -> np.ndarray:
            return np.concatenate([[0], np.cumsum(lengths, dtype=np.intp)])

        node_off = offsets([t.is_leaf.shape[0] for t in trees])
        ent_off = offsets([t.size for t in trees])
        kid_off = offsets([t.child_ids.shape[0] for t in trees])

        def shifted(name: str, off: np.ndarray) -> np.ndarray:
            return np.concatenate([getattr(t, name) + o for t, o in zip(trees, off)])

        forest = cls(
            node_cols=np.concatenate([t.node_cols for t in trees], axis=1),
            is_leaf=np.concatenate([t.is_leaf for t in trees]),
            entry_cols=np.concatenate([t.entry_cols for t in trees], axis=1),
            entry_oids=np.concatenate([t.entry_oids for t in trees]),
            ent_start=shifted("ent_start", ent_off),
            ent_end=shifted("ent_end", ent_off),
            child_start=shifted("child_start", kid_off),
            child_end=shifted("child_end", kid_off),
            child_ids=shifted("child_ids", node_off),
            roots=node_off[:-1],
        )
        for tree, lo, hi in zip(trees, ent_off, ent_off[1:]):
            tree.entry_cols = forest.entry_cols[:, lo:hi]
            tree.entry_oids = forest.entry_oids[lo:hi]
        return forest

    # ------------------------------------------------------------------ #
    # batch queries
    # ------------------------------------------------------------------ #

    def count_batch(self, wins: np.ndarray, roots: Optional[np.ndarray] = None) -> np.ndarray:
        """COUNT for every window of a ``(W, 4)`` array, aggregate-style.

        ``roots`` (optional, ``(W,)`` node ids out of :attr:`roots`) starts
        row ``i`` at ``roots[i]`` instead of node 0.
        """
        W = wins.shape[0]
        out = np.zeros(W, dtype=np.int64)
        if self.size == 0 or W == 0:
            return out
        wcols = np.ascontiguousarray(wins.T)
        for qids, contained_node, part_nodes, part_qids in self._frontier(wcols, roots):
            np.add.at(
                out, qids, self.ent_end.take(contained_node) - self.ent_start.take(contained_node)
            )
            if part_nodes.shape[0]:
                hit_qids, _ = self._entries_in_windows(part_nodes, part_qids, wcols)
                out += np.bincount(hit_qids, minlength=W)
        return out

    def window_batch(self, wins: np.ndarray) -> List[np.ndarray]:
        """Qualifying oids for every window of a ``(W, 4)`` array."""
        bounds, rows = self.window_batch_flat(wins)
        oids = self.entry_oids[rows]
        return [oids[bounds[i] : bounds[i + 1]] for i in range(wins.shape[0])]

    def window_batch_flat(
        self, wins: np.ndarray, roots: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Qualifying entries for a window batch, in CSR (offset-array) form.

        Returns ``(bounds, rows)`` with ``len(bounds) == W + 1``: the
        entries of window ``i`` are ``rows[bounds[i]:bounds[i+1]]``,
        positions into :attr:`entry_cols` / :attr:`entry_oids` (gather
        them with :meth:`entries_at`).  The traversal has just tested these
        very rows, so a consumer never looks an oid up again.  ``roots`` as
        in :meth:`count_batch`.
        """
        W = wins.shape[0]
        if self.size == 0 or W == 0:
            return np.zeros(W + 1, dtype=np.intp), np.empty(0, dtype=np.intp)
        wcols = np.ascontiguousarray(wins.T)
        q_chunks: List[np.ndarray] = []
        e_chunks: List[np.ndarray] = []
        for qids, contained_node, part_nodes, part_qids in self._frontier(wcols, roots):
            if contained_node.shape[0]:
                row, ent = expand_index_ranges(
                    self.ent_start.take(contained_node), self.ent_end.take(contained_node)
                )
                q_chunks.append(qids.take(row))
                e_chunks.append(ent)
            if part_nodes.shape[0]:
                hit_qids, hit_ent = self._entries_in_windows(part_nodes, part_qids, wcols)
                q_chunks.append(hit_qids)
                e_chunks.append(hit_ent)
        return self._flatten_by_query(q_chunks, e_chunks, W)

    def range_batch(self, pts: np.ndarray, radii: np.ndarray) -> List[np.ndarray]:
        """Qualifying oids for every probe of ``(P, 2)`` centres / radii."""
        bounds, rows = self.range_batch_flat(pts, radii)
        oids = self.entry_oids[rows]
        return [oids[bounds[i] : bounds[i + 1]] for i in range(pts.shape[0])]

    def range_batch_flat(
        self, pts: np.ndarray, radii: np.ndarray, roots: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Qualifying entries for a probe batch, in CSR (offset-array) form.

        Returns ``(bounds, rows)`` with ``len(bounds) == P + 1``: the
        entries of probe ``i`` are ``rows[bounds[i]:bounds[i+1]]``,
        positions like :meth:`window_batch_flat`'s.  ``roots`` as in
        :meth:`count_batch`.
        """
        P = pts.shape[0]
        if self.size == 0 or P == 0:
            return np.zeros(P + 1, dtype=np.intp), np.empty(0, dtype=np.intp)
        pcols = np.ascontiguousarray(pts.T)
        q_chunks: List[np.ndarray] = []
        e_chunks: List[np.ndarray] = []
        nodes, qids = self._start(P, roots)
        while nodes.shape[0]:
            keep = np.flatnonzero(
                _reaches(
                    self.node_cols.take(nodes, axis=1),
                    pcols.take(qids, axis=1),
                    radii.take(qids),
                )
            )
            nodes, qids = nodes.take(keep), qids.take(keep)
            leaf = self.is_leaf.take(nodes)
            at_leaf, inner = np.flatnonzero(leaf), np.flatnonzero(~leaf)
            if at_leaf.shape[0]:
                row, ent = expand_index_ranges(
                    self.ent_start.take(nodes.take(at_leaf)),
                    self.ent_end.take(nodes.take(at_leaf)),
                )
                q = qids.take(at_leaf).take(row)
                hit = np.flatnonzero(
                    _reaches(
                        self.entry_cols.take(ent, axis=1), pcols.take(q, axis=1), radii.take(q)
                    )
                )
                q_chunks.append(q.take(hit))
                e_chunks.append(ent.take(hit))
            nodes, qids = self._children(nodes.take(inner), qids.take(inner))
        return self._flatten_by_query(q_chunks, e_chunks, P)

    def entries_at(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(mbrs, oids)`` payload of the entry rows a query matched: one take each."""
        return self.entry_cols.take(rows, axis=1).T, self.entry_oids.take(rows)

    # ------------------------------------------------------------------ #
    # single queries
    # ------------------------------------------------------------------ #

    def window_query(self, window: Rect) -> np.ndarray:
        """Oids of the entries meeting ``window``, in entry order."""
        return self.entry_oids[self.window_rows(window)]

    def window_rows(self, window: Rect) -> np.ndarray:
        """Entry rows meeting ``window``, ascending (see :meth:`window_batch_flat`)."""
        wcol = np.array(window.as_tuple(), dtype=np.float64).reshape(4, 1)
        return self._descend(lambda boxes: _meets(boxes, wcol))

    def range_query(self, center: Point, radius: float) -> np.ndarray:
        """Oids of the entries within ``radius`` of ``center``, in entry order."""
        return self.entry_oids[self.range_rows(center, radius)]

    def range_rows(self, center: Point, radius: float) -> np.ndarray:
        """Entry rows within ``radius`` of ``center``, ascending."""
        return self._descend(lambda boxes: _reaches(boxes, (center.x, center.y), radius))

    def _descend(self, keep) -> np.ndarray:
        """One query's descent: ``keep(boxes)`` masks the ``(4, k)`` boxes it reaches.

        A level's surviving nodes stay in left-to-right order, so the hits
        come out in ascending entry position -- the order a recursive
        depth-first descent reports them in, which the scalar payloads on
        the wire have always had.  One query has no use for the frontier's
        per-(node, query) bookkeeping and skips it.
        """
        nodes = np.zeros(1, dtype=np.intp)
        while True:
            nodes = nodes[keep(self.node_cols.take(nodes, axis=1))]
            # Every leaf of an R-tree is at the same depth.
            if nodes.shape[0] == 0 or self.is_leaf[nodes[0]]:
                break
            kid = expand_index_ranges(self.child_start[nodes], self.child_end[nodes])[1]
            nodes = self.child_ids[kid]
        ent = expand_index_ranges(self.ent_start[nodes], self.ent_end[nodes])[1]
        return ent[keep(self.entry_cols.take(ent, axis=1))]

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    @staticmethod
    def _start(n_rows: int, roots: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """The first frontier: every row at its root (node 0 unless told)."""
        qids = np.arange(n_rows, dtype=np.intp)
        if roots is None:
            return np.zeros(n_rows, dtype=np.intp), qids
        return np.asarray(roots, dtype=np.intp), qids

    def _children(self, nodes: np.ndarray, qids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The next frontier: every child of ``nodes``, paired with its row."""
        row, kid = expand_index_ranges(self.child_start.take(nodes), self.child_end.take(nodes))
        return self.child_ids.take(kid), qids.take(row)

    def _frontier(self, wcols: np.ndarray, roots: Optional[np.ndarray]):
        """Level-synchronous traversal for window-shaped queries.

        ``wcols`` is the ``(4, W)`` column block of the windows.  Yields,
        per step, the (query ids, contained node ids) pairs whose subtree
        is fully covered, and the (leaf node ids, query ids) pairs needing
        per-entry tests.  Partially covered internal nodes are expanded
        into the next step's frontier.
        """
        nodes, qids = self._start(wcols.shape[1], roots)
        while nodes.shape[0]:
            nb = self.node_cols.take(nodes, axis=1)
            wb = wcols.take(qids, axis=1)
            keep = np.flatnonzero(_meets(nb, wb))
            if keep.shape[0] == 0:
                return
            nodes, qids = nodes.take(keep), qids.take(keep)
            (nx0, ny0, nx1, ny1), (wx0, wy0, wx1, wy1) = nb.take(keep, axis=1), wb.take(keep, axis=1)
            contained = (wx0 <= nx0) & (wy0 <= ny0) & (nx1 <= wx1) & (ny1 <= wy1)
            inside, partial = np.flatnonzero(contained), np.flatnonzero(~contained)
            partial_nodes, partial_qids = nodes.take(partial), qids.take(partial)
            leaf = self.is_leaf.take(partial_nodes)
            at_leaf, inner = np.flatnonzero(leaf), np.flatnonzero(~leaf)
            yield (
                qids.take(inside),
                nodes.take(inside),
                partial_nodes.take(at_leaf),
                partial_qids.take(at_leaf),
            )
            nodes, qids = self._children(partial_nodes.take(inner), partial_qids.take(inner))

    def _entries_in_windows(
        self, leaves: np.ndarray, qids: np.ndarray, wcols: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The (query id, entry row) pairs of ``leaves``' entries meeting their window."""
        row, ent = expand_index_ranges(self.ent_start.take(leaves), self.ent_end.take(leaves))
        q = qids.take(row)
        hit = np.flatnonzero(
            _meets(self.entry_cols.take(ent, axis=1), wcols.take(q, axis=1))
        )
        return q.take(hit), ent.take(hit)

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


def _meets(boxes, wins) -> np.ndarray:
    """Closed boxes meeting closed windows, element by element.

    Both are coordinate columns ``xmin, ymin, xmax, ymax`` (the rows of a
    ``(4, k)`` block, or anything that broadcasts against them).
    """
    bx0, by0, bx1, by1 = boxes
    wx0, wy0, wx1, wy1 = wins
    return ~((bx1 < wx0) | (wx1 < bx0) | (by1 < wy0) | (wy1 < by0))


def _reaches(boxes, pts, radii) -> np.ndarray:
    """Boxes whose minimum distance to their point ``(x, y)`` is within its radius."""
    bx0, by0, bx1, by1 = boxes
    px, py = pts
    dx = np.maximum(np.maximum(bx0 - px, 0.0), px - bx1)
    dy = np.maximum(np.maximum(by0 - py, 0.0), py - by1)
    return np.hypot(dx, dy) <= radii


def str_tiling(boxes: np.ndarray, capacity: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sort-Tile-Recursive grouping of ``N >= 1`` boxes into tiles of ``capacity``.

    Rows are sorted by centre x (stable), cut into ``ceil(sqrt(N / capacity))``
    vertical slices, each slice sorted by centre y (stable) and cut into
    runs of ``capacity``.  Returns ``(perm, offs)``: tile ``i`` holds rows
    ``perm[offs[i]:offs[i + 1]]``.  Equal keys keep input order.  The one
    copy of the tiling math: the pointer-tree oracle's bulk load calls it too.
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
