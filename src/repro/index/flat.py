"""The array-native R-tree: a read-only structure-of-arrays index.

:class:`FlatRTree` holds an R-tree as parallel arrays (nodes in preorder
DFS, each subtree's entries contiguous) and answers whole query batches
level by level: each step *opens* every active (node, query) pair's page in
one vectorised operation -- no per-node Python loop and no node object
exists.

Storage is literally structure-of-arrays: node boxes and entry MBRs are
``(4, n)`` *column blocks* (:attr:`FlatRTree.node_cols`,
:attr:`FlatRTree.entry_cols`; rows ``xmin, ymin, xmax, ymax``); ``boxes`` /
``entry_mbrs`` are their ``(n, 4)`` transposed *views*.  The constructor
arrays are what an index *is* (the build, :meth:`FlatRTree.forest`,
:meth:`FlatRTree.entries_at`, the single-query descents and the area
aggregate read them).  What the batch descents read is derived from them on
the first batch query:

**A node is a page.**  The page table is a ``(4, n_nodes + n_trees, M)``
block: row ``v`` of plane ``c`` holds coordinate ``c`` of the ``M`` boxes
directly below node ``v`` -- the children of an inner node, the entries of a
leaf -- side by side, as an R-tree page lays them out on disk.  A step of a
descent gathers the pages of the nodes it opens with **one** ``take``, tests
each page's ``M`` slots against its row's query by broadcasting, and opens
the children that are reached but not covered next.  The frontier therefore
holds *(node to open, query)* pairs, not *(child, query)* pairs, and no
coordinate is gathered per child; it starts at the root nodes, whose own
boxes are never tested (see :meth:`FlatRTree._frontier`).  Three details
make this exact:

* *Negated maxima.*  A slot stores ``xmin, ymin, -xmax, -ymax``.  A closed
  box meets a closed window iff ``xmin <= wx1, ymin <= wy1, xmax >= wx0,
  ymax >= wy0``, i.e. ``slot <= [wx1, wy1, -wx0, -wy0]`` on all four planes;
  it lies inside the window iff ``slot >= [wx0, wy0, -wx1, -wy1]``.  Float
  negation is exact and reverses order (``-0.0 == 0.0`` either way), so on
  finite input these are the very comparisons of ``_meets`` (``~(a < b)``
  is ``a >= b`` unless a side is ``nan``) and of containment.  A probe's
  distance test negates the two planes back -- exact again -- and calls the
  one ``_reaches``.  Non-finite windows and probes never get here:
  ``rect_array.window_array`` / ``aggregate_rtree.probe_arrays`` reject them
  at the server and connection boundary.
* *Padding.*  A page with fewer than ``M`` boxes is padded with ``nan``
  (not ``inf``): every comparison with ``nan`` is false and every distance
  to it is ``nan``, so a padding slot matches no window or probe, the
  largest finite ones included.
* *Order.*  Pages are opened in frontier order (by query, then left to
  right) and a page's slots are read left to right, so a query's entries
  come out as they always have: depth by depth, the entry ranges of the
  subtrees covered at a depth before that depth's leaf hits.  Entry order
  is wire format (payload order, hence pair order, hence traces).

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

Because the DFS layout keeps each subtree's entries contiguous, a child
fully covered by a query window contributes its whole entry range when its
parent is opened, without being opened itself -- exactly the aggregate-R-tree
COUNT shortcut: the subtree count is ``ent_end - ent_start``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import require_count
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
        ids left to right (ranges in node order, like the leaves' entry
        ranges).
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
        self._pages = None  # derived from the fields above on first batch query

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
        require_count(max_entries, "max_entries", minimum=4)
        arr = np.asarray(mbrs, dtype=np.float64).reshape(-1, 4)
        n = arr.shape[0]
        if oids is None:
            oid_arr = np.arange(n, dtype=np.int64)
        else:
            oid_arr = np.asarray(oids, dtype=np.int64)
            if oid_arr.shape != (n,):
                raise ValueError("oids must be a 1D array parallel to mbrs")

        # Bottom-up.  Level k's nodes are the STR tiles of level k-1's boxes
        # (level 0 tiles the entries); ``weight`` counts the entries below.
        # Boxes are ``(4, k)`` coordinate columns, so a level's boxes are
        # one ``reduceat`` per contiguous column pair.
        tiles = []
        if n == 0:  # no data: a lone leaf over no entries
            zeros = np.zeros(2, dtype=np.intp)
            tiles.append((zeros[:0], zeros, np.zeros((4, 1)), zeros[:1]))
        entries = np.ascontiguousarray(arr.T)
        cols, weight = entries, np.ones(n, dtype=np.intp)
        while not tiles or cols.shape[1] > 1:
            perm, offs = str_tiling(cols.T, max_entries)
            members, starts = cols.take(perm, axis=1), offs[:-1]
            cols = np.concatenate(
                [
                    np.minimum.reduceat(members[:2], starts, axis=1),
                    np.maximum.reduceat(members[2:], starts, axis=1),
                ]
            )
            weight = np.add.reduceat(weight[perm], starts)
            tiles.append((perm, offs, cols, weight))

        # Top-down.  ``order`` lists a level's nodes left to right: the
        # parents' tiles, parent by parent.  Numbering the nodes level by
        # level for now (the root, then its children, ...) makes a node's
        # children one contiguous run of the next level's block, and the
        # last ``order`` is the entries in depth-first order.
        order = np.zeros(1, dtype=np.intp)
        columns = []
        block_end = 0
        for level in range(len(tiles) - 1, -1, -1):
            perm, offs, cols, weight = tiles[level]
            lo, hi = offs[order], offs[order + 1]
            fanout = hi - lo if level else np.zeros_like(lo)
            block_end += order.shape[0]
            columns.append(
                (
                    cols.take(order, axis=1),
                    np.cumsum(weight[order]),
                    weight[order],
                    block_end + np.cumsum(fanout),
                    fanout,
                )
            )
            order = perm[expand_index_ranges(lo, hi)[1]]
        cols, ent_end, weight, kid_end, fanout = (
            np.concatenate(column, axis=-1) for column in zip(*columns)
        )

        # Renumber in preorder.  Blocks run root level first, so a stable
        # sort on the first entry below a node puts a node before its
        # descendants and after everything to its left.
        pre = _stable_order(ent_end - weight)
        node_id = np.empty_like(pre)
        node_id[pre] = np.arange(pre.shape[0], dtype=np.intp)
        kids = expand_index_ranges((kid_end - fanout)[pre], kid_end[pre])[1]
        fanout = fanout[pre]

        ent_end = ent_end[pre]
        child_end = np.cumsum(fanout)
        return cls(
            node_cols=cols.take(pre, axis=1),
            is_leaf=fanout == 0,
            entry_cols=entries.take(order, axis=1),
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
        qids, covered, leaf_q, _, mask = self._frontier(W, roots, *_window_tests(wins))
        np.add.at(out, qids, self.ent_end.take(covered) - self.ent_start.take(covered))
        np.add.at(out, leaf_q, np.add.reduce(mask, axis=1))
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
        return self._rows_by_query(wins.shape[0], roots, *_window_tests(wins))

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
        px, py = np.ascontiguousarray(pts.T)

        def reached(page: np.ndarray, qids: np.ndarray) -> np.ndarray:
            x0, y0, nx1, ny1 = page
            at = px.take(qids)[:, None], py.take(qids)[:, None]
            return _reaches((x0, y0, -nx1, -ny1), at, radii.take(qids)[:, None])

        return self._rows_by_query(pts.shape[0], roots, reached, None)

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

    def _page_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """The page table ``(pages, base)``, built on first use.

        ``pages[:, v]`` is node ``v``'s page (module docstring).  Slot ``c``
        of page ``v`` is entry row ``base[v] + c`` if ``v`` is a leaf, else
        node ``child_ids[base[v] + c]``.  Both kinds of range run in node
        order, so the real slots, row by row, are the entries (the
        children) in the order their arrays already list them.
        """
        if self._pages is None:
            base = np.where(self.is_leaf, self.ent_start, self.child_start)
            width = np.where(self.is_leaf, self.ent_end, self.child_end) - base
            real = np.arange(width.max()) < width[:, None]
            entries = real & self.is_leaf[:, None]
            real ^= entries  # what is left: child boxes
            pages = np.full((4, *real.shape), np.nan)
            for page, below, boxes in zip(pages, self.entry_cols, self.node_cols):
                page[entries] = below
                page[real] = boxes.take(self.child_ids)
            np.negative(pages[2:], out=pages[2:])
            self._pages = pages, base
        return self._pages

    def _open(self, nodes: np.ndarray) -> np.ndarray:
        """The ``(4, k, M)`` pages of ``nodes``: the one gather of box coordinates a step makes."""
        return self._page_table()[0].take(nodes, axis=1)

    def _frontier(self, n_rows: int, roots: Optional[np.ndarray], met, inside):
        """Level-synchronous descent of ``n_rows`` queries, a page per (node, query).

        ``met(page, qids)`` masks the ``(k, M)`` slots of the ``(4, k, M)``
        opened pages that each row's query reaches; ``inside`` likewise the
        slots it covers whole (``None``: none ever).  Returns ``(qids,
        nodes, leaf_qids, leaves, met)``: the (query, node) pairs whose
        subtree is covered, then the (query, leaf) pairs opened with the
        ``(k, M)`` mask of the leaf entries met, each depth by depth and
        within a depth by query, then left to right.  Children met but not
        covered are opened next.

        Row ``i`` starts by opening its root (``roots[i]``, else node 0):
        a root box bounds every box below it, so skipping its test changes
        no count, row or row order.  A missed root's children are all
        missed (``_meets`` and ``_reaches`` are monotone in the box bounds);
        a covered root's children are all covered, and their entry ranges
        join up into the root's range; every entry is still tested.  A
        level of one tree is all inner or all leaf pages, so it is settled
        once; only a forest of unequal heights mixes them and splits.
        """
        pages, base = self._page_table()
        M = pages.shape[2]
        nodes = np.zeros(n_rows, dtype=np.intp) if roots is None else roots
        qids = np.arange(n_rows, dtype=np.intp)
        none = qids[:0]
        found = [none], [none], [none], [none], [np.zeros((0, M), dtype=bool)]
        while nodes.shape[0]:
            page = self._open(nodes)
            mask = met(page, qids)
            leaf = self.is_leaf.take(nodes)
            if np.logical_and.reduce(leaf):  # a tree's leaf level: the last
                for chunks, part in zip(found[2:], (qids, nodes, mask)):
                    chunks.append(part)
                break
            if np.logical_or.reduce(leaf):  # a forest whose trees differ in height
                for chunks, part in zip(found[2:], (qids, nodes, mask)):
                    chunks.append(part.compress(leaf, axis=0))
                mask = mask & ~leaf[:, None]
            at = mask.ravel().nonzero()[0]
            row, col = np.divmod(at, M)
            kid, q = self.child_ids.take(base.take(nodes.take(row)) + col), qids.take(row)
            if inside is not None:
                whole = inside(page.reshape(4, -1).take(at, axis=1)[:, :, None], q)[:, 0]
                found[0].append(q.compress(whole))
                found[1].append(kid.compress(whole))
                part = (~whole).nonzero()[0]
                kid, q = kid.take(part), q.take(part)
            nodes, qids = kid, q
        return [np.concatenate(chunks) for chunks in found]

    def _rows_by_query(self, n_rows: int, roots, met, inside) -> Tuple[np.ndarray, np.ndarray]:
        """The entry rows a :meth:`_frontier` descent qualifies, in CSR form."""
        if self.size == 0 or n_rows == 0:
            return np.zeros(n_rows + 1, dtype=np.intp), np.empty(0, dtype=np.intp)
        qids, covered, leaf_q, leaves, mask = self._frontier(n_rows, roots, met, inside)
        of, ent = expand_index_ranges(self.ent_start.take(covered), self.ent_end.take(covered))
        row, col = np.divmod(mask.ravel().nonzero()[0], mask.shape[1])
        # A query's leaf entries are met at its tree's leaf depth, after every
        # depth it covered a subtree at: a stable sort by query keeps its order.
        q = np.concatenate([qids.take(of), leaf_q.take(row)])
        order = np.argsort(q, kind="stable")
        rows = np.concatenate([ent, self.ent_start.take(leaves.take(row)) + col])
        return np.searchsorted(q[order], np.arange(n_rows + 1)), rows[order]


#: A box ``xmin, ymin, xmax, ymax`` times this is its page slot ``xmin, ymin, -xmax, -ymax``.
_SIGN = np.array([1.0, 1.0, -1.0, -1.0])


def _window_tests(wins: np.ndarray):
    """``(met, inside)`` of :meth:`FlatRTree._frontier` for ``(W, 4)`` windows."""
    reach = np.ascontiguousarray((wins[:, [2, 3, 0, 1]] * _SIGN).T)  # slot <= wx1, wy1, -wx0, -wy0
    cover = np.ascontiguousarray((wins * _SIGN).T)  # slot >= wx0, wy0, -wx1, -wy1
    return (
        lambda page, qids: np.logical_and.reduce(page <= reach.take(qids, axis=1)[:, :, None]),
        lambda page, qids: np.logical_and.reduce(page >= cover.take(qids, axis=1)[:, :, None]),
    )


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
    # A distance is no smaller than either of its components, so only boxes
    # within the radius on both axes need the (slow) hypotenuse.
    near = (dx <= radii) & (dy <= radii)
    return near & (np.hypot(dx, dy, out=dx, where=near) <= radii)


def str_tiling(boxes: np.ndarray, capacity: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sort-Tile-Recursive grouping of ``N >= 1`` boxes into tiles of ``capacity``.

    Rows are sorted by centre x (stable), cut into ``ceil(sqrt(N / capacity))``
    vertical slices, each slice sorted by centre y (stable) and cut into
    runs of ``capacity``.  Returns ``(perm, offs)``: tile ``i`` holds rows
    ``perm[offs[i]:offs[i + 1]]``.  Equal keys keep input order.  The one
    copy of the tiling math: the pointer-tree oracle's bulk load calls it too.

    Three sorts and no loop over slices: the x order, one global y order
    whose ties follow the x order -- so every slice's rows appear in it in
    their per-slice stable order -- and one ``int64`` sort of
    ``(slice, y rank)`` that groups them by slice.
    """
    n = boxes.shape[0]
    slice_count = math.ceil(math.sqrt(math.ceil(n / capacity)))
    slice_size = math.ceil(n / slice_count)
    cx = (boxes[:, 0] + boxes[:, 2]) / 2.0
    cy = (boxes[:, 1] + boxes[:, 3]) / 2.0
    rank = np.arange(n, dtype=np.intp)
    by_x = _stable_order(cx)
    x_pos = np.empty_like(by_x)
    x_pos[by_x] = rank
    by_y = _stable_order(cy, then=x_pos)
    key = x_pos[by_y] // slice_size * n + rank
    key.sort()
    perm = by_y[key % n]
    offs = np.append(rank[rank % slice_size % capacity == 0], n)
    return perm, offs


def _stable_order(keys: np.ndarray, then: Optional[np.ndarray] = None) -> np.ndarray:
    """Exactly ``np.argsort(keys, kind="stable")`` without a stable sort
    (numpy's is a timsort, several times slower than its SIMD sorts).

    Rows with equal keys come in row order, or in ``then`` order when
    ``then`` -- a permutation of ``range(n)`` -- is given.  The unstable
    ``argsort``, then a repair of the tied runs only: their rows are
    re-sorted by ``run * n + tiebreak``.  A tie is ``==`` (``-0.0`` ties
    ``0.0``); NaNs sort last as one run.
    """
    n = keys.shape[0]
    order = np.argsort(keys)
    ranked = keys[order]
    tie = ranked[1:] == ranked[:-1]
    if ranked.dtype.kind == "f" and n and np.isnan(ranked[-1]):
        tie |= np.isnan(ranked[:-1])
    if not tie.any():
        return order
    starts = np.concatenate(([True], ~tie))
    at = np.flatnonzero(~(starts & np.append(starts[1:], True)))  # rows in a tied run
    rows = order[at]
    tiebreak = rows if then is None else then[rows]
    order[at] = rows[np.argsort(np.cumsum(starts[at]) * n + tiebreak)]
    return order
