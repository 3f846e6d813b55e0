"""The array-native R-tree: a read-only structure-of-arrays index.

:class:`FlatRTree` holds an R-tree as parallel arrays (nodes in preorder
DFS, each subtree's entries contiguous) and answers whole query batches
level by level: each step *opens* every active (node, query) pair's page in
one vectorised operation -- no per-node Python loop and no node object
exists.

Storage is literally structure-of-arrays.  The constructor takes nine
arrays -- node boxes and entry MBRs as ``(4, n)`` *column blocks* (rows
``xmin, ymin, xmax, ymax``), the entry oids and the node ranges -- and
keeps all of them but one: the entry block is laid into the page table at
once and let go, so the page table is the only copy of the entries'
coordinates an index holds.  :attr:`FlatRTree.node_cols` stays (``boxes``
is its ``(n, 4)`` transposed *view*); :meth:`FlatRTree.entries_at` and
:attr:`FlatRTree.entry_mbrs` gather entry MBRs back out of the leaf slots.

**A node is a page.**  The page table :attr:`FlatRTree.pages` is a
``(4, n_nodes, M)`` block: row ``v`` of plane ``c`` holds coordinate ``c``
of the ``M`` boxes directly below node ``v`` -- the children of an inner
node, the entries of a leaf -- side by side, as an R-tree page lays them
out on disk.  A step of a
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
  finite input these are the very comparisons of the closed-box test
  ``~(bx1 < wx0 | wx1 < bx0 | ...)`` (``~(a < b)`` is ``a >= b`` unless a
  side is ``nan``) and of containment.  A probe's distance test negates
  the two planes of its gathered pages back in place -- exact again -- and
  calls the one ``_reaches``.  Negation flips the sign bit only, so
  negating a leaf slot's maxima back gives the entry MBR bit for bit
  (signed zeros included): that is why the slots can be the entries'
  store.  Non-finite windows and probes never get here:
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
by what precedes them; the trees' page tables and oids become slices of the
forest's) and :attr:`FlatRTree.roots` names each tree's root node; the batch
queries take an optional per-row ``roots`` array and start every row at its
own root, so one descent answers rows that belong to different trees.  Each
row descends exactly as it would through its own tree -- same steps, same
order -- hence its answer, entry order included, is that tree's answer with
the entry positions shifted by the tree's offset in the forest.

:meth:`FlatRTree.from_mbr_array` is the index build: an STR bulk load that
tiles level by level on arrays and writes the node arrays directly.  The
constructor takes those arrays as they are -- it is the one place that says
what an index holds, and it lays out the page table.  The tests pin the
build, array for array, against a pointer R-tree flattened into the same
layout (``tests/oracles/pointer_rtree.py``).

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
from repro.geometry.rect_array import empty_mbrs, expand_index_ranges
from repro.index import budget

__all__ = ["FlatRTree", "str_tiling"]


class FlatRTree:
    """A read-only R-tree in structure-of-arrays form.

    The constructor stores the arrays it is given, except the entry block,
    which it lays into the page table; build an index with
    :meth:`from_mbr_array` (from data) or :meth:`forest` (from indexes).

    Attributes
    ----------
    node_cols:
        ``(4, n_nodes)`` coordinate column block (rows ``xmin, ymin, xmax,
        ymax``) of the node boxes; :attr:`boxes` is its ``(n_nodes, 4)`` view.
    pages:
        The ``(4, n_nodes, M)`` page table (module docstring): the slots of
        node ``v``'s page are its children ``child_ids[child_start[v]:]`` or,
        for a leaf, its entries ``ent_start[v]:ent_end[v]``, left to right.
        The only copy of the entry coordinates: :meth:`entries_at` and
        :attr:`entry_mbrs` gather them back.
    is_leaf:
        Per node (preorder; a node's id is its position): has no children.
    entry_oids:
        Object id of every entry, depth-first.
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
        self.entry_oids = entry_oids
        self.ent_start = ent_start
        self.ent_end = ent_end
        self.child_start = child_start
        self.child_end = child_end
        self.child_ids = child_ids
        self.size = int(entry_oids.shape[0])
        self.roots = np.zeros(1, dtype=np.intp) if roots is None else roots
        # Page ``v`` lists entries ``ent_start[v]:`` (a leaf) or children
        # ``child_start[v]:``; both kinds of range run in node order, so the
        # real slots, row by row, are the entries (the children) in the
        # order ``entry_cols`` (``child_ids``) lists them.
        base = np.where(is_leaf, ent_start, child_start)
        width = np.where(is_leaf, ent_end, child_end) - base
        real = np.arange(width.max()) < width[:, None]
        entries = real & is_leaf[:, None]
        real ^= entries  # what is left: child boxes
        pages = np.full((4, *real.shape), np.nan)
        for page, below, boxes in zip(pages, entry_cols, node_cols):
            page[entries] = below
            page[real] = boxes.take(child_ids)
        np.negative(pages[2:], out=pages[2:])
        self._bind(pages)

    def _bind(self, pages: np.ndarray) -> None:
        """Adopt ``pages`` as the page table, with the block index
        :meth:`_slots` finds an entry row's slot by.

        Row ``r`` of leaf ``v`` sits at flat slot ``r + shift[v]``, and a
        full leaf's successor in node order has its shift, so the shift
        changes only at a short leaf or where inner nodes come between two
        leaves: few *runs* of rows share one.  Rows are cut into blocks of
        ``2**bits <= M``; a block keeps the shift and the end row of the run
        its first row lies in (arrays sized by the leaves).
        """
        self.pages = pages
        leaves = np.flatnonzero(self.is_leaf)
        shift = self._shift(leaves)
        last = np.append(shift[1:] != shift[:-1], True)  # a leaf that ends its run
        run_end = self.ent_end.take(leaves.compress(last))[np.cumsum(last) - last]
        bits = max(pages.shape[2].bit_length() - 1, 0)
        starts = np.arange(0, self.size, 1 << bits)
        leaf = np.searchsorted(self.ent_start.take(leaves), starts, side="right") - 1
        self._blocks = bits, shift.take(leaf), run_end.take(leaf)

    @property
    def boxes(self) -> np.ndarray:
        """Node boxes as ``(n_nodes, 4)`` rows: a view of :attr:`node_cols`."""
        return self.node_cols.T

    @property
    def entry_mbrs(self) -> np.ndarray:
        """Every entry MBR as ``(size, 4)`` rows, gathered from the leaf slots."""
        return self.entries_at(np.arange(self.size))[0]

    @property
    def height(self) -> int:
        """Number of levels of tree 0 (a lone root leaf has height 1): the
        first leaf in preorder ends the walk down the first children."""
        return int(np.argmax(self.is_leaf)) + 1

    def second_to_last_level_mbrs(self) -> np.ndarray:
        """The ``(K, 4)`` node boxes SemiJoin transfers.

        The leaf-parent level (the root box for a single-leaf tree, nothing
        for an empty one), last node first: the order in which a stack-based
        walk of a pointer tree meets them, which the frozen traces record.
        A leaf parent is an inner node whose first child, the node right
        after it in preorder, is a leaf.
        """
        if not self.size:
            return empty_mbrs()
        if self.height == 1:
            return self.boxes[self.is_leaf]
        leaf_parent = ~self.is_leaf & np.append(self.is_leaf[1:], False)
        return self.boxes[leaf_parent][::-1]

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
        levels out in preorder top-down.  A per-entry temporary goes as soon
        as it has been used (the transient budget, :mod:`repro.index.budget`):
        the entry block, the leaf tiling's order and the depth-first order
        are the only ones that outlive a step.
        """
        require_count(max_entries, "max_entries", minimum=4)
        arr = np.asarray(mbrs, dtype=np.float64).reshape(-1, 4)
        n = arr.shape[0]
        oid_arr = None if oids is None else np.asarray(oids, dtype=np.int64)
        if oid_arr is not None and oid_arr.shape != (n,):
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
        del arr
        cols, weight = entries, None
        while not tiles or cols.shape[1] > 1:
            perm, offs = str_tiling(cols.T, max_entries)
            starts = offs[:-1]
            cols = np.stack(
                [
                    reduce.reduceat(row.take(perm), starts)
                    for reduce, row in zip(_BOX_REDUCE, cols)
                ]
            )
            # A leaf tile holds one entry per member.
            weight = np.diff(offs) if weight is None else np.add.reduceat(weight[perm], starts)
            tiles.append((perm, offs, cols, weight))

        # Top-down.  ``order`` lists a level's nodes left to right: the
        # parents' tiles, parent by parent.  Numbering the nodes level by
        # level for now (the root, then its children, ...) makes a node's
        # children one contiguous run of the next level's block, and the
        # last ``order`` is the entries in depth-first order.
        order = np.zeros(1, dtype=np.intp)
        columns = []
        block_end = 0
        while tiles:
            perm, offs, cols, weight = tiles.pop()
            lo, hi = offs[order], offs[order + 1]
            fanout = hi - lo if tiles else np.zeros_like(lo)
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
        del perm
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
        entry_cols = entries.take(order, axis=1)
        del entries
        # Default oids are ``range(n)``: the depth-first order itself.
        entry_oids = order.astype(np.int64, copy=False) if oid_arr is None else oid_arr[order]
        del order
        return cls(
            node_cols=cols.take(pre, axis=1),
            is_leaf=fanout == 0,
            entry_cols=entry_cols,
            entry_oids=entry_oids,
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
        it (``ent_start[roots[t]]``).  The forest's page table is the trees'
        tables back to back, padded to the widest page.  Afterwards every
        tree's ``pages`` / ``entry_oids`` *are* its read-only slice of the
        forest's and the trees' own tables are let go, so a fleet holds one
        page table however many shards answer from it.
        """

        def offsets(lengths) -> np.ndarray:
            return np.concatenate([[0], np.cumsum(lengths, dtype=np.intp)])

        node_off = offsets([t.is_leaf.shape[0] for t in trees])
        ent_off = offsets([t.size for t in trees])
        kid_off = offsets([t.child_ids.shape[0] for t in trees])

        def shifted(name: str, off: np.ndarray) -> np.ndarray:
            return np.concatenate([getattr(t, name) + o for t, o in zip(trees, off)])

        # Tree by tree, and each tree's own table goes once its entries are
        # out: a fleet build never holds the trees' tables beside the forest's.
        entries = np.empty((4, ent_off[-1]))
        for tree, start in zip(trees, ent_off):
            entries[:, start : start + tree.size] = tree.entry_mbrs.T
            tree.pages = None
        forest = cls(
            node_cols=np.concatenate([t.node_cols for t in trees], axis=1),
            is_leaf=np.concatenate([t.is_leaf for t in trees]),
            entry_cols=entries,
            entry_oids=np.concatenate([t.entry_oids for t in trees]),
            ent_start=shifted("ent_start", ent_off),
            ent_end=shifted("ent_end", ent_off),
            child_start=shifted("child_start", kid_off),
            child_end=shifted("child_end", kid_off),
            child_ids=shifted("child_ids", node_off),
            roots=node_off[:-1],
        )
        forest.pages.setflags(write=False)
        forest.entry_oids.setflags(write=False)
        for tree, lo, hi, start in zip(trees, node_off, node_off[1:], ent_off):
            tree._bind(forest.pages[:, lo:hi])
            tree.entry_oids = forest.entry_oids[start : start + tree.size]
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
        chunks = self._frontier(W, roots, lambda lo, hi: _window_tests(wins[lo:hi]))
        for lo, hi, (qids, covered, leaf_q, _, mask) in chunks:
            part = out[lo:hi]
            np.add.at(part, qids, self.ent_end.take(covered) - self.ent_start.take(covered))
            np.add.at(part, leaf_q, np.add.reduce(mask, axis=1))
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
        entry positions (gather them with :meth:`entries_at`).  The
        traversal has just tested these very rows, so a consumer never looks
        an oid up again.  ``roots`` as in :meth:`count_batch`.
        """
        return self._rows_by_query(wins.shape[0], roots, lambda lo, hi: _window_tests(wins[lo:hi]))

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

        def tests(lo: int, hi: int):
            px, py = np.ascontiguousarray(pts[lo:hi].T)
            r = radii[lo:hi]

            def reached(page: np.ndarray, qids: np.ndarray) -> np.ndarray:
                # The page is this level's own gather, read by nothing after
                # its test: its maxima are negated back where they lie.
                np.negative(page[2:], out=page[2:])
                at = px.take(qids)[:, None], py.take(qids)[:, None]
                return _reaches(page, at, r.take(qids)[:, None])

            return reached, None

        return self._rows_by_query(pts.shape[0], roots, tests)

    def entries_at(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(mbrs, oids)`` payload of the entry rows a query matched.

        One take of the rows' leaf slots, maxima negated back (exact, so the
        MBRs are the ones the index was built from, bit for bit); ``mbrs``
        is an ``(k, 4)`` view of a ``(4, k)`` block, contiguous per column.
        """
        cols = self.pages.reshape(4, -1).take(self._slots(rows), axis=1)
        np.negative(cols[2:], out=cols[2:])
        return cols.T, self.entry_oids.take(rows)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _leaf_of(self, rows: np.ndarray) -> np.ndarray:
        """The leaf holding each entry row: ``ent_start`` never decreases in
        preorder and a leaf comes after every node that starts where it
        does, so it is the last node starting at or before the row."""
        return np.searchsorted(self.ent_start, rows, side="right") - 1

    def _shift(self, leaf: np.ndarray) -> np.ndarray:
        """Row ``r`` of ``leaf`` sits at flat slot ``r + shift`` of the page planes."""
        return leaf * self.pages.shape[2] - self.ent_start.take(leaf)

    def _slots(self, rows: np.ndarray) -> np.ndarray:
        """Where entry ``rows`` sit in the flattened page planes.

        A row before its block's end row lies in the run the block starts in
        (:meth:`_bind`); only the others search for their leaf.
        """
        bits, block_shift, block_end = self._blocks
        block = rows >> bits
        slots = rows + block_shift.take(block)
        past = (block_end.take(block) <= rows).nonzero()[0]
        if past.shape[0]:
            later = rows.take(past)
            slots[past] = later + self._shift(self._leaf_of(later))
        return slots

    def _open(self, nodes: np.ndarray) -> np.ndarray:
        """The ``(4, k, M)`` pages of ``nodes``: the one gather of box coordinates a step makes."""
        return self.pages.take(nodes, axis=1)

    def _frontier(self, n_rows: int, roots: Optional[np.ndarray], tests):
        """Level-synchronous descent of ``n_rows`` queries, a page per (node, query).

        ``tests(lo, hi)`` gives ``(met, inside)`` for query rows ``lo:hi``:
        ``met(page, qids)`` masks the ``(k, M)`` slots of the ``(4, k, M)``
        opened pages that each row's query reaches (``qids`` counted from
        ``lo``); ``inside`` likewise the slots it covers whole (``None``:
        none ever, and ``met`` may then overwrite the pages, a gather of
        their own).  Yields, per chunk of query rows, ``(lo, hi, (qids,
        nodes, leaf_qids, leaves, met))``: the (query, node) pairs whose
        subtree is covered, then the (query, leaf) pairs opened with the
        ``(k, M)`` mask of the leaf entries met, each depth by depth and
        within a depth by query, then left to right, ``qids`` counted from
        ``lo``.  Children met but not covered are opened next.

        Row ``i`` starts by opening its root (``roots[i]``, else node 0):
        a root box bounds every box below it, so skipping its test changes
        no count, row or row order.  A missed root's children are all
        missed (both tests are monotone in the box bounds);
        a covered root's children are all covered, and their entry ranges
        join up into the root's range; every entry is still tested.

        The working set is held to the transient budget (:mod:`repro.index.budget`):
        a chunk is as many query rows as the budget holds opened pages of,
        and a level wider than that opens its pages a slice of that many
        pairs at a time.  A query's pairs all lie in one chunk and the
        slices run in frontier order, so every chunk lists its rows exactly
        as one descent of the whole batch would.
        """
        limit = budget.chunk_rows(_PAIR_PAGES * self.pages[:, 0].nbytes)
        M = self.pages.shape[2]
        none = np.zeros(0, dtype=np.intp)
        for lo in range(0, n_rows, limit):
            hi = min(lo + limit, n_rows)
            nodes = np.zeros(hi - lo, dtype=np.intp) if roots is None else roots[lo:hi]
            qids = np.arange(hi - lo, dtype=np.intp)
            met, inside = tests(lo, hi)
            found = [none], [none], [none], [none], [np.zeros((0, M), dtype=bool)]
            while nodes.shape[0]:
                # A level that fits is opened whole: one comparison, not a
                # slicing loop that runs once (small calls feel its cost).
                if nodes.shape[0] <= limit:
                    nodes, qids = self._open_level(nodes, qids, met, inside, found)
                    continue
                parts = [
                    self._open_level(nodes[at : at + limit], qids[at : at + limit], met, inside, found)
                    for at in range(0, nodes.shape[0], limit)
                ]
                nodes, qids = map(np.concatenate, zip(*parts))
            yield lo, hi, [np.concatenate(chunks) for chunks in found]

    def _open_level(self, nodes, qids, met, inside, found):
        """Open the pages of one level's (node, query) pairs: append the
        covered subtrees and the leaves opened to ``found``; return the
        (child, query) pairs to open next.  A level of one tree is all
        inner or all leaf pages, so it is settled once; only a forest of
        unequal heights mixes them and splits."""
        M = self.pages.shape[2]
        page = self._open(nodes)
        mask = met(page, qids)
        leaf = self.is_leaf.take(nodes)
        if np.logical_and.reduce(leaf):  # a tree's leaf level: the last
            for chunks, part in zip(found[2:], (qids, nodes, mask)):
                chunks.append(part)
            return nodes[:0], qids[:0]
        if np.logical_or.reduce(leaf):  # a forest whose trees differ in height
            for chunks, part in zip(found[2:], (qids, nodes, mask)):
                chunks.append(part.compress(leaf, axis=0))
            mask = mask & ~leaf[:, None]
        at = mask.ravel().nonzero()[0]
        row, col = np.divmod(at, M)
        kid = self.child_ids.take(self.child_start.take(nodes.take(row)) + col)
        q = qids.take(row)
        if inside is not None:
            whole = inside(page.reshape(4, -1).take(at, axis=1)[:, :, None], q)[:, 0]
            found[0].append(q.compress(whole))
            found[1].append(kid.compress(whole))
            part = (~whole).nonzero()[0]
            kid, q = kid.take(part), q.take(part)
        return kid, q

    def _rows_by_query(self, n_rows: int, roots, tests) -> Tuple[np.ndarray, np.ndarray]:
        """The entry rows a :meth:`_frontier` descent qualifies, in CSR form,
        chunk after chunk."""
        if self.size == 0 or n_rows == 0:
            return np.zeros(n_rows + 1, dtype=np.intp), np.empty(0, dtype=np.intp)
        bounds, rows = [], []
        for lo, hi, (qids, covered, leaf_q, leaves, mask) in self._frontier(n_rows, roots, tests):
            of, ent = expand_index_ranges(self.ent_start.take(covered), self.ent_end.take(covered))
            row, col = np.divmod(mask.ravel().nonzero()[0], mask.shape[1])
            # A query's leaf entries are met at its tree's leaf depth, after
            # every depth it covered a subtree at: a stable sort by query
            # keeps its order.
            q = np.concatenate([qids.take(of), leaf_q.take(row)])
            order = np.argsort(q, kind="stable")
            rows.append(np.concatenate([ent, self.ent_start.take(leaves.take(row)) + col])[order])
            bounds.append(np.searchsorted(q[order], np.arange(hi - lo + 1)))
        if len(rows) == 1:
            return bounds[0], rows[0]
        ends = np.cumsum([0] + [r.shape[0] for r in rows[:-1]])
        return (
            np.concatenate([bounds[0]] + [b[1:] + e for b, e in zip(bounds[1:], ends[1:])]),
            np.concatenate(rows),
        )


#: The working bytes of one opened (node, query) pair, in pages: the page
#: itself and its tests (a probe's distance test holds about two pages of
#: temporaries).
_PAIR_PAGES = 3

#: How a tile's box comes from its members' boxes, coordinate by coordinate.
_BOX_REDUCE = (np.minimum, np.minimum, np.maximum, np.maximum)

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


def _reaches(boxes, pts, radii) -> np.ndarray:
    """Boxes whose minimum distance to their point ``(x, y)`` is within its
    radius (each axis's separation computed in place)."""
    bx0, by0, bx1, by1 = boxes
    px, py = pts
    dx = bx0 - px
    np.maximum(dx, 0.0, out=dx)
    np.maximum(dx, px - bx1, out=dx)
    dy = by0 - py
    np.maximum(dy, 0.0, out=dy)
    np.maximum(dy, py - by1, out=dy)
    # A distance is no smaller than either of its components, so only boxes
    # within the radius on both axes need the (slow) hypotenuse.
    near = dx <= radii
    near &= dy <= radii
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
    rank = np.arange(n, dtype=np.intp)
    by_x = _stable_order(_centre(boxes, 0))
    x_pos = np.empty_like(by_x)
    x_pos[by_x] = rank
    del by_x
    by_y = _stable_order(_centre(boxes, 1), then=x_pos)
    key = x_pos.take(by_y)
    del x_pos
    key //= slice_size
    key *= n
    key += rank
    key.sort()
    key %= n
    perm = by_y.take(key)
    offs = np.append(rank[rank % slice_size % capacity == 0], n)
    return perm, offs


def _centre(boxes: np.ndarray, axis: int) -> np.ndarray:
    """The boxes' centre coordinate on ``axis`` (0: x, 1: y)."""
    centre = boxes[:, axis] + boxes[:, axis + 2]
    centre /= 2.0
    return centre


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
