"""The insertable pointer R-tree ``repro.index.rtree`` shipped until PR 19.

Oracle of the array-native index build: :func:`flatten` snapshots a pointer
tree into the :class:`~repro.index.flat.FlatRTree` layout, and
``tests/test_flat_build.py`` holds ``FlatRTree.from_mbr_array(...)`` to
``flatten(RTree.from_mbr_array(...))`` array for array (value and dtype).
Verbatim in behaviour.  Two construction paths:

* one-by-one insertion with Guttman's *quadratic split* heuristic, and
* *Sort-Tile-Recursive* (STR) bulk loading; its tiling is the shipped
  :func:`repro.index.flat.str_tiling` (the one copy of the tiling math), so
  both index forms of one dataset have the same structure.

The tree stores ``(mbr, oid)`` entries at the leaves.  Queries return
object ids; callers resolve ids against their dataset container.  Batch
queries run against :meth:`RTree.flat_view`.  This is also where a
moving-object (insert / delete) index would start from.  The rectangle
helpers only this tree uses (:func:`bounding`, :func:`enlargement`, the
point distances) live here, not on ``Rect``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import rect_array
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.flat import FlatRTree, str_tiling

__all__ = [
    "RTree",
    "RTreeNode",
    "RTreeStats",
    "bounding",
    "enlargement",
    "flatten",
    "min_distance_to_point",
    "min_distances_to_point",
]


# ---------------------------------------------------------------------- #
# the rectangle helpers only this tree uses
# ---------------------------------------------------------------------- #


def bounding(rects: Iterable[Rect]) -> Rect:
    """Minimum bounding rectangle of a non-empty rectangle collection.

    Large collections are reduced through the vectorised
    :mod:`~repro.geometry.rect_array` kernels; short ones (the common
    R-tree node case) keep the scalar loop, which is faster below the
    array-construction break-even.  min/max reductions are exact, so
    both paths return bit-identical bounds.
    """
    if not isinstance(rects, (list, tuple)):
        rects = list(rects)
    if not rects:
        raise ValueError("cannot bound an empty rectangle collection")
    if len(rects) > 32:
        return rect_array.bounding_rect(rect_array.rects_to_array(rects))
    first = rects[0]
    xmin, ymin, xmax, ymax = first.xmin, first.ymin, first.xmax, first.ymax
    for r in rects[1:]:
        xmin = min(xmin, r.xmin)
        ymin = min(ymin, r.ymin)
        xmax = max(xmax, r.xmax)
        ymax = max(ymax, r.ymax)
    return Rect(xmin, ymin, xmax, ymax)


def enlargement(rect: Rect, other: Rect) -> float:
    """Area increase ``rect`` needs to include ``other`` (R-tree ChooseLeaf metric)."""
    return rect.union(other).area - rect.area


def min_distance_to_point(rect: Rect, p: Point) -> float:
    """Minimum Euclidean distance from the rectangle to a point."""
    dx = max(rect.xmin - p.x, 0.0, p.x - rect.xmax)
    dy = max(rect.ymin - p.y, 0.0, p.y - rect.ymax)
    return math.hypot(dx, dy)


def min_distances_to_point(mbrs: np.ndarray, x: float, y: float) -> np.ndarray:
    """Minimum Euclidean distance from each MBR to the point ``(x, y)``."""
    if mbrs.shape[0] == 0:
        return np.zeros(0, dtype=rect_array.MBR_DTYPE)
    dx = np.maximum(np.maximum(mbrs[:, 0] - x, 0.0), x - mbrs[:, 2])
    dy = np.maximum(np.maximum(mbrs[:, 1] - y, 0.0), y - mbrs[:, 3])
    return np.hypot(dx, dy)


class RTreeNode:
    """A node of the R-tree.

    Leaf nodes store ``entries`` as ``(Rect, oid)`` tuples; internal nodes
    store ``children`` (other nodes).  ``mbr`` is always the tight bound of
    the node's content and is maintained incrementally.
    """

    __slots__ = ("is_leaf", "level", "mbr", "children", "entries", "_leaf_cache")

    def __init__(
        self,
        is_leaf: bool,
        level: int = 0,
        mbr: Optional[Rect] = None,
        entries: Optional[List[Tuple[Rect, int]]] = None,
        children: Optional[List["RTreeNode"]] = None,
    ) -> None:
        self.is_leaf = is_leaf
        self.level = level
        self.mbr = mbr
        self.children: List["RTreeNode"] = children if children is not None else []
        self.entries: List[Tuple[Rect, int]] = entries if entries is not None else []
        #: Lazily built ``(mbrs, oids)`` arrays of a leaf's entries, used by
        #: the vectorised query paths; dropped whenever ``entries`` mutates.
        self._leaf_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def fanout(self) -> int:
        """Number of entries (leaf) or children (internal)."""
        return len(self.entries) if self.is_leaf else len(self.children)

    def leaf_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The leaf's entries as parallel ``(N, 4)`` MBR / oid arrays."""
        if self._leaf_cache is None:
            self._leaf_cache = (
                rect_array.rects_to_array([r for r, _ in self.entries]),
                np.array([oid for _, oid in self.entries], dtype=np.int64),
            )
        return self._leaf_cache

    def invalidate_leaf_cache(self) -> None:
        self._leaf_cache = None

    def recompute_mbr(self) -> None:
        """Recompute the node MBR from its content."""
        if self.is_leaf:
            rects = [r for r, _ in self.entries]
        else:
            rects = [c.mbr for c in self.children if c.mbr is not None]
        self.mbr = bounding(rects) if rects else None


@dataclass(frozen=True)
class RTreeStats:
    """Summary statistics of a tree (used by reports and tests)."""

    height: int
    node_count: int
    leaf_count: int
    object_count: int
    avg_leaf_fill: float
    avg_internal_fill: float


class RTree:
    """An R-tree over ``(Rect, oid)`` entries.

    Parameters
    ----------
    max_entries:
        Maximum node fanout ``M``.  Nodes exceeding it are split.
    min_entries:
        Minimum fanout ``m`` used by the quadratic split (defaults to
        ``ceil(0.4 * M)``, the usual 40% rule).
    """

    def __init__(self, max_entries: int = 16, min_entries: Optional[int] = None) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self.max_entries = max_entries
        self.min_entries = (
            min_entries if min_entries is not None else max(2, math.ceil(0.4 * max_entries))
        )
        if not 2 <= self.min_entries <= self.max_entries // 2:
            raise ValueError(
                f"min_entries must lie in [2, max_entries/2], got {self.min_entries}"
            )
        self.root = RTreeNode(is_leaf=True, level=0)
        self._size = 0
        #: Cached array snapshot for batch queries; dropped on mutation.
        self._flat: Optional[FlatRTree] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (a tree holding only a root leaf has height 1)."""
        return self.root.level + 1

    def insert(self, mbr: Rect, oid: int) -> None:
        """Insert a single ``(mbr, oid)`` entry (Guttman insertion)."""
        self._flat = None
        leaf = self._choose_leaf(self.root, mbr)
        leaf.entries.append((mbr, oid))
        leaf.invalidate_leaf_cache()
        leaf.mbr = mbr if leaf.mbr is None else leaf.mbr.union(mbr)
        self._size += 1
        self._handle_overflow(leaf)

    @classmethod
    def bulk_load(
        cls,
        entries: Sequence[Tuple[Rect, int]],
        max_entries: int = 16,
        min_entries: Optional[int] = None,
    ) -> "RTree":
        """Build a packed tree with the Sort-Tile-Recursive algorithm."""
        tree = cls(max_entries=max_entries, min_entries=min_entries)
        if not entries:
            return tree
        leaves: List[RTreeNode] = []
        for chunk in _str_tiles(list(entries), max_entries):
            node = RTreeNode(is_leaf=True, level=0, entries=list(chunk))
            node.recompute_mbr()
            leaves.append(node)
        tree._size = len(entries)
        tree.root = tree._pack_upwards(leaves)
        return tree

    @classmethod
    def from_mbr_array(
        cls,
        mbrs: np.ndarray,
        oids: Optional[Sequence[int]] = None,
        max_entries: int = 16,
        min_entries: Optional[int] = None,
    ) -> "RTree":
        """:meth:`bulk_load` of the rows of an ``(N, 4)`` MBR array.

        Takes what :meth:`FlatRTree.from_mbr_array` takes (oids default to
        ``range(N)``), which makes :func:`flatten` of it that build's oracle.
        """
        rows = np.asarray(mbrs, dtype=np.float64).reshape(-1, 4).tolist()
        oid_list = range(len(rows)) if oids is None else np.asarray(oids).tolist()
        if len(oid_list) != len(rows):
            raise ValueError("oids must be a 1D array parallel to mbrs")
        entries = [(Rect(*row), oid) for row, oid in zip(rows, oid_list)]
        return cls.bulk_load(entries, max_entries, min_entries)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def window_query(self, window: Rect) -> List[int]:
        """Object ids whose MBR intersects the window."""
        out: List[int] = []
        self._window_query(self.root, window, out)
        return out

    def count_window(self, window: Rect) -> int:
        """Number of objects intersecting the window (no count augmentation here)."""
        return len(self.window_query(window))

    def range_query(self, center: Point, epsilon: float) -> List[int]:
        """Object ids whose MBR lies within ``epsilon`` of ``center``."""
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        out: List[int] = []
        self._range_query(self.root, center, epsilon, out)
        return out

    def flat_view(self) -> FlatRTree:
        """The array snapshot of this tree, which answers batch queries.

        Built lazily, cached, and dropped by the next mutation.
        """
        if self._flat is None:
            self._flat = flatten(self)
        return self._flat

    def nearest_neighbors(self, center: Point, k: int = 1) -> List[Tuple[float, int]]:
        """The ``k`` nearest objects to ``center`` as ``(distance, oid)`` pairs.

        Implemented with the classic best-first (priority queue) traversal.
        Not used by the paper's algorithms but handy for applications built
        on the library (and exercised by the examples).
        """
        import heapq

        if k < 1:
            raise ValueError("k must be >= 1")
        if self._size == 0:
            return []
        heap: List[Tuple[float, int, object]] = []
        counter = 0
        if self.root.mbr is not None:
            heapq.heappush(heap, (0.0, counter, self.root))
        results: List[Tuple[float, int]] = []
        while heap and len(results) < k:
            dist, _, item = heapq.heappop(heap)
            if isinstance(item, RTreeNode):
                if item.is_leaf:
                    for mbr, oid in item.entries:
                        counter += 1
                        heapq.heappush(
                            heap, (min_distance_to_point(mbr, center), counter, ("obj", oid))
                        )
                else:
                    for child in item.children:
                        if child.mbr is None:
                            continue
                        counter += 1
                        heapq.heappush(
                            heap,
                            (min_distance_to_point(child.mbr, center), counter, child),
                        )
            else:
                _, oid = item  # ("obj", oid)
                results.append((dist, oid))
        return results

    # ------------------------------------------------------------------ #
    # structure inspection (SemiJoin & diagnostics)
    # ------------------------------------------------------------------ #

    def level_mbrs(self, level: int) -> List[Rect]:
        """MBRs of all nodes at ``level`` (leaves are level 0).

        SemiJoin ships "one level of MBRs" from the indexed dataset; the
        paper uses the *second-to-last* level, i.e. ``level = 1`` for trees
        of height >= 2 and the root MBR for a height-1 tree.
        """
        if level < 0 or level > self.root.level:
            raise ValueError(f"level {level} out of range for height {self.height}")
        out: List[Rect] = []
        for node in self.iter_nodes():
            if node.level == level and node.mbr is not None:
                out.append(node.mbr)
        return out

    def second_to_last_level_mbrs(self) -> List[Rect]:
        """The MBR set SemiJoin transfers (leaf-parent level, or root for tiny trees)."""
        if self.root.level == 0:
            return [self.root.mbr] if self.root.mbr is not None else []
        return self.level_mbrs(1)

    def iter_nodes(self) -> Iterator[RTreeNode]:
        """Depth-first iteration over every node."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    def iter_entries(self) -> Iterator[Tuple[Rect, int]]:
        """Iterate all ``(mbr, oid)`` leaf entries."""
        for node in self.iter_nodes():
            if node.is_leaf:
                yield from node.entries

    def stats(self) -> RTreeStats:
        """Aggregate structural statistics."""
        node_count = 0
        leaf_count = 0
        leaf_fill = 0
        internal_fill = 0
        for node in self.iter_nodes():
            node_count += 1
            if node.is_leaf:
                leaf_count += 1
                leaf_fill += len(node.entries)
            else:
                internal_fill += len(node.children)
        internal_count = node_count - leaf_count
        return RTreeStats(
            height=self.height,
            node_count=node_count,
            leaf_count=leaf_count,
            object_count=self._size,
            avg_leaf_fill=leaf_fill / leaf_count if leaf_count else 0.0,
            avg_internal_fill=internal_fill / internal_count if internal_count else 0.0,
        )

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError when violated.

        * every node MBR tightly bounds its content;
        * all leaves are at level 0 and levels decrease by one per step;
        * fanout bounds hold for every non-root node;
        * the number of leaf entries equals ``len(self)``.
        """
        total = self._validate_node(self.root, is_root=True)
        assert total == self._size, f"size mismatch: counted {total}, recorded {self._size}"

    # ------------------------------------------------------------------ #
    # internal: insertion machinery
    # ------------------------------------------------------------------ #

    def _choose_leaf(self, node: RTreeNode, mbr: Rect) -> RTreeNode:
        while not node.is_leaf:
            best_child = None
            best_key: Tuple[float, float] = (math.inf, math.inf)
            for child in node.children:
                assert child.mbr is not None
                key = (enlargement(child.mbr, mbr), child.mbr.area)
                if key < best_key:
                    best_key = key
                    best_child = child
            assert best_child is not None
            best_child.mbr = mbr if best_child.mbr is None else best_child.mbr.union(mbr)
            node = best_child
        return node

    def _handle_overflow(self, node: RTreeNode) -> None:
        path = self._find_path_to(node)
        # Walk from the leaf upwards splitting overflowing nodes.
        for depth in range(len(path) - 1, -1, -1):
            current = path[depth]
            if current.fanout() <= self.max_entries:
                current.recompute_mbr()
                continue
            sibling = self._split_node(current)
            if depth == 0:
                # Root split: grow the tree by one level.
                new_root = RTreeNode(
                    is_leaf=False, level=current.level + 1, children=[current, sibling]
                )
                new_root.recompute_mbr()
                self.root = new_root
            else:
                parent = path[depth - 1]
                parent.children.append(sibling)
                parent.recompute_mbr()
        # Refresh MBRs up the path (cheap: path length = height).
        for current in reversed(path):
            current.recompute_mbr()

    def _find_path_to(self, target: RTreeNode) -> List[RTreeNode]:
        """Root-to-target node path (target must be reachable)."""
        path: List[RTreeNode] = []

        def descend(node: RTreeNode) -> bool:
            path.append(node)
            if node is target:
                return True
            if not node.is_leaf:
                for child in node.children:
                    if child.mbr is None:
                        continue
                    if descend(child):
                        return True
            path.pop()
            return False

        found = descend(self.root)
        assert found, "node not reachable from root"
        return path

    def _split_node(self, node: RTreeNode) -> RTreeNode:
        """Quadratic split; ``node`` keeps one group, the returned sibling gets the other."""
        if node.is_leaf:
            items: List[Tuple[Rect, object]] = list(node.entries)
        else:
            items = [(c.mbr, c) for c in node.children if c.mbr is not None]

        seed_a, seed_b = _quadratic_pick_seeds([r for r, _ in items])
        group_a: List[Tuple[Rect, object]] = [items[seed_a]]
        group_b: List[Tuple[Rect, object]] = [items[seed_b]]
        mbr_a = items[seed_a][0]
        mbr_b = items[seed_b][0]
        remaining = [it for i, it in enumerate(items) if i not in (seed_a, seed_b)]

        while remaining:
            # If one group must take all remaining items to reach min_entries, do it.
            if len(group_a) + len(remaining) == self.min_entries:
                group_a.extend(remaining)
                mbr_a = bounding([mbr_a] + [r for r, _ in remaining])
                remaining = []
                break
            if len(group_b) + len(remaining) == self.min_entries:
                group_b.extend(remaining)
                mbr_b = bounding([mbr_b] + [r for r, _ in remaining])
                remaining = []
                break
            idx, prefer_a = _quadratic_pick_next(remaining, mbr_a, mbr_b)
            rect, payload = remaining.pop(idx)
            if prefer_a:
                group_a.append((rect, payload))
                mbr_a = mbr_a.union(rect)
            else:
                group_b.append((rect, payload))
                mbr_b = mbr_b.union(rect)

        sibling = RTreeNode(is_leaf=node.is_leaf, level=node.level)
        if node.is_leaf:
            node.entries = [(r, p) for r, p in group_a]  # type: ignore[misc]
            sibling.entries = [(r, p) for r, p in group_b]  # type: ignore[misc]
            node.invalidate_leaf_cache()
            sibling.invalidate_leaf_cache()
        else:
            node.children = [p for _, p in group_a]  # type: ignore[misc]
            sibling.children = [p for _, p in group_b]  # type: ignore[misc]
        node.recompute_mbr()
        sibling.recompute_mbr()
        return sibling

    # ------------------------------------------------------------------ #
    # internal: bulk loading
    # ------------------------------------------------------------------ #

    def _pack_upwards(self, nodes: List[RTreeNode]) -> RTreeNode:
        """Pack a list of same-level nodes into a tree, STR-style."""
        level = nodes[0].level
        while len(nodes) > 1:
            level += 1
            parents: List[RTreeNode] = []
            node_entries = [(n.mbr, n) for n in nodes if n.mbr is not None]
            for chunk in _str_tiles(node_entries, self.max_entries):
                parent = RTreeNode(
                    is_leaf=False, level=level, children=[n for _, n in chunk]
                )
                parent.recompute_mbr()
                parents.append(parent)
            nodes = parents
        return nodes[0]

    # ------------------------------------------------------------------ #
    # internal: queries
    # ------------------------------------------------------------------ #

    def _window_query(self, node: RTreeNode, window: Rect, out: List[int]) -> None:
        if node.mbr is None or not node.mbr.intersects(window):
            return
        if node.is_leaf:
            mbrs, oids = node.leaf_arrays()
            out.extend(oids[rect_array.intersects_window(mbrs, window)].tolist())
            return
        for child in node.children:
            self._window_query(child, window, out)

    def _range_query(
        self, node: RTreeNode, center: Point, epsilon: float, out: List[int]
    ) -> None:
        if node.mbr is None or min_distance_to_point(node.mbr, center) > epsilon:
            return
        if node.is_leaf:
            mbrs, oids = node.leaf_arrays()
            dists = min_distances_to_point(mbrs, center.x, center.y)
            out.extend(oids[dists <= epsilon].tolist())
            return
        for child in node.children:
            self._range_query(child, center, epsilon, out)

    # ------------------------------------------------------------------ #
    # internal: validation
    # ------------------------------------------------------------------ #

    def _validate_node(self, node: RTreeNode, is_root: bool = False) -> int:
        if node.is_leaf:
            assert node.level == 0, "leaf nodes must be at level 0"
            if node.entries:
                expected = bounding([r for r, _ in node.entries])
                assert node.mbr == expected, "leaf MBR is not tight"
            if not is_root:
                assert len(node.entries) <= self.max_entries, "leaf overflow"
            return len(node.entries)
        assert node.children, "internal node without children"
        if not is_root:
            assert len(node.children) <= self.max_entries, "internal overflow"
        total = 0
        for child in node.children:
            assert child.level == node.level - 1, "level discontinuity"
            assert child.mbr is not None and node.mbr is not None
            assert node.mbr.contains_rect(child.mbr), "parent MBR does not cover child"
            total += self._validate_node(child)
        expected = bounding([c.mbr for c in node.children if c.mbr is not None])
        assert node.mbr == expected, "internal MBR is not tight"
        return total


# ---------------------------------------------------------------------- #
# helpers shared by split / bulk load
# ---------------------------------------------------------------------- #


def _quadratic_pick_seeds(rects: Sequence[Rect]) -> Tuple[int, int]:
    """Guttman's PickSeeds: the pair wasting the most area when grouped."""
    best = (0, 1)
    worst_waste = -math.inf
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            waste = rects[i].union(rects[j]).area - rects[i].area - rects[j].area
            if waste > worst_waste:
                worst_waste = waste
                best = (i, j)
    return best


def _quadratic_pick_next(
    remaining: Sequence[Tuple[Rect, object]], mbr_a: Rect, mbr_b: Rect
) -> Tuple[int, bool]:
    """Guttman's PickNext: the entry with maximal preference for one group."""
    best_idx = 0
    best_diff = -1.0
    prefer_a = True
    for i, (rect, _) in enumerate(remaining):
        da = enlargement(mbr_a, rect)
        db = enlargement(mbr_b, rect)
        diff = abs(da - db)
        if diff > best_diff:
            best_diff = diff
            best_idx = i
            prefer_a = da < db or (da == db and mbr_a.area <= mbr_b.area)
    return best_idx, prefer_a


def _str_tiles(
    entries: List[Tuple[Rect, object]], capacity: int
) -> Iterator[List[Tuple[Rect, object]]]:
    """Sort-Tile-Recursive grouping of entries into chunks of ``capacity``.

    The tiling math exists once, in :func:`repro.index.flat.str_tiling`;
    its orders (``_stable_order``: equal keys keep input order) reproduce
    what stable ``sorted()`` calls over the same centre keys would yield --
    ``tests/test_flat_build.py`` holds it to such a list reference.
    """
    if not entries:
        return
    perm, offs = str_tiling(rect_array.rects_to_array([r for r, _ in entries]), capacity)
    for lo, hi in zip(offs[:-1].tolist(), offs[1:].tolist()):
        yield [entries[i] for i in perm[lo:hi].tolist()]


def flatten(tree: RTree) -> FlatRTree:
    """Snapshot ``tree`` as a :class:`FlatRTree`: nodes in preorder, entries depth-first.

    The arrays reflect the tree at call time (``FlatRTree(tree)`` until PR 19).
    """
    nodes: List[RTreeNode] = []  # preorder; a node's id is its position
    kids: List[List[int]] = []
    spans: List[Tuple[int, int]] = []  # subtree entry range per node
    leaves: List[Tuple[np.ndarray, np.ndarray]] = []
    size = 0

    def visit(node: RTreeNode) -> int:
        nonlocal size
        nid = len(nodes)
        nodes.append(node)
        kids.append([])
        spans.append((0, 0))
        start = size
        if node.is_leaf:
            leaves.append(node.leaf_arrays())
            size += leaves[-1][1].shape[0]
        else:
            kids[nid] = [visit(child) for child in node.children]
        spans[nid] = (start, size)
        return nid

    visit(tree.root)
    no_box = (0.0, 0.0, 0.0, 0.0)  # the root of an empty tree
    boxes = np.array(
        [n.mbr.as_tuple() if n.mbr is not None else no_box for n in nodes],
        dtype=np.float64,
    )
    fanout = np.array([len(k) for k in kids], dtype=np.intp)
    child_end = np.cumsum(fanout)
    return FlatRTree(
        node_cols=np.ascontiguousarray(boxes.T),
        is_leaf=np.array([n.is_leaf for n in nodes], dtype=bool),
        entry_cols=np.ascontiguousarray(np.vstack([mbrs for mbrs, _ in leaves]).T),
        entry_oids=np.concatenate([oids for _, oids in leaves]),
        ent_start=np.array([lo for lo, _ in spans], dtype=np.intp),
        ent_end=np.array([hi for _, hi in spans], dtype=np.intp),
        child_start=child_end - fanout,
        child_end=child_end,
        child_ids=np.array([c for k in kids for c in k], dtype=np.intp),
    )
