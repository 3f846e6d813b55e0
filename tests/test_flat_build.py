"""The array-native STR build equals the pointer-tree oracle, array for array.

``FlatRTree.from_mbr_array`` is the only index build on the serving path.
Its contract is bit-identity with ``flatten(RTree.from_mbr_array(...))``
(``tests/oracles/pointer_rtree.py``): the same nine arrays, same values,
same dtypes.  That equality is what
keeps wire bytes, link time, pair order and every golden trace unchanged,
so it is pinned here over the awkward sizes and geometries.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import clustered
from repro.errors import InvalidInput
from repro.geometry import rect_array
from repro.geometry.rect import Rect
from repro.index.aggregate_rtree import probe_arrays, total_mbr_area
from repro.index.flat import FlatRTree, str_tiling

from tests.oracles.pointer_rtree import RTree, flatten

ARRAYS = (
    "boxes is_leaf entry_mbrs entry_oids ent_start ent_end "
    "child_start child_end child_ids"
).split()
FANOUTS = (4, 8, 16)
GEOMETRIES = ("rects", "points", "coincident", "duplicates", "zero_area", "wide")


def _mbrs(n: int, geometry: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lo = rng.random((n, 2))
    if geometry == "points":
        return np.hstack([lo, lo])
    if geometry == "coincident":  # every object the same point
        return np.tile([0.25, 0.75, 0.25, 0.75], (n, 1))
    if geometry == "duplicates":  # a handful of distinct rows, many ties
        distinct = np.hstack([lo[:7], lo[:7] + 0.05])
        return distinct[rng.integers(0, min(7, n), n)] if n else distinct[:0]
    if geometry == "zero_area":  # horizontal segments on a few shared lines
        y = np.round(lo[:, 1:], 1)
        return np.hstack([lo[:, :1], y, lo[:, :1] + 0.1, y])
    extent = rng.random((n, 2)) * (0.9 if geometry == "wide" else 0.02)
    return np.hstack([lo, lo + extent])


def _oracle(mbrs: np.ndarray, oids: np.ndarray, fanout: int) -> FlatRTree:
    return flatten(RTree.from_mbr_array(mbrs, oids, max_entries=fanout))


def _assert_same_arrays(built: FlatRTree, oracle: FlatRTree) -> None:
    assert built.size == oracle.size
    for name in ARRAYS:
        got, want = getattr(built, name), getattr(oracle, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


def _sizes(fanout: int):
    return st.sampled_from(
        [0, 1, fanout, fanout + 1, fanout * fanout + 1, fanout**3 + 1]
    ) | st.integers(0, 400)


@settings(max_examples=120, deadline=None)
@given(
    fanout=st.sampled_from(FANOUTS),
    geometry=st.sampled_from(GEOMETRIES),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_build_equals_pointer_tree_oracle(fanout, geometry, seed, data):
    n = data.draw(_sizes(fanout))
    mbrs = _mbrs(n, geometry, seed)
    oids = np.random.default_rng(seed + 1).permutation(n).astype(np.int64) * 3 + 7
    _assert_same_arrays(
        FlatRTree.from_mbr_array(mbrs, oids, fanout), _oracle(mbrs, oids, fanout)
    )


@pytest.mark.parametrize("fanout", FANOUTS)
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_build_equals_oracle_at_5k(fanout, geometry):
    mbrs = _mbrs(5003, geometry, seed=fanout)
    oids = np.random.default_rng(5).permutation(5003).astype(np.int64)
    _assert_same_arrays(
        FlatRTree.from_mbr_array(mbrs, oids, fanout), _oracle(mbrs, oids, fanout)
    )


def _reference_tiling(boxes, capacity):
    """STR by the book, on Python lists with stable ``sorted()`` calls."""
    n = len(boxes)
    slices = math.ceil(math.sqrt(math.ceil(n / capacity)))
    per_slice = math.ceil(n / slices)
    by_x = sorted(range(n), key=lambda i: (boxes[i][0] + boxes[i][2]) / 2.0)
    tiles = []
    for s in range(0, n, per_slice):
        by_y = sorted(by_x[s : s + per_slice], key=lambda i: (boxes[i][1] + boxes[i][3]) / 2.0)
        tiles += [by_y[t : t + capacity] for t in range(0, len(by_y), capacity)]
    return tiles


@settings(max_examples=60, deadline=None)
@given(
    fanout=st.sampled_from(FANOUTS),
    geometry=st.sampled_from(GEOMETRIES),
    n=st.integers(1, 600),
    seed=st.integers(0, 2**16),
)
def test_tiling_equals_list_reference(fanout, geometry, n, seed):
    # The pointer-tree oracle shares str_tiling with the build under test,
    # so the tiling itself is held against an independent reference.
    _assert_tiling_is_reference(_mbrs(n, geometry, seed), fanout)


def _assert_tiling_is_reference(boxes, fanout):
    perm, offs = str_tiling(boxes, fanout)
    tiles = [perm[lo:hi].tolist() for lo, hi in zip(offs[:-1], offs[1:])]
    assert tiles == _reference_tiling(boxes.tolist(), fanout)


def test_tiling_equals_list_reference_at_workload_shape():
    # cold_join's shape: 50k clustered points, almost no tied centres.
    _assert_tiling_is_reference(clustered(n=50000, clusters=64, seed=41000).mbrs, 16)


def test_tiling_equals_list_reference_on_a_lattice():
    # Every centre on a 7 x 7 grid: all rows sit in tied runs on both axes.
    # Dyadic coordinates keep every computed centre exactly on its grid point.
    rng = np.random.default_rng(7)
    lattice = rng.integers(0, 7, (20000, 2)) / 8.0
    half = rng.integers(0, 4, (20000, 2)) / 64.0
    boxes = np.hstack([lattice - half, lattice + half])
    assert np.unique((boxes[:, :2] + boxes[:, 2:]) / 2.0, axis=0).shape == (49, 2)
    _assert_tiling_is_reference(boxes, 16)


def test_single_queries_on_an_inserted_tree_keep_descent_order():
    tree = RTree(max_entries=4)
    mbrs = _mbrs(300, "rects", 3)
    for oid, row in enumerate(mbrs.tolist()):
        tree.insert(Rect(*row), oid)
    flat = tree.flat_view()
    for x, y in np.random.default_rng(4).random((20, 2)) * 0.7:
        window = Rect(x, y, x + 0.3, y + 0.3)
        centre = window.center
        # Entry rows are in preorder: sorted, they are the pointer tree's DFS order.
        _, rows = flat.window_batch_flat(np.array([window.as_tuple()]))
        assert flat.entry_oids[np.sort(rows)].tolist() == tree.window_query(window)
        _, rows = flat.range_batch_flat(np.array([[centre.x, centre.y]]), np.array([0.1]))
        assert flat.entry_oids[np.sort(rows)].tolist() == tree.range_query(centre, 0.1)


def test_default_oids_and_argument_checks():
    mbrs = _mbrs(40, "rects", 1)
    built = FlatRTree.from_mbr_array(mbrs)
    assert sorted(built.entry_oids.tolist()) == list(range(40))
    with pytest.raises(ValueError):
        FlatRTree.from_mbr_array(mbrs, oids=[1, 2, 3])
    with pytest.raises(ValueError):
        FlatRTree.from_mbr_array(mbrs, max_entries=3)


def test_fractional_fanout_is_invalid_input():
    with pytest.raises(InvalidInput):  # not a tree of 2- and 9-entry leaves
        FlatRTree.from_mbr_array(_mbrs(40, "rects", 1), max_entries=4.5)


def _pointer_area(node, window: Rect) -> float:
    """Area of the objects under ``node`` meeting ``window``, summed the way
    the pointer tree nests (the recursion the aR-tree used to run)."""
    if node.mbr is None or not node.mbr.intersects(window):
        return 0.0
    if node.is_leaf:
        mbrs, _ = node.leaf_arrays()
        mask = rect_array.intersects_window(mbrs, window)
        return float(sum(rect_array.areas(mbrs[mask]).tolist()))
    area = 0.0
    for child in node.children:
        area += _pointer_area(child, window)
    return area


@settings(max_examples=60, deadline=None)
@given(
    fanout=st.sampled_from(FANOUTS),
    geometry=st.sampled_from(GEOMETRIES),
    n=st.integers(0, 700),
    seed=st.integers(0, 2**16),
)
def test_aggregates_equal_pointer_tree_recursion(fanout, geometry, n, seed):
    mbrs = _mbrs(n, geometry, seed)
    index = FlatRTree.from_mbr_array(mbrs, max_entries=fanout)
    tree = RTree.from_mbr_array(mbrs, max_entries=fanout)
    everything = Rect(-1.0, -1.0, 3.0, 3.0)

    def count(window: Rect) -> int:
        return int(index.count_batch(rect_array.window_array([window]))[0])

    assert index.size == count(everything) == len(tree) == n
    assert index.height == tree.height
    assert (Rect(*index.boxes[0].tolist()) if n else None) == tree.root.mbr
    assert [Rect(*row) for row in index.second_to_last_level_mbrs().tolist()] == (
        tree.second_to_last_level_mbrs()
    )
    rng = np.random.default_rng(seed)
    windows = [everything] + [
        Rect(x, y, x + w * 0.5, y + h * 0.5) for x, y, w, h in rng.random((6, 4))
    ]
    for window in windows:
        _, rows = index.window_batch_flat(rect_array.window_array([window]))
        assert index.entry_oids[np.sort(rows)].tolist() == tree.window_query(window)
        assert count(window) == len(tree.window_query(window))
        # Exact, not approx: the sums must round the same way.
        assert total_mbr_area(index, window) == _pointer_area(tree.root, window)
        center, radius = window.center, window.width
        _, rows = index.range_batch_flat(*probe_arrays([center], [radius]))
        assert index.entry_oids[np.sort(rows)].tolist() == tree.range_query(center, radius)
