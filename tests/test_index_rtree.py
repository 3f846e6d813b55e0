"""Unit and property tests for the R-tree and the aggregate R-tree."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.aggregate_rtree import AggregateRTree

from tests.oracles.pointer_rtree import RTree


def _random_entries(n: int, seed: int = 0, extent: float = 0.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    entries = []
    for i, (x, y) in enumerate(pts):
        w = rng.uniform(0.0, extent) if extent else 0.0
        h = rng.uniform(0.0, extent) if extent else 0.0
        entries.append((Rect(x, y, min(x + w, 1.0), min(y + h, 1.0)), i))
    return entries


def _brute_window(entries, window: Rect):
    return sorted(oid for rect, oid in entries if rect.intersects(window))


def _brute_range(entries, center: Point, eps: float):
    return sorted(oid for rect, oid in entries if rect.min_distance_to_point(center) <= eps)


class TestRTreeConstruction:
    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.window_query(Rect(0, 0, 1, 1)) == []
        assert tree.height == 1

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            RTree(max_entries=2)
        with pytest.raises(ValueError):
            RTree(max_entries=16, min_entries=12)

    def test_insert_preserves_invariants(self):
        tree = RTree(max_entries=4)
        entries = _random_entries(200, seed=1)
        for rect, oid in entries:
            tree.insert(rect, oid)
        assert len(tree) == 200
        tree.validate()

    def test_bulk_load_preserves_invariants(self):
        entries = _random_entries(500, seed=2)
        tree = RTree.bulk_load(entries, max_entries=8)
        assert len(tree) == 500
        tree.validate()
        stats = tree.stats()
        assert stats.object_count == 500
        assert stats.height >= 2
        # STR packing should fill leaves well.
        assert stats.avg_leaf_fill > 0.5 * 8

    def test_bulk_load_empty(self):
        tree = RTree.bulk_load([])
        assert len(tree) == 0
        tree.validate()

    def test_from_mbr_array(self):
        mbrs = np.array([[0.1, 0.1, 0.2, 0.2], [0.5, 0.5, 0.6, 0.7]])
        tree = RTree.from_mbr_array(mbrs, oids=[10, 20])
        assert sorted(tree.window_query(Rect(0, 0, 1, 1))) == [10, 20]

    def test_from_mbr_array_matches_entry_bulk_load(self):
        """The array-native STR path builds structurally identical trees."""
        entries = _random_entries(500, seed=12)
        mbrs = np.array([r.as_tuple() for r, _ in entries])
        oids = np.array([oid for _, oid in entries])
        by_entries = RTree.bulk_load(entries, max_entries=8)
        by_arrays = RTree.from_mbr_array(mbrs, oids, max_entries=8)
        by_arrays.validate()
        assert by_entries.stats() == by_arrays.stats()
        assert [n.mbr for n in by_entries.iter_nodes()] == [
            n.mbr for n in by_arrays.iter_nodes()
        ]
        assert list(by_entries.iter_entries()) == list(by_arrays.iter_entries())

    def test_from_mbr_array_accepts_insert_after_load(self):
        tree = RTree.from_mbr_array(
            np.array([r.as_tuple() for r, _ in _random_entries(100, seed=3)])
        )
        tree.insert(Rect(0.5, 0.5, 0.5, 0.5), 1000)
        tree.validate()
        assert 1000 in tree.window_query(Rect(0.49, 0.49, 0.51, 0.51))


class TestRTreeQueries:
    @pytest.mark.parametrize("builder", ["insert", "bulk"])
    def test_window_query_matches_brute_force(self, builder):
        entries = _random_entries(300, seed=3, extent=0.05)
        if builder == "insert":
            tree = RTree(max_entries=8)
            for rect, oid in entries:
                tree.insert(rect, oid)
        else:
            tree = RTree.bulk_load(entries, max_entries=8)
        for window in (
            Rect(0.0, 0.0, 0.3, 0.3),
            Rect(0.25, 0.25, 0.75, 0.75),
            Rect(0.9, 0.9, 1.0, 1.0),
            Rect(0.0, 0.0, 1.0, 1.0),
        ):
            assert sorted(tree.window_query(window)) == _brute_window(entries, window)

    def test_range_query_matches_brute_force(self):
        entries = _random_entries(300, seed=4)
        tree = RTree.bulk_load(entries, max_entries=8)
        center = Point(0.4, 0.6)
        for eps in (0.0, 0.05, 0.2, 1.5):
            assert sorted(tree.range_query(center, eps)) == _brute_range(entries, center, eps)

    def test_range_query_negative_eps_raises(self):
        tree = RTree.bulk_load(_random_entries(10))
        with pytest.raises(ValueError):
            tree.range_query(Point(0.5, 0.5), -0.1)

    def test_nearest_neighbors(self):
        entries = _random_entries(200, seed=5)
        tree = RTree.bulk_load(entries, max_entries=8)
        center = Point(0.5, 0.5)
        knn = tree.nearest_neighbors(center, k=5)
        assert len(knn) == 5
        dists = [d for d, _ in knn]
        assert dists == sorted(dists)
        # The closest reported distance must equal the brute-force minimum.
        brute = min(rect.min_distance_to_point(center) for rect, _ in entries)
        assert dists[0] == pytest.approx(brute)

    def test_level_mbrs_cover_children(self):
        entries = _random_entries(400, seed=6)
        tree = RTree.bulk_load(entries, max_entries=8)
        level_rects = tree.second_to_last_level_mbrs()
        assert level_rects
        # Every object MBR must be covered by at least one level MBR.
        for rect, _ in entries:
            assert any(lvl.contains_rect(rect) for lvl in level_rects)

    @given(st.integers(min_value=0, max_value=120), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_window_query_exact(self, n, seed):
        entries = _random_entries(n, seed=seed, extent=0.1)
        tree = RTree.bulk_load(entries, max_entries=6)
        tree.validate()
        window = Rect(0.2, 0.1, 0.7, 0.8)
        assert sorted(tree.window_query(window)) == _brute_window(entries, window)


class TestAggregateRTree:
    def test_count_matches_window_query(self):
        entries = _random_entries(400, seed=7, extent=0.03)
        agg = AggregateRTree(entries, max_entries=8)
        for window in (
            Rect(0.0, 0.0, 0.5, 0.5),
            Rect(0.3, 0.3, 0.31, 0.31),
            Rect(0.0, 0.0, 1.0, 1.0),
        ):
            assert agg.count(window) == len(agg.window_query(window))

    def test_average_mbr_area(self):
        entries = [
            (Rect(0.0, 0.0, 0.2, 0.2), 0),  # area 0.04
            (Rect(0.5, 0.5, 0.6, 0.6), 1),  # area 0.01
        ]
        agg = AggregateRTree(entries)
        assert agg.average_mbr_area(Rect(0, 0, 1, 1)) == pytest.approx(0.025)
        assert agg.average_mbr_area(Rect(0.4, 0.4, 0.7, 0.7)) == pytest.approx(0.01)
        assert agg.average_mbr_area(Rect(0.8, 0.8, 0.9, 0.9)) == 0.0

    def test_empty_aggregate_tree(self):
        agg = AggregateRTree([])
        assert len(agg) == 0
        assert agg.count(Rect(0, 0, 1, 1)) == 0

    def test_range_query_delegation(self):
        entries = _random_entries(100, seed=8)
        agg = AggregateRTree(entries)
        center = Point(0.5, 0.5)
        assert sorted(agg.range_query(center, 0.1)) == _brute_range(entries, center, 0.1)

    @given(st.integers(min_value=0, max_value=150), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_count_equals_brute_force(self, n, seed):
        entries = _random_entries(n, seed=seed, extent=0.05)
        agg = AggregateRTree(entries, max_entries=6)
        window = Rect(0.1, 0.2, 0.6, 0.9)
        assert agg.count(window) == len(_brute_window(entries, window))
