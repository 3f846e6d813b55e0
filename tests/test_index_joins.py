"""Tests for the in-memory join kernels (plane sweep, grid hash)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import rect_array
from repro.geometry.predicates import IntersectionPredicate, WithinDistancePredicate
from repro.geometry.rect import Rect
from repro.index.hash_join import grid_hash_join
from repro.index.plane_sweep import plane_sweep_join, plane_sweep_pairs


def _random_mbrs(n: int, seed: int, extent: float = 0.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    sizes = rng.uniform(0.0, extent, size=(n, 2)) if extent else np.zeros((n, 2))
    return np.column_stack([pts, np.minimum(pts + sizes, 1.0)])


def _oracle_pairs(a: np.ndarray, b: np.ndarray, predicate) -> set:
    matrix = predicate.matches_matrix(a, b)
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(matrix))}


class TestPlaneSweep:
    @pytest.mark.parametrize("extent", [0.0, 0.05])
    @pytest.mark.parametrize("eps", [0.0, 0.02, 0.1])
    def test_matches_brute_force(self, extent, eps):
        a = _random_mbrs(80, seed=1, extent=extent)
        b = _random_mbrs(90, seed=2, extent=extent)
        predicate = WithinDistancePredicate(eps) if eps > 0 else IntersectionPredicate()
        got = set(plane_sweep_pairs(a, b, predicate))
        assert got == _oracle_pairs(a, b, predicate)

    def test_empty_inputs(self):
        a = _random_mbrs(10, seed=3)
        empty = np.empty((0, 4))
        pred = IntersectionPredicate()
        assert plane_sweep_pairs(a, empty, pred) == []
        assert plane_sweep_pairs(empty, a, pred) == []

    def test_oid_mapping(self):
        a = np.array([[0.1, 0.1, 0.2, 0.2]])
        b = np.array([[0.15, 0.15, 0.3, 0.3], [0.8, 0.8, 0.9, 0.9]])
        pairs = plane_sweep_join(
            a, np.array([42]), b, np.array([7, 9]), IntersectionPredicate()
        )
        assert pairs == [(42, 7)]

    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=5000),
        st.floats(min_value=0.0, max_value=0.2),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_exact(self, na, nb, seed, eps):
        a = _random_mbrs(na, seed=seed, extent=0.03)
        b = _random_mbrs(nb, seed=seed + 1, extent=0.03)
        predicate = WithinDistancePredicate(eps) if eps > 0 else IntersectionPredicate()
        assert set(plane_sweep_pairs(a, b, predicate)) == _oracle_pairs(a, b, predicate)


class TestGridHashJoin:
    @pytest.mark.parametrize("eps", [0.0, 0.03])
    def test_matches_brute_force(self, eps):
        a = _random_mbrs(120, seed=4, extent=0.02)
        b = _random_mbrs(100, seed=5, extent=0.02)
        predicate = WithinDistancePredicate(eps) if eps > 0 else IntersectionPredicate()
        got = set(
            grid_hash_join(a, np.arange(120), b, np.arange(100) + 1000, predicate)
        )
        expected = {
            (i, j + 1000) for i, j in _oracle_pairs(a, b, predicate)
        }
        assert got == expected

    def test_no_duplicates_despite_replication(self):
        # Objects straddling many cells must still be reported once.
        a = np.array([[0.0, 0.0, 1.0, 1.0]])
        b = _random_mbrs(50, seed=6)
        pairs = grid_hash_join(
            a, np.array([1]), b, np.arange(50), IntersectionPredicate(), cells_per_side=5
        )
        assert len(pairs) == len(set(pairs)) == 50

    def test_empty_sides(self):
        a = _random_mbrs(10, seed=7)
        empty = np.empty((0, 4))
        assert grid_hash_join(a, np.arange(10), empty, np.empty(0), IntersectionPredicate()) == []

    @given(
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=0, max_value=5000),
        st.floats(min_value=0.0, max_value=0.1),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_exact(self, na, nb, seed, eps, cells):
        a = _random_mbrs(na, seed=seed, extent=0.05)
        b = _random_mbrs(nb, seed=seed + 17, extent=0.05)
        predicate = WithinDistancePredicate(eps) if eps > 0 else IntersectionPredicate()
        got = set(
            grid_hash_join(
                a, np.arange(na), b, np.arange(nb), predicate, cells_per_side=cells
            )
        )
        assert got == _oracle_pairs(a, b, predicate)


class TestRectArray:
    def test_as_mbr_array_accepts_points(self):
        pts = np.array([[0.1, 0.2], [0.3, 0.4]])
        mbrs = rect_array.as_mbr_array(pts)
        assert mbrs.shape == (2, 4)
        assert np.all(mbrs[:, :2] == mbrs[:, 2:])

    def test_as_mbr_array_rejects_inverted(self):
        with pytest.raises(ValueError):
            rect_array.as_mbr_array(np.array([[0.5, 0.5, 0.1, 0.6]]))

    def test_count_in_window(self):
        mbrs = rect_array.points_to_mbrs(np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]]))
        assert rect_array.count_in_window(mbrs, Rect(0.0, 0.0, 0.6, 0.6)) == 2

    def test_within_distance_of_point_negative_eps_raises(self):
        with pytest.raises(ValueError):
            rect_array.within_distance_of_point(np.empty((0, 4)), 0.0, 0.0, -1.0)
