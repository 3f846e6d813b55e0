"""Tests for the in-memory join kernels (plane sweep, grid hash)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidInput
from repro.geometry import rect_array
from repro.geometry.predicates import IntersectionPredicate, WithinDistancePredicate
from repro.geometry.rect import Rect
from repro.index.aggregate_rtree import probe_arrays
from repro.index.hash_join import grid_hash_join
from repro.index.plane_sweep import plane_sweep_pairs

from tests.oracles.operators_scalar import matches_matrix


def _random_mbrs(n: int, seed: int, extent: float = 0.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    sizes = rng.uniform(0.0, extent, size=(n, 2)) if extent else np.zeros((n, 2))
    return np.column_stack([pts, np.minimum(pts + sizes, 1.0)])


def _oracle_pairs(a: np.ndarray, b: np.ndarray, predicate) -> set:
    matrix = matches_matrix(predicate, a, b)
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(matrix))}


def _grid_hash_pairs(a: np.ndarray, b: np.ndarray, predicate) -> list:
    return grid_hash_join(a, np.arange(len(a)), b, np.arange(len(b)), predicate)


# The two in-memory join kernels: both answer positional index pairs here.
KERNELS = {"plane-sweep": plane_sweep_pairs, "grid-hash": _grid_hash_pairs}


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
        pairs = grid_hash_join(a, np.array([42]), b, np.array([7, 9]), IntersectionPredicate())
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
        # An object covering every cell, on either side, must still be
        # reported once per partner.
        a = np.array([[0.0, 0.0, 1.0, 1.0]])
        b = _random_mbrs(50, seed=6)
        pairs = grid_hash_join(a, np.array([1]), b, np.arange(50), IntersectionPredicate())
        assert len(pairs) == len(set(pairs)) == 50
        pairs = grid_hash_join(b, np.arange(50), a, np.array([1]), IntersectionPredicate())
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
    )
    @settings(max_examples=30, deadline=None)
    def test_property_exact(self, na, nb, seed, eps):
        a = _random_mbrs(na, seed=seed, extent=0.05)
        b = _random_mbrs(nb, seed=seed + 17, extent=0.05)
        predicate = WithinDistancePredicate(eps) if eps > 0 else IntersectionPredicate()
        got = set(grid_hash_join(a, np.arange(na), b, np.arange(nb), predicate))
        assert got == _oracle_pairs(a, b, predicate)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
class TestDistanceSemantics:
    """What "within epsilon" means, the same in both kernels: the minimum
    Euclidean distance between two MBRs, compared inclusively."""

    def test_point_distance(self, kernel):
        join = KERNELS[kernel]
        a = rect_array.points_to_mbrs(np.array([[0.0, 0.0]]))
        b = rect_array.points_to_mbrs(np.array([[3.0, 4.0]]))
        assert join(a, b, WithinDistancePredicate(5.0)) == [(0, 0)]
        assert join(a, b, WithinDistancePredicate(4.999)) == []

    def test_within_distance_boundary_inclusive(self, kernel):
        join = KERNELS[kernel]
        a = rect_array.points_to_mbrs(np.array([[0.0, 0.0]]))
        b = rect_array.points_to_mbrs(np.array([[0.0, 1.0], [0.0, 1.0001]]))
        assert join(a, b, WithinDistancePredicate(1.0)) == [(0, 0)]

    def test_rect_distance_matches_manual(self, kernel):
        # The gap between the two boxes is (0.3, 0.4): distance 0.5.
        join = KERNELS[kernel]
        a = np.array([[0.0, 0.0, 0.2, 0.2]])
        b = np.array([[0.5, 0.6, 0.7, 0.8]])
        assert join(a, b, WithinDistancePredicate(0.5 + 1e-9)) == [(0, 0)]
        assert join(a, b, WithinDistancePredicate(0.5 - 1e-9)) == []

    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_intersection_iff_zero_distance(self, kernel, na, nb, seed):
        join = KERNELS[kernel]
        a = _random_mbrs(na, seed=seed, extent=0.1)
        b = _random_mbrs(nb, seed=seed + 31, extent=0.1)
        assert sorted(join(a, b, IntersectionPredicate())) == sorted(
            join(a, b, WithinDistancePredicate(0.0))
        )

    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.0, max_value=0.2),
    )
    @settings(max_examples=25, deadline=None)
    def test_distance_symmetry(self, kernel, na, nb, seed, eps):
        join = KERNELS[kernel]
        a = _random_mbrs(na, seed=seed, extent=0.05)
        b = _random_mbrs(nb, seed=seed + 53, extent=0.05)
        predicate = WithinDistancePredicate(eps)
        assert sorted(join(a, b, predicate)) == sorted(
            (i, j) for j, i in join(b, a, predicate)
        )


def test_within_distance_negative_raises():
    with pytest.raises(ValueError, match="epsilon must be non-negative"):
        WithinDistancePredicate(-0.5)


class TestRectArray:
    def test_as_mbr_array_accepts_points(self):
        pts = np.array([[0.1, 0.2], [0.3, 0.4]])
        mbrs = rect_array.as_mbr_array(pts)
        assert mbrs.shape == (2, 4)
        assert np.all(mbrs[:, :2] == mbrs[:, 2:])

    def test_as_mbr_array_rejects_inverted(self):
        with pytest.raises(ValueError):
            rect_array.as_mbr_array(np.array([[0.5, 0.5, 0.1, 0.6]]))

    def test_as_mbr_array_names_the_first_non_finite_row(self):
        arr = np.zeros((50000, 4))
        arr[7, 2], arr[900, 0], arr[901] = np.nan, np.inf, -np.inf
        with pytest.raises(
            InvalidInput, match=r"^3 row\(s\) hold non-finite coordinates \(first: row 7\)$"
        ):
            rect_array.as_mbr_array(arr)
        points = np.zeros((10, 2))
        points[4, 1] = np.nan
        with pytest.raises(
            InvalidInput, match=r"^1 row\(s\) hold non-finite coordinates \(first: row 4\)$"
        ):
            rect_array.as_mbr_array(points)

    def test_intersects_window_is_closed(self):
        mbrs = rect_array.points_to_mbrs(np.array([[0.1, 0.1], [0.6, 0.6], [0.9, 0.9]]))
        mask = rect_array.intersects_window(mbrs, Rect(0.0, 0.0, 0.6, 0.6))
        assert mask.tolist() == [True, True, False]

    def test_areas(self):
        mbrs = np.array([[0.0, 0.0, 0.2, 0.2], [0.5, 0.5, 0.6, 0.6]])
        assert rect_array.areas(mbrs) == pytest.approx([0.04, 0.01])

    def test_bounding_rect(self):
        mbrs = np.array([[0.1, 0.5, 0.2, 0.6], [0.4, 0.0, 0.5, 0.3]])
        assert rect_array.bounding_rect(mbrs) == Rect(0.1, 0.0, 0.5, 0.6)
        with pytest.raises(ValueError):
            rect_array.bounding_rect(np.empty((0, 4)))

    def test_probe_around_a_point_refuses_negative_epsilon(self):
        with pytest.raises(InvalidInput, match="epsilon must be non-negative"):
            probe_arrays(np.array([[0.0, 0.0]]), [-1.0])
