"""Unit and property tests for repro.geometry.rect (and the rectangle
helpers of the pointer R-tree oracle)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect, UNIT_RECT

from tests.oracles.pointer_rtree import bounding, enlargement, min_distance_to_point


# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #

coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw) -> Rect:
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return Rect(x1, y1, x2, y2)


@st.composite
def points(draw) -> Point:
    return Point(draw(coords), draw(coords))


# ---------------------------------------------------------------------- #
# construction and validation
# ---------------------------------------------------------------------- #


class TestConstruction:
    def test_invalid_rect_raises(self):
        with pytest.raises(ValueError):
            Rect(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Rect(0.0, 1.0, 1.0, 0.0)

    def test_from_points_bounds_all(self):
        pts = [Point(0.1, 0.9), Point(0.5, 0.2), Point(0.3, 0.4)]
        r = Rect.from_points(pts)
        assert all(r.contains_rect(Rect(p.x, p.y, p.x, p.y)) for p in pts)
        assert r.xmin == 0.1 and r.ymax == 0.9

    def test_from_one_point_is_degenerate(self):
        r = Rect.from_points([Point(0.3, 0.7)])
        assert r.area == 0.0
        assert r.center == Point(0.3, 0.7)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.from_points([])

    def test_bounding_empty_raises(self):
        with pytest.raises(ValueError):
            bounding([])

    def test_bounding_covers_inputs(self):
        a = Rect(0.0, 0.0, 0.3, 0.3)
        b = Rect(0.5, 0.5, 0.9, 0.7)
        bound = bounding([a, b])
        assert bound.contains_rect(a) and bound.contains_rect(b)


# ---------------------------------------------------------------------- #
# predicates
# ---------------------------------------------------------------------- #


class TestPredicates:
    def test_boundary_touch_counts_as_intersection(self):
        a = Rect(0.0, 0.0, 0.5, 0.5)
        b = Rect(0.5, 0.0, 1.0, 0.5)
        assert a.intersects(b)
        assert b.intersects(a)

    def test_disjoint(self):
        a = Rect(0.0, 0.0, 0.4, 0.4)
        b = Rect(0.6, 0.6, 1.0, 1.0)
        assert not a.intersects(b)
        assert a.intersection(b) is None

    def test_contains_rect_and_point(self):
        outer = Rect(0.0, 0.0, 1.0, 1.0)
        inner = Rect(0.2, 0.2, 0.8, 0.8)
        assert outer.contains_rect(inner)
        assert not inner.contains_rect(outer)
        assert outer.contains_rect(Rect(1.0, 1.0, 1.0, 1.0))  # closed boundary
        assert not outer.contains_rect(Rect(1.0001, 0.5, 1.0001, 0.5))

    def test_intersection_area(self):
        a = Rect(0.0, 0.0, 0.6, 0.6)
        b = Rect(0.4, 0.4, 1.0, 1.0)
        inter = a.intersection(b)
        assert inter == Rect(0.4, 0.4, 0.6, 0.6)
        assert inter.area == pytest.approx(0.04)

    def test_union_and_enlargement(self):
        a = Rect(0.0, 0.0, 0.5, 0.5)
        b = Rect(0.5, 0.5, 1.0, 1.0)
        u = a.union(b)
        assert u == UNIT_RECT
        assert enlargement(a, b) == pytest.approx(1.0 - 0.25)

    @given(rects(), rects())
    @settings(max_examples=80)
    def test_intersection_symmetry(self, a: Rect, b: Rect):
        assert a.intersects(b) == b.intersects(a)
        inter_ab = a.intersection(b)
        inter_ba = b.intersection(a)
        assert inter_ab == inter_ba

    @given(rects(), rects())
    @settings(max_examples=80)
    def test_union_contains_both(self, a: Rect, b: Rect):
        u = a.union(b)
        assert u.contains_rect(a) and u.contains_rect(b)


# ---------------------------------------------------------------------- #
# distances
# ---------------------------------------------------------------------- #


class TestDistances:
    def test_point_inside_distance_zero(self):
        r = Rect(0.0, 0.0, 1.0, 1.0)
        assert min_distance_to_point(r, Point(0.5, 0.5)) == 0.0

    def test_point_outside_axis_distance(self):
        r = Rect(0.0, 0.0, 1.0, 1.0)
        assert min_distance_to_point(r, Point(1.5, 0.5)) == pytest.approx(0.5)

    def test_point_outside_corner_distance(self):
        r = Rect(0.0, 0.0, 1.0, 1.0)
        assert min_distance_to_point(r, Point(1.3, 1.4)) == pytest.approx(math.hypot(0.3, 0.4))

    @given(rects(), points())
    @settings(max_examples=80)
    def test_point_distance_nonnegative_and_zero_inside(self, r: Rect, p: Point):
        d = min_distance_to_point(r, p)
        assert d >= 0.0
        if r.contains_rect(Rect(p.x, p.y, p.x, p.y)):
            assert d == 0.0


# ---------------------------------------------------------------------- #
# derived rectangles
# ---------------------------------------------------------------------- #


class TestDerived:
    def test_expanded_grows_every_side(self):
        r = Rect(0.2, 0.3, 0.6, 0.8).expanded(0.1)
        assert r.xmin == pytest.approx(0.1)
        assert r.ymin == pytest.approx(0.2)
        assert r.xmax == pytest.approx(0.7)
        assert r.ymax == pytest.approx(0.9)

    def test_quadrants_tile_parent(self):
        r = Rect(0.0, 0.0, 1.0, 2.0)
        quads = r.quadrants()
        assert len(quads) == 4
        assert sum(q.area for q in quads) == pytest.approx(r.area)
        assert bounding(quads) == r

    def test_subdivide_row_major_and_tiles(self):
        r = UNIT_RECT
        cells = r.subdivide(4)
        assert len(cells) == 16
        assert cells[0].xmin == 0.0 and cells[0].ymin == 0.0
        assert cells[-1].xmax == 1.0 and cells[-1].ymax == 1.0
        assert sum(c.area for c in cells) == pytest.approx(1.0)

    def test_subdivide_invalid_raises(self):
        with pytest.raises(ValueError):
            UNIT_RECT.subdivide(0)

    def test_sample_subwindow_inside_parent(self):
        r = Rect(0.0, 0.0, 2.0, 2.0)
        sub = r.sample_subwindow(0.5, 0.5, 0.8, 0.1)
        assert r.contains_rect(sub)
        assert sub.width == pytest.approx(1.0)

    def test_sample_subwindow_validation(self):
        with pytest.raises(ValueError):
            UNIT_RECT.sample_subwindow(0.0, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            UNIT_RECT.sample_subwindow(0.5, 0.5, 1.5, 0.5)

    @given(rects(), st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=60)
    def test_expanded_contains_original(self, r: Rect, margin: float):
        assert r.expanded(margin).contains_rect(r)

    @given(rects())
    @settings(max_examples=60)
    def test_quadrants_preserve_area(self, r: Rect):
        quads = r.quadrants()
        assert sum(q.area for q in quads) == pytest.approx(r.area, abs=1e-9)


class TestBulkGridKernels:
    """The rect_array grid kernels behind subdivide/quadrants_of.

    The frozen golden traces/figures record grid-cell windows, so both
    kernels must stay *bit*-identical to the scalar formulas -- including
    the vectorised large-grid branch of ``subdivide_window``, which no
    planner default reaches.
    """

    @given(rects(), st.integers(min_value=1, max_value=11))
    @settings(max_examples=60)
    def test_subdivide_window_matches_scalar_formula(self, r: Rect, k: int):
        import numpy as np

        from repro.geometry import rect_array

        # The reference: the seed's per-cell scalar loop, verbatim.
        dx, dy = r.width / k, r.height / k
        expected = []
        for j in range(k):
            y0 = r.ymin + j * dy
            y1 = r.ymax if j == k - 1 else r.ymin + (j + 1) * dy
            for i in range(k):
                x0 = r.xmin + i * dx
                x1 = r.xmax if i == k - 1 else r.xmin + (i + 1) * dx
                expected.append((x0, y0, x1, y1))
        # k up to 11 crosses the kernel's tiny-grid threshold (16 cells),
        # so both the scalar and the vectorised branch are exercised.
        cells = rect_array.subdivide_window(r, k)
        assert np.array_equal(cells, np.array(expected))
        assert [c.as_tuple() for c in r.subdivide(k)] == expected

    @given(rects())
    @settings(max_examples=60)
    def test_quadrant_cells_matches_rect_quadrants(self, r: Rect):
        import numpy as np

        from repro.geometry import rect_array

        scalar = np.array([q.as_tuple() for q in r.quadrants()])
        assert np.array_equal(rect_array.quadrant_cells(r), scalar)
