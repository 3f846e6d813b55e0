"""Unit tests for repro.geometry.point."""

from __future__ import annotations

from repro.geometry.point import Point


class TestPoint:
    def test_iteration_and_tuple(self):
        p = Point(0.5, 0.75)
        assert tuple(p) == (0.5, 0.75)
        assert p.as_tuple() == (0.5, 0.75)

    def test_equality_ignores_oid(self):
        assert Point(1.0, 2.0, oid=1) == Point(1.0, 2.0, oid=99)
