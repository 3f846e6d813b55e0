"""Planar geometry primitives used throughout the reproduction.

The spatial objects handled by the paper are points and small rectangles
(minimum bounding rectangles, MBRs).  This subpackage provides:

* :class:`~repro.geometry.point.Point` -- an immutable 2D point.
* :class:`~repro.geometry.rect.Rect` -- an axis-aligned rectangle / MBR.
* vectorised array operations over ``(N, 4)`` MBR arrays in
  :mod:`repro.geometry.rect_array` (the regular k x k grid decomposition
  of the partition-based join strategies among them).
* join predicates (:mod:`repro.geometry.predicates`).
"""

from __future__ import annotations

from repro.geometry.point import Point
from repro.geometry.rect import Rect, UNIT_RECT
from repro.geometry.predicates import (
    JoinPredicate,
    IntersectionPredicate,
    WithinDistancePredicate,
)
from repro.geometry import rect_array

__all__ = [
    "Point",
    "Rect",
    "UNIT_RECT",
    "JoinPredicate",
    "IntersectionPredicate",
    "WithinDistancePredicate",
    "rect_array",
]
