"""Axis-aligned rectangles (minimum bounding rectangles, MBRs).

The :class:`Rect` class is the workhorse of the reproduction: query windows,
grid cells, R-tree node MBRs and object MBRs are all ``Rect`` instances.
Degenerate rectangles (zero width and/or height) are allowed and represent
points, which matches the paper's treatment of point datasets as MBRs with
zero extent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.point import Point


@dataclass(frozen=True, slots=True)
class Rect:
    """An axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``.

    The rectangle is closed on all sides: boundary contact counts as
    intersection, which is the convention used by the paper's window
    queries ("return all the objects intersecting a window w").
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(
                f"invalid Rect: ({self.xmin}, {self.ymin}, {self.xmax}, {self.ymax})"
            )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_point(p: Point) -> "Rect":
        """Degenerate rectangle covering a single point."""
        return Rect(p.x, p.y, p.x, p.y)

    @staticmethod
    def from_points(points: Iterable[Point]) -> "Rect":
        """Minimum bounding rectangle of a non-empty point collection."""
        pts = list(points)
        if not pts:
            raise ValueError("cannot build an MBR from an empty point set")
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    @staticmethod
    def from_center(cx: float, cy: float, width: float, height: float) -> "Rect":
        """Rectangle centred at ``(cx, cy)`` with the given extent."""
        if width < 0 or height < 0:
            raise ValueError("width and height must be non-negative")
        return Rect(cx - width / 2.0, cy - height / 2.0, cx + width / 2.0, cy + height / 2.0)

    @staticmethod
    def bounding(rects: Iterable["Rect"]) -> "Rect":
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
            from repro.geometry import rect_array  # deferred: avoids a cycle

            return rect_array.bounding_rect(rect_array.rects_to_array(rects))
        first = rects[0]
        xmin, ymin, xmax, ymax = first.xmin, first.ymin, first.xmax, first.ymax
        for r in rects[1:]:
            xmin = min(xmin, r.xmin)
            ymin = min(ymin, r.ymin)
            xmax = max(xmax, r.xmax)
            ymax = max(ymax, r.ymax)
        return Rect(xmin, ymin, xmax, ymax)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def is_degenerate(self) -> bool:
        """True when the rectangle has zero area (a point or a segment)."""
        return self.width == 0.0 or self.height == 0.0

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)

    def __iter__(self) -> Iterator[float]:
        yield self.xmin
        yield self.ymin
        yield self.xmax
        yield self.ymax

    # ------------------------------------------------------------------ #
    # topological predicates
    # ------------------------------------------------------------------ #

    def intersects(self, other: "Rect") -> bool:
        """True when the two closed rectangles share at least one point."""
        return not (
            self.xmax < other.xmin
            or other.xmax < self.xmin
            or self.ymax < other.ymin
            or other.ymax < self.ymin
        )

    def contains_point(self, p: Point) -> bool:
        """True when ``p`` lies inside or on the boundary of the rectangle."""
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax

    def contains_rect(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside this rectangle."""
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and other.xmax <= self.xmax
            and other.ymax <= self.ymax
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The intersection rectangle, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        return Rect(
            max(self.xmin, other.xmin),
            max(self.ymin, other.ymin),
            min(self.xmax, other.xmax),
            min(self.ymax, other.ymax),
        )

    def union(self, other: "Rect") -> "Rect":
        """The minimum bounding rectangle of the two rectangles."""
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to include ``other`` (R-tree ChooseLeaf metric)."""
        return self.union(other).area - self.area

    def overlap_area(self, other: "Rect") -> float:
        """Area of the intersection (0 when disjoint)."""
        inter = self.intersection(other)
        return 0.0 if inter is None else inter.area

    # ------------------------------------------------------------------ #
    # distances
    # ------------------------------------------------------------------ #

    def min_distance_to_point(self, p: Point) -> float:
        """Minimum Euclidean distance from the rectangle to a point."""
        dx = max(self.xmin - p.x, 0.0, p.x - self.xmax)
        dy = max(self.ymin - p.y, 0.0, p.y - self.ymax)
        return math.hypot(dx, dy)

    def min_distance_to_rect(self, other: "Rect") -> float:
        """Minimum Euclidean distance between two rectangles (0 when intersecting)."""
        dx = max(self.xmin - other.xmax, 0.0, other.xmin - self.xmax)
        dy = max(self.ymin - other.ymax, 0.0, other.ymin - self.ymax)
        return math.hypot(dx, dy)

    def within_distance(self, other: "Rect", epsilon: float) -> bool:
        """True when the minimum distance between the rectangles is <= epsilon."""
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        dx = max(self.xmin - other.xmax, 0.0, other.xmin - self.xmax)
        dy = max(self.ymin - other.ymax, 0.0, other.ymin - self.ymax)
        return dx * dx + dy * dy <= epsilon * epsilon

    # ------------------------------------------------------------------ #
    # derived rectangles
    # ------------------------------------------------------------------ #

    def expanded(self, margin: float) -> "Rect":
        """Rectangle grown by ``margin`` on every side.

        Used when translating a distance-join cell into a window query: the
        paper extends each cell "by eps/2 at each side" before sending it as
        a window query.  Negative margins shrink the rectangle and raise if
        the result would be inverted.
        """
        return Rect(
            self.xmin - margin,
            self.ymin - margin,
            self.xmax + margin,
            self.ymax + margin,
        )

    def quadrants(self) -> List["Rect"]:
        """The four quadrants of the rectangle (2 x 2 regular split).

        Ordering is row-major from the bottom-left: SW, SE, NW, NE.  All
        partition-based algorithms in the paper use this decomposition;
        the midpoint split lives in
        :func:`~repro.geometry.rect_array.quadrant_cells`, whose array
        form the batch kernels consume directly.
        """
        cx = (self.xmin + self.xmax) / 2.0
        cy = (self.ymin + self.ymax) / 2.0
        return [
            Rect(self.xmin, self.ymin, cx, cy),
            Rect(cx, self.ymin, self.xmax, cy),
            Rect(self.xmin, cy, cx, self.ymax),
            Rect(cx, cy, self.xmax, self.ymax),
        ]

    def subdivide(self, kx: int, ky: Optional[int] = None) -> List["Rect"]:
        """Regular ``kx x ky`` grid decomposition (row-major from bottom-left).

        The cell bounds come from the vectorised
        :func:`~repro.geometry.rect_array.subdivide_window` kernel (one
        edge-array computation instead of a per-cell coordinate loop); the
        edges are bit-identical to the scalar formula, so grids frozen in
        golden fixtures cannot drift.
        """
        from repro.geometry import rect_array  # deferred: avoids a cycle

        cells = rect_array.subdivide_window(self, kx, ky)
        return [Rect(x0, y0, x1, y1) for x0, y0, x1, y1 in cells.tolist()]

    def sample_subwindow(
        self, frac_w: float, frac_h: float, u: float, v: float
    ) -> "Rect":
        """A sub-window of relative size ``(frac_w, frac_h)`` positioned by ``(u, v)``.

        ``u`` and ``v`` are offsets in ``[0, 1]`` that place the sub-window's
        lower-left corner within the feasible range.  UpJoin uses this to
        draw the extra *randomly located* COUNT window (one quadrant sized)
        that confirms a uniformity hypothesis.
        """
        for name, val in (("frac_w", frac_w), ("frac_h", frac_h)):
            if not 0.0 < val <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {val}")
        for name, val in (("u", u), ("v", v)):
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        w = self.width * frac_w
        h = self.height * frac_h
        x0 = self.xmin + (self.width - w) * u
        y0 = self.ymin + (self.height - h) * v
        return Rect(x0, y0, x0 + w, y0 + h)

    def __str__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"Rect([{self.xmin:.6g}, {self.xmax:.6g}] x [{self.ymin:.6g}, {self.ymax:.6g}])"
        )


#: The unit square, the default data space for all synthetic workloads.
UNIT_RECT = Rect(0.0, 0.0, 1.0, 1.0)
