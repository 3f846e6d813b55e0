"""Regular-grid bucket index.

A simple spatial hash: objects are assigned to every grid cell their MBR
intersects (with replication, as in PBSM).  The mobile device uses this
index as the build side of its in-memory hash-based spatial join (HBSJ);
the servers can also use it as a cheaper alternative backing store for
very small datasets.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry.grid import RegularGrid
from repro.geometry.point import Point
from repro.geometry.rect import Rect

__all__ = ["GridIndex"]


class GridIndex:
    """A replicating regular-grid index over ``(Rect, oid)`` entries.

    Parameters
    ----------
    bounds:
        The indexed space.  Objects outside the bounds are clamped into the
        nearest boundary cells (they are never lost).
    nx, ny:
        Grid resolution.
    """

    def __init__(self, bounds: Rect, nx: int, ny: Optional[int] = None) -> None:
        ny = nx if ny is None else ny
        self.grid = RegularGrid(bounds, nx, ny)
        self._buckets: Dict[int, List[Tuple[Rect, int]]] = defaultdict(list)
        self._size = 0

    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls,
        entries: Sequence[Tuple[Rect, int]],
        bounds: Optional[Rect] = None,
        cells_per_side: Optional[int] = None,
    ) -> "GridIndex":
        """Build an index sized for the entry count (about 2 entries per cell)."""
        entries = list(entries)
        if bounds is None:
            if not entries:
                bounds = Rect(0.0, 0.0, 1.0, 1.0)
            else:
                bounds = Rect.bounding([r for r, _ in entries])
                if bounds.width == 0 or bounds.height == 0:
                    bounds = bounds.expanded(1e-9)
        if cells_per_side is None:
            cells_per_side = max(1, int(np.sqrt(max(len(entries), 1) / 2.0)))
        index = cls(bounds, cells_per_side)
        for mbr, oid in entries:
            index.insert(mbr, oid)
        return index

    def __len__(self) -> int:
        return self._size

    @property
    def bounds(self) -> Rect:
        return self.grid.window

    def insert(self, mbr: Rect, oid: int) -> None:
        """Insert an entry, replicating it into every overlapping cell."""
        cells = self.grid.cells_overlapping(mbr)
        if not cells:
            # Outside the grid: clamp to the nearest cell so the object is
            # still discoverable (window queries always re-check the MBR).
            clamped = Point(
                min(max(mbr.center.x, self.bounds.xmin), self.bounds.xmax),
                min(max(mbr.center.y, self.bounds.ymin), self.bounds.ymax),
            )
            cells = [self.grid.cell_of_point(clamped)]
        for ix, iy in cells:
            self._buckets[self.grid.cell_index(ix, iy)].append((mbr, oid))
        self._size += 1

    # ------------------------------------------------------------------ #

    def window_query(self, window: Rect) -> List[int]:
        """Distinct object ids whose MBR intersects the window."""
        seen: Set[int] = set()
        out: List[int] = []
        for ix, iy in self.grid.cells_overlapping(window):
            for mbr, oid in self._buckets.get(self.grid.cell_index(ix, iy), ()):
                if oid in seen:
                    continue
                if mbr.intersects(window):
                    seen.add(oid)
                    out.append(oid)
        return out

    def count(self, window: Rect) -> int:
        """Number of distinct objects intersecting the window."""
        return len(self.window_query(window))

    def range_query(self, center: Point, epsilon: float) -> List[int]:
        """Distinct object ids within ``epsilon`` of ``center``."""
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        probe = Rect(
            center.x - epsilon, center.y - epsilon, center.x + epsilon, center.y + epsilon
        )
        seen: Set[int] = set()
        out: List[int] = []
        for ix, iy in self.grid.cells_overlapping(probe):
            for mbr, oid in self._buckets.get(self.grid.cell_index(ix, iy), ()):
                if oid in seen:
                    continue
                if mbr.min_distance_to_point(center) <= epsilon:
                    seen.add(oid)
                    out.append(oid)
        return out

    def occupancy(self) -> Dict[int, int]:
        """Mapping of linear cell index to bucket size (diagnostics)."""
        return {cell: len(items) for cell, items in self._buckets.items()}
