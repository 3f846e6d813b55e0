"""Regular grid decompositions.

Every partition-based strategy in the paper (the naive grid join, MobiJoin,
UpJoin, SrJoin and the PBSM-style in-memory hash join) decomposes a window
into a regular ``k x k`` grid.  :class:`RegularGrid` captures that
decomposition together with cell lookup by position, which the in-memory
hash join and the duplicate-avoidance rule both need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.geometry.point import Point
from repro.geometry.rect import Rect


def quadrants(window: Rect) -> List[Rect]:
    """The 2 x 2 decomposition used by MobiJoin/UpJoin/SrJoin (SW, SE, NW, NE)."""
    return window.quadrants()


@dataclass(frozen=True)
class RegularGrid:
    """A regular ``nx x ny`` grid over a window.

    Cells are indexed row-major from the bottom-left corner, i.e. cell
    ``(ix, iy)`` has linear index ``iy * nx + ix``.
    """

    window: Rect
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid dimensions must be >= 1")
        if self.window.width <= 0 or self.window.height <= 0:
            raise ValueError("grid window must have positive extent")

    # ------------------------------------------------------------------ #

    @property
    def num_cells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_width(self) -> float:
        return self.window.width / self.nx

    @property
    def cell_height(self) -> float:
        return self.window.height / self.ny

    def cell_rect(self, ix: int, iy: int) -> Rect:
        """The rectangle of cell ``(ix, iy)``."""
        self._check_cell(ix, iy)
        x0 = self.window.xmin + ix * self.cell_width
        y0 = self.window.ymin + iy * self.cell_height
        x1 = self.window.xmax if ix == self.nx - 1 else x0 + self.cell_width
        y1 = self.window.ymax if iy == self.ny - 1 else y0 + self.cell_height
        return Rect(x0, y0, x1, y1)

    def cell_coords(self, index: int) -> Tuple[int, int]:
        """Convert a linear cell index into ``(ix, iy)`` coordinates."""
        if not 0 <= index < self.num_cells:
            raise IndexError(f"cell index {index} out of range")
        return index % self.nx, index // self.nx

    def cell_index(self, ix: int, iy: int) -> int:
        """Convert ``(ix, iy)`` coordinates into a linear cell index."""
        self._check_cell(ix, iy)
        return iy * self.nx + ix

    def cell_of_point(self, p: Point) -> Tuple[int, int]:
        """The cell containing a point (points on the max edges map to the last cell).

        Raises :class:`ValueError` when the point lies outside the grid window.
        """
        if not self.window.contains_point(p):
            raise ValueError(f"point {p} lies outside the grid window {self.window}")
        ix = int((p.x - self.window.xmin) / self.cell_width)
        iy = int((p.y - self.window.ymin) / self.cell_height)
        return min(ix, self.nx - 1), min(iy, self.ny - 1)

    def cells_overlapping(self, rect: Rect) -> List[Tuple[int, int]]:
        """All cells whose rectangle intersects ``rect`` (possibly empty)."""
        inter = rect.intersection(self.window)
        if inter is None:
            return []
        ix0 = int((inter.xmin - self.window.xmin) / self.cell_width)
        iy0 = int((inter.ymin - self.window.ymin) / self.cell_height)
        ix1 = int((inter.xmax - self.window.xmin) / self.cell_width)
        iy1 = int((inter.ymax - self.window.ymin) / self.cell_height)
        ix0, iy0 = min(ix0, self.nx - 1), min(iy0, self.ny - 1)
        ix1, iy1 = min(ix1, self.nx - 1), min(iy1, self.ny - 1)
        return [
            (ix, iy) for iy in range(iy0, iy1 + 1) for ix in range(ix0, ix1 + 1)
        ]

    def iter_cells(self) -> Iterator[Tuple[int, int, Rect]]:
        """Iterate ``(ix, iy, cell_rect)`` row-major from the bottom-left."""
        for iy in range(self.ny):
            for ix in range(self.nx):
                yield ix, iy, self.cell_rect(ix, iy)

    # ------------------------------------------------------------------ #

    def _check_cell(self, ix: int, iy: int) -> None:
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise IndexError(f"cell ({ix}, {iy}) out of range for {self.nx}x{self.ny} grid")
