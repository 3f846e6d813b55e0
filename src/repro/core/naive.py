"""Baseline strategies from Section 3 of the paper.

* :class:`NaiveDownloadJoin` -- download both datasets wholesale and join
  on the device ("in general, this is an infeasible solution, since mobile
  devices have limited storage capability"); provided as the upper-bound
  baseline and as the correctness oracle's twin.  The buffer is lifted for
  the download: the baseline shows what ignoring the constraint costs.
* :class:`FixedGridJoin` -- the divide-and-conquer alternative: impose a
  regular :data:`FIXED_GRID` x :data:`FIXED_GRID` grid, COUNT every cell on
  both servers, skip the cells where either side is empty ("we can achieve
  sublinear transfer cost by pruning areas that do not contain any
  results") and join each other cell on the device.

Each runs one configuration: neither takes an option of its own.
"""

from __future__ import annotations

from repro.core.base import MobileJoinAlgorithm
from repro.device.hbsj import HBSJRequest
from repro.device.steps import COUNT, Request, Steps
from repro.geometry.rect import Rect

__all__ = ["FIXED_GRID", "NaiveDownloadJoin", "FixedGridJoin"]

#: The side of :class:`FixedGridJoin`'s grid, in cells.
FIXED_GRID = 4


class NaiveDownloadJoin(MobileJoinAlgorithm):
    """Download everything, join on the device.

    The device buffer is *not* enforced: the whole point of the baseline is
    to show what ignoring the constraint would cost.
    """

    name = "naive"

    def _steps(self, window: Rect, count_r: int, count_s: int, depth: int) -> Steps:
        if count_r == 0 or count_s == 0:
            self.prune(window, depth, count_r, count_s)
            return
        # Temporarily lift the buffer constraint for the wholesale download.
        original_capacity = self.device.buffer.capacity
        self.device.buffer.capacity = max(original_capacity, count_r + count_s)
        try:
            yield from self.hbsj_steps(window, depth, count_r, count_s, counts_exact=True)
        finally:
            self.device.buffer.capacity = original_capacity


class FixedGridJoin(MobileJoinAlgorithm):
    """Regular :data:`FIXED_GRID` x :data:`FIXED_GRID` partitioning with
    COUNT-based pruning of the cells where either side is empty."""

    name = "fixedgrid"

    def _steps(self, window: Rect, count_r: int, count_s: int, depth: int) -> Steps:
        if count_r == 0 or count_s == 0:
            self.prune(window, depth, count_r, count_s)
            return
        cells = window.subdivide(FIXED_GRID)
        # All per-cell COUNTs of the grid go out as two batches (one per
        # server): same queries and bytes as the per-cell loop, answered in
        # one index descent each.
        counts_r, counts_s = yield from self.count_round(
            [
                Request(COUNT, side, ([self.query_window(side, cell) for cell in cells],))
                for side in ("R", "S")
            ]
        )
        surviving = []
        for cell, cell_r, cell_s in zip(cells, counts_r, counts_s):
            if cell_r == 0 or cell_s == 0:
                self.prune(cell, depth + 1, cell_r, cell_s)
                continue
            self.record(depth + 1, cell, "HBSJ", "", cell_r, cell_s)
            surviving.append(HBSJRequest(window=cell, count_r=cell_r, count_s=cell_s))
        # The surviving cells join through one batched HBSJ pipeline: the
        # same downloads and counters as one operator call per cell.
        table = yield from self.device.hbsj_steps(surviving, self.predicate)
        self._pairs.extend(table.pairs)
