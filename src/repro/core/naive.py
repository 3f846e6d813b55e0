"""Baseline strategies from Section 3 of the paper.

* :class:`NaiveDownloadJoin` -- download both datasets wholesale and join
  on the device ("in general, this is an infeasible solution, since mobile
  devices have limited storage capability"); provided as the upper-bound
  baseline and as the correctness oracle's twin.
* :class:`FixedGridJoin` -- the divide-and-conquer alternative: impose a
  regular grid, send a window query per cell to both servers, join each
  cell on the device; with COUNT-based pruning of cells where either side
  is empty ("we can achieve sublinear transfer cost by pruning areas that
  do not contain any results").
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import AlgorithmParameters, MobileJoinAlgorithm
from repro.core.join_types import JoinSpec
from repro.device.hbsj import HBSJRequest
from repro.device.pda import MobileDevice
from repro.device.steps import COUNT, Request, Steps
from repro.geometry.rect import Rect

__all__ = ["NaiveDownloadJoin", "FixedGridJoin"]


class NaiveDownloadJoin(MobileJoinAlgorithm):
    """Download everything, join on the device.

    The device buffer is *not* enforced by default (the whole point of the
    baseline is to show what ignoring the constraint would cost); pass
    ``enforce_buffer=True`` to make it spill through recursive HBSJ
    partitioning instead.
    """

    name = "naive"

    def __init__(
        self,
        device: MobileDevice,
        spec: JoinSpec,
        params: Optional[AlgorithmParameters] = None,
        enforce_buffer: bool = False,
    ) -> None:
        super().__init__(device, spec, params)
        self.enforce_buffer = enforce_buffer

    def _steps(self, window: Rect, count_r: int, count_s: int, depth: int) -> Steps:
        if count_r == 0 or count_s == 0:
            self.prune(window, depth, count_r, count_s)
            return
        if self.enforce_buffer:
            # Let the HBSJ operator spill recursively; it re-counts as needed.
            yield from self.hbsj_steps(window, depth, count_r, count_s, counts_exact=True)
            return
        # Temporarily lift the buffer constraint for the wholesale download.
        original_capacity = self.device.buffer.capacity
        self.device.buffer.capacity = max(original_capacity, count_r + count_s)
        try:
            yield from self.hbsj_steps(window, depth, count_r, count_s, counts_exact=True)
        finally:
            self.device.buffer.capacity = original_capacity


class FixedGridJoin(MobileJoinAlgorithm):
    """Regular-grid partitioning with COUNT-based pruning.

    Parameters
    ----------
    grid_size:
        The grid is ``grid_size x grid_size`` over the join window.
    prune_empty:
        Issue COUNT queries per cell and skip cells where either side is
        empty.  Disabling this reproduces the pure partition-based
        technique (every cell downloaded).
    """

    name = "fixedgrid"

    def __init__(
        self,
        device: MobileDevice,
        spec: JoinSpec,
        params: Optional[AlgorithmParameters] = None,
        grid_size: int = 4,
        prune_empty: bool = True,
    ) -> None:
        super().__init__(device, spec, params)
        if grid_size < 1:
            raise ValueError("grid_size must be >= 1")
        self.grid_size = grid_size
        self.prune_empty = prune_empty

    def _steps(self, window: Rect, count_r: int, count_s: int, depth: int) -> Steps:
        if count_r == 0 or count_s == 0:
            self.prune(window, depth, count_r, count_s)
            return
        cells = window.subdivide(self.grid_size)
        if not self.prune_empty:
            for cell in cells:
                self.record(depth + 1, cell, "HBSJ", "")
            yield from self._join_cells([HBSJRequest(window=cell) for cell in cells])
            return
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
        yield from self._join_cells(surviving)

    def _join_cells(self, requests) -> Steps:
        """Join the surviving cells through one batched HBSJ pipeline: the
        same downloads and counters as one operator call per cell."""
        table = yield from self.device.hbsj_steps(requests, self.predicate)
        self._pairs.extend(table.pairs)
