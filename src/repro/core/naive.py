"""Baseline strategies from Section 3 of the paper, as level tables.

* :class:`NaiveDownloadJoin` -- download both datasets wholesale and join
  on the device ("in general, this is an infeasible solution, since mobile
  devices have limited storage capability"); provided as the upper-bound
  baseline and as the correctness oracle's twin.  Its root window is one
  HBSJ leaf run with the buffer lifted: the baseline shows what ignoring
  the constraint costs.
* :class:`FixedGridJoin` -- the divide-and-conquer alternative: split the
  root window into a regular :data:`FIXED_GRID` x :data:`FIXED_GRID` grid,
  COUNT every cell on both servers (one round, R then S), skip the cells
  where either side is empty ("we can achieve sublinear transfer cost by
  pruning areas that do not contain any results") and join each other
  cell on the device with HBSJ.

Both run on the frontier engine (:mod:`repro.core.frontier`), so the query
broker groups like baseline queries as it groups the adaptive ones.  Each
runs one configuration: neither takes an option of its own.
"""

from __future__ import annotations

import numpy as np

from repro.core.frontier import FrontierAlgorithm, LevelTable
from repro.device.steps import Steps
from repro.geometry import rect_array

__all__ = ["FIXED_GRID", "NaiveDownloadJoin", "FixedGridJoin"]

#: The side of :class:`FixedGridJoin`'s grid, in cells.
FIXED_GRID = 4


class NaiveTable(LevelTable):
    """The root windows: pruned when a side is empty, else one HBSJ leaf."""

    def start(self) -> None:
        live = self.prune_empty()
        self.leaves(live, np.ones(live.size, dtype=bool), True)


class FixedGridTable(NaiveTable):
    """The root windows split into the fixed grid; the cells (depth 1)
    pruned when a side is empty, else one HBSJ leaf each."""

    def start(self) -> None:
        if self.level.depth:
            return super().start()
        live = self.prune_empty()
        n = FIXED_GRID * FIXED_GRID
        cells = rect_array.subdivide_window(self.windows[live], FIXED_GRID).reshape(-1, 4)
        self.ask(
            live,
            lambda live, count_r, count_s: self.child_level(
                live,
                cells,
                count_r.reshape(-1, n),
                count_s.reshape(-1, n),
                np.ones(cells.shape[0], dtype=bool),
            ),
            n,
            R=cells,
            S=cells,
        )


class NaiveDownloadJoin(FrontierAlgorithm):
    """Download everything, join on the device.

    The device buffer is *not* enforced: the whole point of the baseline is
    to show what ignoring the constraint would cost.
    """

    name = "naive"
    table = NaiveTable

    def _run_leaves(self, table: LevelTable) -> Steps:
        """The leaves with every live member's buffer lifted to the crew's
        largest download, and restored afterwards."""
        need = int((table.int_r + table.int_s).max())
        lifted = [(b, b.capacity) for b in table.crew.devices.buffers if b is not None]
        for buffer, capacity in lifted:
            buffer.capacity = max(capacity, need)
        try:
            yield from super()._run_leaves(table)
        finally:
            for buffer, capacity in lifted:
                buffer.capacity = capacity


class FixedGridJoin(FrontierAlgorithm):
    """Regular :data:`FIXED_GRID` x :data:`FIXED_GRID` partitioning with
    COUNT-based pruning of the cells where either side is empty."""

    name = "fixedgrid"
    table = FixedGridTable
