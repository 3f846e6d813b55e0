"""MobiJoin -- the published baseline (Mamoulis et al., SSTD 2003; Section 3.2).

MobiJoin recursively partitions the data space and prunes empty regions.
For every window it:

1. prunes when either dataset is empty,
2. estimates the four strategy costs ``c1`` (HBSJ), ``c2``/``c3`` (NLSJ)
   and ``c4`` (repartition into a regular ``k x k`` grid, ``k = 2``),
3. executes the cheapest strategy; a repartitioning step issues ``2 k^2``
   COUNT queries and recurses into every non-empty cell.

The crucial weakness -- analysed at length in the paper and reproduced here
faithfully -- is the estimate of ``c4``: MobiJoin assumes the window is
*uniform* and that one more level of partitioning suffices, so each
sub-window is costed as an HBSJ of ``n/k^2`` objects.  Skewed data makes
this estimate wildly optimistic or pessimistic (Figure 2), which is exactly
what UpJoin and SrJoin fix.

The per-window logic is a request generator (:meth:`MobiJoin._window_steps`)
executed by the shared frontier engine (:mod:`repro.core.frontier`), which
batches the ``2 k^2`` repartitioning COUNTs of every window at a recursion
depth into one exchange per server and runs all operator leaves of the
level through the batch executors, bit-identical to the depth-first oracle
(``tests/oracles/recursive_driver.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional

from repro.core.frontier import FrontierAlgorithm, OperatorLeaf
from repro.core.stats import CountRequest
from repro.geometry.rect import Rect

__all__ = ["MobiJoin"]


@dataclass(frozen=True)
class _Task:
    """One window pending a strategy decision at some recursion depth."""

    window: Rect
    count_r: int
    count_s: int
    depth: int


class _Costs(NamedTuple):
    """MobiJoin's cost-table row: the four estimates and their argmin."""

    c1: float  # with the buffer cut
    c2: float
    c3: float
    c4: float  # INFEASIBLE where partitioning must stop
    choice: str


class MobiJoin(FrontierAlgorithm):
    """The partition-and-prune baseline algorithm."""

    name = "mobijoin"

    # ------------------------------------------------------------------ #

    def _root_task(self, window: Rect, count_r: int, count_s: int, depth: int) -> _Task:
        return _Task(window=window, count_r=count_r, count_s=count_s, depth=depth)

    def _cost_rows(self, windows, count_r, count_s, stop):
        breakdown = self.cost_model.breakdown(
            windows,
            count_r,
            count_s,
            buffer_size=self.buffer_size,
            k=self.params.grid_k,
            include_c4=~stop,
        )
        return map(
            _Costs._make,
            zip(
                breakdown.c1_hbsj.tolist(),
                breakdown.c2_nlsj_outer_r.tolist(),
                breakdown.c3_nlsj_outer_s.tolist(),
                breakdown.c4_repartition.tolist(),
                breakdown.cheapest(),
            ),
        )

    def _window_steps(self, task: _Task, rec, costs: Optional[_Costs]):
        window, depth = task.window, task.depth
        count_r, count_s = task.count_r, task.count_s

        if count_r == 0 or count_s == 0:
            self._prune_window(rec, count_r, count_s)
            return None

        choice = costs.choice
        rec(
            "plan",
            f"c1={costs.c1:.0f} c2={costs.c2:.0f} c3={costs.c3:.0f} c4~{costs.c4:.0f} "
            f"-> {choice}",
            count_r,
            count_s,
        )

        if choice == "c1":
            rec("HBSJ", "", count_r, count_s)
            return OperatorLeaf("hbsj", window, count_r, count_s)
        if choice in ("c2", "c3"):
            outer = "R" if choice == "c2" else "S"
            rec(
                "NLSJ",
                f"outer={outer}, bucket={self.params.bucket_queries}",
                count_r,
                count_s,
            )
            return OperatorLeaf("nlsj", window, count_r, count_s, outer=outer)

        # Strategy c4: divide the window into a regular ``k x k`` grid and
        # recurse.  Every cell costs two COUNT queries (one per server),
        # matching the ``2 k^2 * Taq`` term of Eq. 8; the frontier driver
        # merges the batches of all repartitioning windows of a depth into
        # one exchange per server.
        self.device.note_repartition()
        k = self.params.grid_k
        rec("repartition", f"{k}x{k} grid")
        cells = window.subdivide(k)
        counts_r, counts_s = yield [
            CountRequest("R", tuple(self.query_window("R", c) for c in cells)),
            CountRequest("S", tuple(self.query_window("S", c) for c in cells)),
        ]
        children: List[_Task] = [
            _Task(window=cell, count_r=sub_r, count_s=sub_s, depth=depth + 1)
            for cell, sub_r, sub_s in zip(cells, counts_r, counts_s)
        ]
        return children
