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

The rule is written as column operations over the windows of a recursion
depth (:class:`MobiJoinTable`) and executed by the shared frontier engine
(:mod:`repro.core.frontier`): the ``2 k^2`` repartitioning COUNTs of every
window at a depth travel as one request per server, and all operator
leaves of the level run through the batch executors -- bit-identical to
the per-window generator it replaced
(``tests/oracles/frontier_generators.py``) under the depth-first driver
(``tests/oracles/recursive_driver.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.costmodel import STRATEGIES
from repro.core.frontier import FrontierAlgorithm, LevelTable
from repro.geometry import rect_array

__all__ = ["MobiJoin"]


class MobiJoinTable(LevelTable):
    """The four estimates and their argmin for every window of a level."""

    def start(self) -> None:
        algo, k = self.algo, self.algo.params.grid_k
        idx = self.prune_empty()
        if not idx.size:
            return
        windows = self.windows[idx]
        costs = algo.cost_model.breakdown(
            windows,
            self.int_r[idx],
            self.int_s[idx],
            buffer_size=algo.buffer_size,
            k=k,
            # INFEASIBLE where partitioning must stop.
            include_c4=~algo.should_stop_partitioning(windows, self.level.depth),
        )
        choice = costs.cheapest_index()
        self.rec(
            idx,
            "plan",
            "c1={:.0f} c2={:.0f} c3={:.0f} c4~{:.0f} -> {}",
            (*costs.as_dict().values(), np.array(STRATEGIES)[choice]),
            counts=True,
        )
        self.outer_s[idx] = choice == 2
        leaf = choice < 3
        self.leaves(idx[leaf], choice[leaf] == 0, True)

        # Strategy c4: divide the window into a regular ``k x k`` grid and
        # recurse.  Every cell costs two COUNT queries (one per server),
        # matching the ``2 k^2 * Taq`` term of Eq. 8; the windows of a depth
        # share one request per server.
        split = idx[~leaf]
        self.tally("repartitions", split)
        self.rec(split, "repartition", f"{k}x{k} grid")
        cells = rect_array.subdivide_window(self.windows[split], k).reshape(-1, 4)
        self.ask(
            split,
            lambda split, count_r, count_s: self.child_level(
                split,
                cells,
                count_r.reshape(-1, k * k),
                count_s.reshape(-1, k * k),
                np.ones(cells.shape[0], dtype=bool),
            ),
            k * k,
            R=cells,
            S=cells,
        )


class MobiJoin(FrontierAlgorithm):
    """The partition-and-prune baseline algorithm."""

    name = "mobijoin"
    table = MobiJoinTable
