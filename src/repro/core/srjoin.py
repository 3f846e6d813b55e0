"""SrJoin -- the Similarity Related Join (Section 4.2, Figure 5).

UpJoin looks at each dataset's distribution in isolation; SrJoin compares
the *two* distributions.  When they are similar, repartitioning cannot
prune anything (Figure 4 of the paper), so the algorithm should stop
refining and run a physical operator; when they differ, refining is likely
to expose prunable empty regions, so the algorithm recurses aggressively.

For the current window SrJoin:

1. imposes a 2 x 2 grid and retrieves the quadrant counts of both datasets:
   four real COUNTs per dataset, R and S in one round (the paper derives
   the fourth, which only raw point quadrants allow -- see
   :meth:`~repro.core.frontier.CostedTable.quadrant_counts`), so every
   count a quadrant inherits is real and every zero is pruned at once;
2. builds a 4-bit *density bitmap* per dataset (Eq. 11): a quadrant's bit
   is set when its count exceeds ``rho`` times the window's average density
   times the quadrant area;
3. if the bitmaps are equal -- the distributions are deemed similar -- each
   non-empty quadrant is finished immediately with the cheaper of HBSJ and
   NLSJ (the cost model decides per quadrant);
4. if the bitmaps differ, a quadrant is still finished directly when it is
   too small to justify more statistics (its operator cost is below
   ``3 * Taq``); otherwise SrJoin recurses into it, charging only the
   aggregate queries -- the paper's "aggressive estimation for the cost of
   repartitioning".

The logic is written once, as column operations over the windows of a
recursion depth (:class:`SrJoinTable`), and executed by the shared frontier
engine (:mod:`repro.core.frontier`).  A window that decomposes spawns one
child row per quadrant, carrying the parent's bitmap verdict and the
quadrant's counts; the *child* then resolves its fate -- prune,
operator leaf, or recurse into its own statistics retrieval.  Keeping every
trace event with the window it is about is what makes the per-depth
decision log identical between the engine's level-order execution and the
depth-first oracle (``tests/oracles/recursive_driver.py`` over the
per-window generator in ``tests/oracles/frontier_generators.py``): both
visit the windows of a depth in the same lexicographic path order.
"""

from __future__ import annotations

import numpy as np

from repro.core.frontier import CostedTable, FrontierAlgorithm, Level
from repro.core.uniformity import bitmaps_equal, density_bitmap
from repro.geometry.rect import Rect

__all__ = ["SrJoin"]

#: ``level.flags[0]``: the bitmap verdict of the parent window.  A quadrant
#: of a *similar* parent is finished immediately, a quadrant of a
#: *different* parent may still recurse; the root has no parent and always
#: proceeds to its own statistics.
NO_PARENT, DIFFERENT, SIMILAR = -1, 0, 1


class SrJoinTable(CostedTable):
    """Figure 5 for every window of a level at once."""

    def start(self) -> None:
        level, algo = self.level, self.algo
        #: The windows that reached their statistics, and their bitmap verdicts.
        self._split = self._verdict = np.empty(0, dtype=np.intp)
        # Every count is a real COUNT: the root's, or a quadrant's.
        empty = (level.count_r <= 0) | (level.count_s <= 0)
        dead = np.flatnonzero(empty)
        self.prune(dead, level.count_r[dead], level.count_s[dead])
        idx = np.flatnonzero(~empty)
        if not idx.size:
            return
        self.cost(idx)
        # Lines 7-19: resolve the fate the parent's bitmap comparison implies
        # for each quadrant.  Lines 7-11: distributions match (or the
        # quadrant is too small for further refinement) -- finish it now.
        # Lines 13-19: distributions differ, but the quadrant is too small
        # for more statistics to pay off.
        verdict = level.flags[0][idx]
        taq3 = 3.0 * algo.cost_model.taq
        finish = (verdict != NO_PARENT) & (
            (verdict == SIMILAR)
            | self.stop[idx]
            | (self.c1[idx] < taq3)
            | (self.nlsj_cost[idx] < taq3)
            | ~self.worthwhile[idx]
        )
        done = idx[finish]
        # HBSJ repartitions recursively itself when the quadrant does not fit
        # the device buffer; c1 is evaluated without the hard buffer cut, so
        # the estimate stays finite.
        self.leaves(done, self.c1[done] <= self.nlsj_cost[done], True)
        # Repartition aggressively, hoping the next level prunes.
        recurse = idx[~finish & (verdict != NO_PARENT)]
        self.tally("repartitions", recurse)
        self.rec(recurse, "recurse", "bitmaps differ", counts=True)
        # Lines 1-2: quadrant statistics for both datasets (R counted on the
        # raw quadrants, S on their epsilon-expanded query windows).
        self.quadrant_counts((0, 1), idx[~finish], self._bitmaps)

    def _bitmaps(self, idx: np.ndarray) -> None:
        """Lines 3-5: the density bitmaps (Eq. 11) and their comparison."""
        cells = self.quad_windows()[idx]
        rho = self.algo.params.rho
        bits = [
            density_bitmap(self.windows[idx], cells, total[idx], self.quads[side][idx], rho)
            for side, total in enumerate((self.int_r, self.int_s))
        ]
        similar = bitmaps_equal(*bits)
        self.rec(
            idx,
            "bitmaps",
            "R={} S={} {}",
            (
                ["".join(row) for row in np.where(bits[0], "1", "0").tolist()],
                ["".join(row) for row in np.where(bits[1], "1", "0").tolist()],
                np.where(similar, "similar", "different"),
            ),
            counts=True,
        )
        self._split, self._verdict = idx, np.where(similar, SIMILAR, DIFFERENT)

    def finish(self) -> None:
        """One child per quadrant of every window that reached its statistics."""
        split = self._split
        self.child_level(
            split,
            self.quad_windows()[split],
            self.quads[0][split],
            self.quads[1][split],
            np.ones((split.size, 4), dtype=bool),
            self._verdict,
        )


class SrJoin(FrontierAlgorithm):
    """The similarity-driven distribution-aware join."""

    name = "srjoin"
    table = SrJoinTable

    def _root_task(self, window: Rect, count_r: int, count_s: int, depth: int) -> Level:
        return Level.root(window, count_r, count_s, depth, NO_PARENT)
