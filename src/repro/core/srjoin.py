"""SrJoin -- the Similarity Related Join (Section 4.2, Figure 5).

UpJoin looks at each dataset's distribution in isolation; SrJoin compares
the *two* distributions.  When they are similar, repartitioning cannot
prune anything (Figure 4 of the paper), so the algorithm should stop
refining and run a physical operator; when they differ, refining is likely
to expose prunable empty regions, so the algorithm recurses aggressively.

For the current window SrJoin:

1. imposes a 2 x 2 grid and retrieves the quadrant counts of both datasets;
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

The logic is written once, as a per-window request generator
(:meth:`SrJoin._window_steps`), and executed by the shared frontier engine
(:mod:`repro.core.frontier`).  A window that decomposes spawns one child
task per quadrant, carrying the parent's bitmap verdict and the quadrant's
(confirmed) counts; the *child* then resolves its fate -- prune, operator
leaf, or recurse into its own statistics retrieval.  Keeping every trace
event inside the run that owns its window is what makes the per-depth
decision log identical between the engine's level-order execution and the
depth-first oracle (``tests/oracles/recursive_driver.py``): both visit the
windows of a depth in the same lexicographic path order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.frontier import FrontierAlgorithm, OperatorLeaf, WindowCosts
from repro.core.stats import CountRequest, quadrant_count_steps
from repro.core.uniformity import bitmaps_equal, density_bitmap
from repro.geometry.rect import Rect

__all__ = ["SrJoin"]


@dataclass(frozen=True)
class _Task:
    """One window pending a decision at some recursion depth.

    ``parent_similar`` carries the bitmap verdict of the parent window
    (``None`` for the root, which always proceeds to its own statistics):
    a quadrant of a *similar* parent is finished immediately, a quadrant of
    a *different* parent may still recurse.  ``counts_exact`` tells whether
    the counts came from real COUNT queries (suspicious zeros are confirmed
    by the parent before the task is created, so pruning decisions are
    always based on exact values).
    """

    window: Rect
    count_r: float
    count_s: float
    counts_exact: bool
    parent_similar: Optional[bool]
    depth: int


class SrJoin(FrontierAlgorithm):
    """The similarity-driven distribution-aware join."""

    name = "srjoin"

    # ------------------------------------------------------------------ #

    def _root_task(self, window: Rect, count_r: int, count_s: int, depth: int) -> _Task:
        return _Task(
            window=window,
            count_r=count_r,
            count_s=count_s,
            counts_exact=True,
            parent_similar=None,
            depth=depth,
        )

    def _window_steps(self, task: _Task, rec, costs: Optional[WindowCosts]):
        window, depth = task.window, task.depth
        count_r, count_s = task.count_r, task.count_s

        if count_r <= 0 or count_s <= 0:
            # Zeros are exact here: the root counts come from real COUNTs
            # and suspicious quadrant zeros were confirmed by the parent.
            self._prune_window(rec, int(count_r), int(count_s))
            return None

        count_r, count_s = costs.count_r, costs.count_s
        if task.parent_similar is not None:
            # Lines 7-19: resolve the fate the parent's bitmap comparison
            # implies for this quadrant, from its row of the level cost table.
            c1, nlsj_outer, nlsj_cost = costs.c1, costs.nlsj_outer, costs.nlsj_cost

            if task.parent_similar or costs.stop:
                # Lines 7-11: distributions match (or the quadrant is too
                # small for further refinement) -- finish it now.
                return self._operator_leaf(
                    window, count_r, count_s, c1, nlsj_outer, nlsj_cost,
                    task.counts_exact, rec,
                )

            # Lines 13-19: distributions differ.
            if (
                c1 < 3.0 * self.cost_model.taq
                or nlsj_cost < 3.0 * self.cost_model.taq
                or not costs.worthwhile
            ):
                # The quadrant is too small for more statistics to pay off.
                return self._operator_leaf(
                    window, count_r, count_s, c1, nlsj_outer, nlsj_cost,
                    task.counts_exact, rec,
                )
            # Repartition aggressively, hoping the next level prunes.
            self.device.note_repartition()
            rec("recurse", "bitmaps differ", count_r, count_s)

        # Lines 1-2: quadrant statistics for both datasets (R counted on the
        # raw quadrants, S on their epsilon-expanded query windows).
        quad_r = yield from quadrant_count_steps(
            "R", window, count_r, derive_fourth=True, margin=0.0
        )
        quad_s = yield from quadrant_count_steps(
            "S",
            window,
            count_s,
            derive_fourth=True,
            margin=self.predicate.window_margin,
        )
        quadrants = self.quadrants_of(window)

        # Lines 3-5: density bitmaps (Eq. 11).
        bits_r = density_bitmap(window, quadrants, count_r, quad_r.counts, self.params.rho)
        bits_s = density_bitmap(window, quadrants, count_s, quad_s.counts, self.params.rho)
        similar = bitmaps_equal(bits_r, bits_s)
        rec(
            "bitmaps",
            f"R={''.join('1' if b else '0' for b in bits_r)} "
            f"S={''.join('1' if b else '0' for b in bits_s)} "
            f"{'similar' if similar else 'different'}",
            count_r,
            count_s,
        )

        # Lines 8 / 14 preparation: estimated zeros must be confirmed with a
        # real COUNT before pruning (extended objects can hide behind a
        # derived-count underestimate).  All suspicious quadrants are
        # confirmed in one batch per server -- the same queries the per-cell
        # loop used to issue one at a time.
        suspicious = [
            i
            for i in range(len(quadrants))
            if (quad_r.count(i) <= 0 or quad_s.count(i) <= 0)
            and not (quad_r.is_exact(i) and quad_s.is_exact(i))
        ]
        confirmed = {}
        if suspicious:
            cells = [quadrants[i] for i in suspicious]
            real_r, real_s = yield [
                CountRequest("R", tuple(self.query_window("R", c) for c in cells)),
                CountRequest("S", tuple(self.query_window("S", c) for c in cells)),
            ]
            confirmed = dict(zip(suspicious, zip(real_r, real_s)))

        children = []
        for i, cell in enumerate(quadrants):
            cell_r = quad_r.count(i)
            cell_s = quad_s.count(i)
            exact = quad_r.is_exact(i) and quad_s.is_exact(i)
            if i in confirmed:
                real_r_i, real_s_i = confirmed[i]
                cell_r, cell_s, exact = float(real_r_i), float(real_s_i), True
            children.append(
                _Task(
                    window=cell,
                    count_r=cell_r,
                    count_s=cell_s,
                    counts_exact=exact,
                    parent_similar=similar,
                    depth=depth + 1,
                )
            )
        return children

    # ------------------------------------------------------------------ #

    def _operator_leaf(
        self,
        cell: Rect,
        count_r: int,
        count_s: int,
        c1: float,
        nlsj_outer: str,
        nlsj_cost: float,
        counts_exact: bool,
        rec,
    ) -> OperatorLeaf:
        """Finish a quadrant with the cheaper physical operator (lines 9-11/16-18)."""
        if c1 <= nlsj_cost:
            # HBSJ; the operator itself repartitions recursively when the
            # quadrant does not fit the device buffer.  c1 is evaluated
            # without the hard buffer cut, so the estimate stays finite.
            rec("HBSJ", "", count_r, count_s)
            return OperatorLeaf("hbsj", cell, count_r, count_s, counts_exact=counts_exact)
        rec(
            "NLSJ",
            f"outer={nlsj_outer}, bucket={self.params.bucket_queries}",
            count_r,
            count_s,
        )
        return OperatorLeaf("nlsj", cell, count_r, count_s, outer=nlsj_outer)
