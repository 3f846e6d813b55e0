"""UpJoin -- the Uniform Partition Join (Section 4.1, Figure 3).

UpJoin's insight: the cost model is only trustworthy on windows where the
data is (roughly) *uniformly* distributed.  The algorithm therefore
estimates the distribution of each dataset inside the current window before
committing to a physical operator:

1. prune when either side is empty;
2. for each dataset that is "large" (Eq. 10) and not already known to be
   uniform, impose a 2 x 2 grid, retrieve the quadrant counts (three COUNT
   queries, the fourth derived) and test Eq. 9; a positive test is
   confirmed with one extra COUNT over a randomly placed quadrant-sized
   window;
3. compute ``c1`` (HBSJ) and the cheaper NLSJ orientation;
4. if HBSJ is cheapest: run it only when *both* datasets are uniform and
   the windows fit the buffer, otherwise repartition;
5. if NLSJ is cheapest: run it only when the *inner* (larger) dataset is
   uniform -- a skewed inner side may still hide prunable empty regions --
   otherwise repartition.

Uniformity knowledge is inherited down the recursion: once a dataset is
declared uniform its sub-window counts are estimated (not queried), and
exact counts are fetched again only when a physical operator is about to
run.

Execution
---------

The decision logic above is written once, as a per-window *request
generator* (:meth:`UpJoin._window_steps`), and executed level by level by
the shared frontier engine (:mod:`repro.core.frontier`).  The depth-first
oracle (``tests/oracles/recursive_driver.py``) drives the same generator
one window at a time to bit-identical pairs, bytes and per-depth traces
(the randomized property suite in ``tests/test_frontier_equivalence.py``
pins this).  The location of the uniformity-confirmation probe is derived
deterministically from ``(seed, depth, side, window)`` rather than from a
shared sequential stream, which makes the draw independent of traversal
order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.frontier import FrontierAlgorithm, OperatorLeaf
from repro.core.stats import (
    CountRequest,
    QuadrantCounts,
    estimate_quadrant_counts,
    quadrant_count_steps,
)
from repro.core.uniformity import (
    confirms_uniformity,
    is_uniform,
    worth_retrieving_statistics,
)
from repro.geometry.rect import Rect

__all__ = ["UpJoin"]


@dataclass(frozen=True)
class _SideState:
    """Per-dataset knowledge about the current window."""

    count: float
    count_exact: bool
    uniform: bool
    quadrants: Optional[QuadrantCounts]


@dataclass(frozen=True)
class _Task:
    """One window pending a planning decision at some recursion depth."""

    window: Rect
    count_r: float
    count_s: float
    counts_exact: bool
    known_uniform_r: bool
    known_uniform_s: bool
    depth: int


class _Costs(NamedTuple):
    """UpJoin's cost-table row: the engine's
    :class:`~repro.core.frontier.WindowCosts` columns plus Eq. 10 per dataset."""

    count_r: int
    count_s: int
    stop: bool
    c1: float
    nlsj_outer: str
    nlsj_cost: float
    worthwhile: bool
    #: :func:`worth_retrieving_statistics` of each rounded count.
    stats_r: bool
    stats_s: bool


class UpJoin(FrontierAlgorithm):
    """The distribution-aware Uniform Partition Join."""

    name = "upjoin"

    # ------------------------------------------------------------------ #

    def _root_task(self, window: Rect, count_r: int, count_s: int, depth: int) -> _Task:
        return _Task(
            window=window,
            count_r=float(count_r),
            count_s=float(count_s),
            counts_exact=True,
            known_uniform_r=False,
            known_uniform_s=False,
            depth=depth,
        )

    # ------------------------------------------------------------------ #
    # per-window decision logic (lines 1-14 of Figure 3).  Yields
    # CountRequest batches; returns the outcome.
    # ------------------------------------------------------------------ #

    def _cost_rows(self, windows, count_r, count_s, stop):
        stats_r = worth_retrieving_statistics(count_r, self.cost_model).tolist()
        stats_s = worth_retrieving_statistics(count_s, self.cost_model).tolist()
        shared = super()._cost_rows(windows, count_r, count_s, stop)
        return [_Costs(*row, *stats) for row, *stats in zip(shared, stats_r, stats_s)]

    def _window_steps(self, task: _Task, rec, costs: Optional[_Costs]):
        window, depth = task.window, task.depth
        count_r, count_s = task.count_r, task.count_s
        counts_exact = task.counts_exact

        # Line 1: prune windows where at least one dataset is empty.  An
        # estimated (inexact) zero is confirmed before pruning, so extended
        # objects can never be lost to the count-derivation shortcut.
        if count_r <= 0 or count_s <= 0:
            if counts_exact:
                self._prune_window(rec, int(count_r), int(count_s))
                return None
            exact_r = (yield [CountRequest("R", (self.query_window("R", window),))])[0][0]
            exact_s = (yield [CountRequest("S", (self.query_window("S", window),))])[0][0]
            if exact_r == 0 or exact_s == 0:
                self._prune_window(rec, exact_r, exact_s)
                return None
            count_r, count_s, counts_exact = float(exact_r), float(exact_s), True
            # The one decision input not known when the level started: cost
            # the confirmed counts as a level of one.
            costs = self._level_costs([replace(task, count_r=count_r, count_s=count_s)])[0]

        # Line 8's strategy costs, read from the level cost table.  c4 is
        # never estimated -- the decision to repartition is driven by the
        # distribution, not by Eq. 8.  Unlike MobiJoin, c1 is evaluated
        # without the hard buffer cut: the memory feasibility check happens
        # at line 10 and an oversized-but-cheap HBSJ window is repartitioned
        # (line 11), not pushed to NLSJ.
        int_r, int_s = costs.count_r, costs.count_s
        c1, nlsj_outer, nlsj_cost = costs.c1, costs.nlsj_outer, costs.nlsj_cost

        # Economics gate (Eq. 10 lifted to the window level): when the whole
        # window is cheaper to ship than the statistics another refinement
        # level would cost, or the window is already at the epsilon scale
        # (or the depth limit), splitting cannot expose prunable space:
        # finish it with the cheapest operator without asking for more
        # statistics at all.
        if costs.stop or not costs.worthwhile:
            rec("finish-small", f"c1={c1:.0f}", int_r, int_s)
            return self._cheapest_leaf(
                window, int_r, int_s, c1, nlsj_outer, nlsj_cost, counts_exact, rec
            )

        # Lines 2-7: characterise the distribution of each dataset.
        state_r = yield from self._characterise_steps(
            window, "R", count_r, int_r, costs.stats_r, task.known_uniform_r, depth, rec
        )
        state_s = yield from self._characterise_steps(
            window, "S", count_s, int_s, costs.stats_s, task.known_uniform_s, depth, rec
        )
        rec(
            "plan",
            f"c1={c1:.0f} nlsj[{nlsj_outer}]={nlsj_cost:.0f} "
            f"uniformR={state_r.uniform} uniformS={state_s.uniform}",
            int_r,
            int_s,
        )

        # Lines 9-11: HBSJ branch.
        if c1 <= nlsj_cost:
            if state_r.uniform and state_s.uniform and self.fits_in_buffer(int_r, int_s):
                rec("HBSJ", "", int_r, int_s)
                return OperatorLeaf(
                    "hbsj", window, int_r, int_s,
                    counts_exact=counts_exact
                    and state_r.count_exact
                    and state_s.count_exact,
                )
            return self._split_outcome(window, state_r, state_s, depth, rec)

        # Lines 12-14: NLSJ branch.  The inner relation is the one being
        # probed (the opposite of the outer download side); per the paper it
        # is the *larger* dataset that must be uniform for NLSJ to be safe.
        inner_uniform = state_r.uniform if nlsj_outer == "S" else state_s.uniform
        if inner_uniform:
            rec(
                "NLSJ",
                f"outer={nlsj_outer}, bucket={self.params.bucket_queries}",
                int_r,
                int_s,
            )
            return OperatorLeaf("nlsj", window, int_r, int_s, outer=nlsj_outer)
        return self._split_outcome(window, state_r, state_s, depth, rec)

    # ------------------------------------------------------------------ #
    # distribution characterisation (lines 2-7 of Figure 3)
    # ------------------------------------------------------------------ #

    def _characterise_steps(
        self,
        window: Rect,
        server_name: str,
        count: float,
        int_count: int,
        worth_statistics: bool,
        known_uniform: bool,
        depth: int,
        rec,
    ):
        if known_uniform:
            # Already characterised at an earlier step: estimate, don't query.
            return _SideState(
                count=count,
                count_exact=False,
                uniform=True,
                quadrants=estimate_quadrant_counts(window, count),
            )
        if not worth_statistics:
            # Line 7: too small to justify statistics; assume uniform.
            rec("assume-uniform", f"{server_name} small ({int_count})")
            return _SideState(
                count=count,
                count_exact=True,
                uniform=True,
                quadrants=None,
            )
        # Lines 4-5: impose the grid and retrieve quadrant counts (R is
        # counted on the raw quadrants, S on their epsilon-expanded query
        # windows, consistently with the physical operators).
        quadrants = yield from quadrant_count_steps(
            server_name,
            window,
            int_count,
            derive_fourth=True,
            margin=self.predicate.window_margin if server_name.upper() == "S" else 0.0,
        )
        uniform = is_uniform(int_count, quadrants.counts, self.params.alpha)
        if uniform:
            # Line 6: confirm with one randomly located quadrant-sized COUNT.
            u, v = self._probe_uv(window, depth, server_name)
            probe = window.sample_subwindow(0.5, 0.5, u, v)
            probe_count = (
                yield [CountRequest(server_name, (self.query_window(server_name, probe),))]
            )[0][0]
            uniform = confirms_uniformity(int_count, probe_count, self.params.alpha)
            rec(
                "confirm-uniform",
                f"{server_name}: probe={probe_count} -> {'uniform' if uniform else 'skewed'}",
            )
        else:
            rec("skewed", server_name)
        return _SideState(
            count=count,
            count_exact=True,
            uniform=uniform,
            quadrants=quadrants,
        )

    def _probe_uv(self, window: Rect, depth: int, server_name: str) -> Tuple[float, float]:
        """Placement of the confirmation window, derived per (window, side).

        The draw must not depend on traversal order -- the frontier engine
        and the depth-first oracle visit windows in different global orders
        -- so instead of consuming a shared sequential stream, each probe
        gets its own deterministic stream keyed on the algorithm seed, the
        recursion depth, the side and the window coordinates.
        """
        # Little-endian canonical byte view: the derived stream (and with it
        # the frozen golden traces/figures) must not depend on host
        # endianness.
        coords = np.asarray(window.as_tuple(), dtype="<f8")
        entropy = [
            int(self.params.seed) & 0xFFFFFFFF,
            depth & 0xFFFFFFFF,
            0 if server_name.upper() == "R" else 1,
        ]
        entropy.extend(int(w) for w in np.frombuffer(coords.tobytes(), dtype="<u4"))
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        u, v = rng.uniform(0.0, 1.0, size=2)
        return float(u), float(v)

    # ------------------------------------------------------------------ #
    # terminal outcomes
    # ------------------------------------------------------------------ #

    def _cheapest_leaf(
        self,
        window: Rect,
        count_r: int,
        count_s: int,
        c1: float,
        nlsj_outer: str,
        nlsj_cost: float,
        counts_exact: bool,
        rec,
    ) -> OperatorLeaf:
        if c1 <= nlsj_cost and self.fits_in_buffer(count_r, count_s):
            rec("HBSJ", "", count_r, count_s)
            return OperatorLeaf("hbsj", window, count_r, count_s, counts_exact=counts_exact)
        rec(
            "NLSJ",
            f"outer={nlsj_outer}, bucket={self.params.bucket_queries}",
            count_r,
            count_s,
        )
        return OperatorLeaf("nlsj", window, count_r, count_s, outer=nlsj_outer)

    def _split_outcome(
        self, window: Rect, state_r: _SideState, state_s: _SideState, depth: int, rec
    ) -> List[_Task]:
        """Lines 11/14: decompose into the four quadrants.

        Quadrant counts retrieved (or estimated) during characterisation are
        reused; a dataset that was never decomposed (small or previously
        uniform) contributes estimated quarter counts, which conserve the
        parent total exactly.
        """
        self.device.note_repartition()
        rec("repartition", "2x2 grid")
        quad_r = state_r.quadrants or estimate_quadrant_counts(window, state_r.count)
        quad_s = state_s.quadrants or estimate_quadrant_counts(window, state_s.count)
        return [
            _Task(
                window=cell,
                count_r=quad_r.count(i),
                count_s=quad_s.count(i),
                counts_exact=quad_r.is_exact(i) and quad_s.is_exact(i),
                known_uniform_r=state_r.uniform,
                known_uniform_s=state_s.uniform,
                depth=depth + 1,
            )
            for i, cell in enumerate(self.quadrants_of(window))
        ]
