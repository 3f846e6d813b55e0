"""UpJoin -- the Uniform Partition Join (Section 4.1, Figure 3).

UpJoin's insight: the cost model is only trustworthy on windows where the
data is (roughly) *uniformly* distributed.  The algorithm therefore
estimates the distribution of each dataset inside the current window before
committing to a physical operator:

1. prune when either side is empty;
2. for each dataset that is "large" (Eq. 10) and not already known to be
   uniform, impose a 2 x 2 grid, retrieve the quadrant counts (four COUNT
   queries: the paper derives the fourth, which only raw point quadrants
   allow -- see :meth:`~repro.core.frontier.CostedTable.quadrant_counts`)
   and test Eq. 9; a positive test is confirmed with one extra COUNT over a
   randomly placed quadrant-sized window;
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

The decision logic above is written once, as column operations over the
windows of a recursion depth (:class:`UpJoinTable`), and executed level by
level by the shared frontier engine (:mod:`repro.core.frontier`).  A
window's requests form a fixed sequence it walks as far as its answers send
it -- four quadrant COUNTs on R, the confirmation probe if Eq. 9 holds; the
same on S -- and round ``k`` of a level carries every window's ``k``-th
request.  The per-window generator this replaced
(``tests/oracles/frontier_generators.py``) and the depth-first driver
(``tests/oracles/recursive_driver.py``) reproduce pairs, bytes and per-depth
traces bit for bit (``tests/test_level_table.py``,
``tests/test_frontier_equivalence.py``).  The location of the
uniformity-confirmation probe is derived deterministically from ``(seed,
depth, side, window)`` rather than from a shared sequential stream, which
makes the draw independent of traversal order.
"""

from __future__ import annotations

from functools import partial
from typing import Tuple

import numpy as np

from repro.core.frontier import SIDES, CostedTable, FrontierAlgorithm, Level
from repro.core.uniformity import (
    confirms_uniformity,
    is_uniform,
    worth_retrieving_statistics,
)
from repro.geometry import rect_array
from repro.geometry.rect import Rect

__all__ = ["UpJoin"]


class UpJoinTable(CostedTable):
    """Lines 1-14 of Figure 3 for every window of a level at once.

    ``level.flags`` are the datasets already known uniform (R, S): such a
    dataset's count is an estimate, and so are its quadrant counts.
    """

    def start(self) -> None:
        level, n = self.level, len(self.level)
        #: Per dataset: the verdict so far, and whether quadrant counts were retrieved.
        self.uniform = [level.flags[0].copy(), level.flags[1].copy()]
        self.have_quads = np.zeros((2, n), dtype=bool)
        #: Eq. 10 per dataset.
        self.stats = np.zeros((2, n), dtype=bool)
        self._split = []

        # Line 1: prune windows where at least one dataset is empty.  A zero
        # is a real COUNT: the only estimates are quarters of a positive
        # parent.
        empty = (level.count_r <= 0) | (level.count_s <= 0)
        dead = np.flatnonzero(empty)
        self.prune(dead, level.count_r[dead], level.count_s[dead])
        self._costed(np.flatnonzero(~empty))

    def _costed(self, idx: np.ndarray) -> None:
        """Line 8's strategy costs, then the economics gate.

        c4 is never estimated -- the decision to repartition is driven by
        the distribution, not by Eq. 8.  Unlike MobiJoin, c1 is evaluated
        without the hard buffer cut: the memory feasibility check happens at
        line 10 and an oversized-but-cheap HBSJ window is repartitioned
        (line 11), not pushed to NLSJ.
        """
        if not idx.size:
            return
        self.cost(idx)
        model = self.algo.cost_model
        self.stats[0, idx] = worth_retrieving_statistics(self.int_r[idx], model)
        self.stats[1, idx] = worth_retrieving_statistics(self.int_s[idx], model)
        # Economics gate (Eq. 10 lifted to the window level): when the whole
        # window is cheaper to ship than the statistics another refinement
        # level would cost, or the window is already at the epsilon scale
        # (or the depth limit), splitting cannot expose prunable space:
        # finish it with the cheapest operator without asking for more
        # statistics at all.
        small = self.stop[idx] | ~self.worthwhile[idx]
        done = idx[small]
        self.rec(done, "finish-small", "c1={:.0f}", (self.c1[done],), counts=True)
        fits = self.int_r[done] + self.int_s[done] <= self.algo.buffer_size
        self.leaves(done, (self.c1[done] <= self.nlsj_cost[done]) & fits, self.level.exact[done])
        self._characterise(0, idx[~small])

    # ------------------------------------------------------------------ #
    # distribution characterisation (lines 2-7 of Figure 3)
    # ------------------------------------------------------------------ #

    def _characterise(self, side: int, idx: np.ndarray) -> None:
        if not idx.size:
            return
        # Already characterised at an earlier step: estimate, don't query.
        known = self.uniform[side][idx]
        worth = self.stats[side, idx]
        # Line 7: too small to justify statistics; assume uniform.
        small = idx[~known & ~worth]
        self.uniform[side][small] = True
        total = (self.int_r, self.int_s)[side]
        self.rec(small, "assume-uniform", SIDES[side] + " small ({})", (total[small],))
        # Lines 4-5: impose the grid and retrieve quadrant counts (R is
        # counted on the raw quadrants, S on their epsilon-expanded query
        # windows, consistently with the physical operators).
        asked = idx[~known & worth]
        self.have_quads[side, asked] = True
        self.quadrant_counts((side,), asked, partial(self._test_uniform, side))
        self._characterised(side, idx[known | ~worth])

    def _test_uniform(self, side: int, idx: np.ndarray) -> None:
        """Eq. 9 over the four quadrant counts; line 6 confirms a positive
        test with one randomly located quadrant-sized COUNT."""
        if not idx.size:
            return
        total, alpha = (self.int_r, self.int_s)[side], self.algo.params.alpha
        uniform = is_uniform(total[idx], self.quads[side][idx], alpha)
        self.uniform[side][idx] = uniform
        skewed = idx[~uniform]
        self.rec(skewed, "skewed", SIDES[side])
        self._characterised(side, skewed)
        idx = idx[uniform]
        if idx.size:
            name, algo, depth = SIDES[side], self.algo, self.level.depth
            probes = rect_array.rects_to_array(
                [
                    window.sample_subwindow(0.5, 0.5, *algo._probe_uv(window, depth, name))
                    for window in self.rects(idx)
                ]
            )
            self.ask(idx, partial(self._probed, side), 1, **{name: probes})

    def _probed(self, side: int, idx: np.ndarray, probe: np.ndarray) -> None:
        total = (self.int_r, self.int_s)[side][idx]
        uniform = confirms_uniformity(total, probe, self.algo.params.alpha)
        self.uniform[side][idx] = uniform
        self.rec(
            idx,
            "confirm-uniform",
            SIDES[side] + ": probe={} -> {}",
            (probe, np.where(uniform, "uniform", "skewed")),
        )
        self._characterised(side, idx)

    def _characterised(self, side: int, idx: np.ndarray) -> None:
        if side == 0:
            self._characterise(1, idx)
        elif idx.size:
            self._decide(idx)

    # ------------------------------------------------------------------ #
    # lines 9-14
    # ------------------------------------------------------------------ #

    def _decide(self, idx: np.ndarray) -> None:
        uniform_r, uniform_s = self.uniform[0][idx], self.uniform[1][idx]
        outer_s = self.outer_s[idx]
        self.rec(
            idx,
            "plan",
            "c1={:.0f} nlsj[{}]={:.0f} uniformR={} uniformS={}",
            (self.c1[idx], np.where(outer_s, "S", "R"), self.nlsj_cost[idx], uniform_r, uniform_s),
            counts=True,
        )
        # Lines 9-11: HBSJ is cheapest -- run it only when both datasets are
        # uniform and the windows fit the buffer.
        cheaper_hbsj = self.c1[idx] <= self.nlsj_cost[idx]
        fits = self.int_r[idx] + self.int_s[idx] <= self.algo.buffer_size
        hbsj = cheaper_hbsj & uniform_r & uniform_s & fits
        # Lines 12-14: NLSJ is cheapest.  The inner relation is the one being
        # probed (the opposite of the outer download side); per the paper it
        # is the *larger* dataset that must be uniform for NLSJ to be safe.
        nlsj = ~cheaper_hbsj & np.where(outer_s, uniform_r, uniform_s)
        leaf = hbsj | nlsj
        # A dataset's count is exact unless it arrived known uniform.
        exact, flags = self.level.exact, self.level.flags
        self.leaves(
            idx[leaf], hbsj[leaf], (exact[idx] & ~flags[0][idx] & ~flags[1][idx])[leaf]
        )
        # Lines 11/14: decompose into the four quadrants.
        split = idx[~leaf]
        self.tally("repartitions", split)
        self.rec(split, "repartition", "2x2 grid")
        self._split.append(split)

    def finish(self) -> None:
        """The quadrants of every repartitioned window, in window order.

        Quadrant counts retrieved during characterisation are reused; a
        dataset that was never decomposed (small or previously uniform)
        contributes estimated quarter counts, which conserve the parent
        total exactly (division by four is exact in binary floating point,
        so repeated estimation down a recursion path conserves mass).
        """
        split = np.sort(np.concatenate([np.empty(0, dtype=np.intp), *self._split]))
        if not split.size:
            return
        have = self.have_quads[:, split, None]
        counts = [
            np.where(have[side], self.quads[side][split], (count[split] / 4.0)[:, None])
            for side, count in enumerate((self.level.count_r, self.level.count_s))
        ]
        self.child_level(
            split,
            self.quad_windows()[split],
            *counts,
            np.repeat(have[0] & have[1], 4, axis=1),
            self.uniform[0][split],
            self.uniform[1][split],
        )


class UpJoin(FrontierAlgorithm):
    """The distribution-aware Uniform Partition Join."""

    name = "upjoin"
    table = UpJoinTable

    def _root_task(self, window: Rect, count_r: int, count_s: int, depth: int) -> Level:
        return Level.root(window, count_r, count_s, depth, False, False)

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
