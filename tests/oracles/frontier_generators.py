"""The per-window decision generators ``core/{upjoin,mobijoin,srjoin}.py`` ran until PR 22.

Oracle of the level tables (:class:`repro.core.frontier.LevelTable` and its
three subclasses).  Until PR 22 every frontier window was decided by its own
Python generator: ``_window_steps(task, rec, costs)`` yielded batches of
:class:`CountRequest` and returned ``None`` (pruned), an
:class:`OperatorLeaf` or a list of child tasks, reading its row of the level
cost table (:func:`level_costs`) and, for quadrant statistics,
:func:`quadrant_count_steps` -- the code of ``core/stats.py``, which lives
here now.  The bodies below are those generators, moved behaviour-intact;
only their homes changed (methods of :class:`GeneratorUpJoin` /
:class:`GeneratorMobiJoin` / :class:`GeneratorSrJoin`, which subclass the
shipped algorithms for the *containers and endpoints* they share -- device,
cost model, parameters, ``query_window``, ``_probe_uv`` -- record with
:class:`~tests.oracles.eager_trace.EagerTrace` and override everything the
shipped table decides).  One rule was changed on purpose, in both: quadrant
statistics are four real COUNTs per dataset, none derived as Section 4.1
does (ARCHITECTURE.md, "Quadrant statistics: four real COUNTs"), so UpJoin
prunes every zero at once and SrJoin asks R's and S's quadrants in one step.

Two drivers run them: :func:`level_rounds` advances the windows of one level
in lock-step rounds, as ``FrontierAlgorithm._level_rounds`` did (round ``k``
carries each still-undecided window's ``k``-th request, rows per server in
window order) -- ``tests/test_level_table.py`` compares its step sequence,
outcomes, counters and trace rows with the shipped table's; the depth-first
driver (:mod:`tests.oracles.recursive_driver`) runs them one window at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.mobijoin import MobiJoin
from repro.core.srjoin import SrJoin
from repro.core.uniformity import worth_retrieving_statistics
from repro.core.upjoin import UpJoin
from repro.device.steps import COUNT, Request
from repro.geometry import rect_array
from repro.geometry.rect import Rect

from tests.oracles.eager_trace import EagerTrace

__all__ = [
    "CountRequest",
    "GENERATORS",
    "GeneratorMobiJoin",
    "GeneratorSrJoin",
    "GeneratorUpJoin",
    "OperatorLeaf",
    "QuadrantCounts",
    "WindowCosts",
    "bitmaps_equal",
    "confirms_uniformity",
    "density_bitmap",
    "estimate_quadrant_counts",
    "is_uniform",
    "level_rounds",
    "quadrant_count_steps",
]


# ---------------------------------------------------------------------- #
# core/uniformity.py: Eqs. 9 and 11 as they were, one window at a time
# (Eq. 10, ``worth_retrieving_statistics``, was array-valued already and is
# pinned by ``tests/oracles/costmodel_scalar.py``'s packet model)
# ---------------------------------------------------------------------- #


def is_uniform(total_count: int, quadrant_counts: Sequence[float], alpha: float) -> bool:
    """Eq. 9: uniformity test over the quadrant counts of a window.

    ``| |Dw|/4 - |Dw'_i| | < alpha * |Dw|`` must hold for every quadrant.
    An empty window is trivially uniform.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if len(quadrant_counts) != 4:
        raise ValueError("exactly four quadrant counts are required")
    if total_count == 0:
        return True
    expected = total_count / 4.0
    threshold = alpha * total_count
    return all(abs(expected - c) < threshold for c in quadrant_counts)


def confirms_uniformity(
    total_count: int, probe_count: float, alpha: float
) -> bool:
    """The extra random-window check of UpJoin (Section 4.1, line 6).

    The probe window has the area of one quadrant but a random location;
    its count must satisfy the same Eq. 9 bound as the quadrants.
    """
    if total_count == 0:
        return True
    expected = total_count / 4.0
    return abs(expected - probe_count) < alpha * total_count


def density_bitmap(
    window: Rect,
    quadrants: Sequence[Rect],
    total_count: int,
    quadrant_counts: Sequence[float],
    rho: float,
) -> Tuple[bool, bool, bool, bool]:
    """Eq. 11: the 4-bit density signature used by SrJoin.

    Quadrant ``i`` is dense when

        ``|Dw_i| > rho * (|Dw| / |Aw|) * |Aw_i|``

    where ``|Aw|`` is the window area and ``|Aw_i|`` the quadrant area.
    ``rho`` is expressed as a fraction of the average density (the paper's
    best value is 30%, i.e. ``rho = 0.3``).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if len(quadrants) != 4 or len(quadrant_counts) != 4:
        raise ValueError("exactly four quadrants and counts are required")
    area = window.area
    if area <= 0 or total_count == 0:
        return (False, False, False, False)
    avg_density = total_count / area
    bits = tuple(
        count > rho * avg_density * quadrant.area
        for quadrant, count in zip(quadrants, quadrant_counts)
    )
    return bits  # type: ignore[return-value]


def bitmaps_equal(
    bits_r: Sequence[bool], bits_s: Sequence[bool]
) -> bool:
    """True when the two density bitmaps agree on every quadrant."""
    if len(bits_r) != len(bits_s):
        raise ValueError("bitmaps must have the same length")
    return all(a == b for a, b in zip(bits_r, bits_s))


# ---------------------------------------------------------------------- #
# core/stats.py
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class CountRequest:
    """One batch of COUNT queries a planning step wants answered.

    ``rects`` are *raw* query windows (all margins already applied).
    """

    server: str
    rects: Tuple[Rect, ...]


#: The protocol spoken by planning-step generators: yield a list of
#: :class:`CountRequest` and receive one list of counts per request.
CountSteps = Generator[List[CountRequest], List[List[int]], "QuadrantCounts"]


@dataclass(frozen=True)
class QuadrantCounts:
    """Counts of one dataset over the four quadrants of a window."""

    window: Rect
    quadrants: Tuple[Rect, Rect, Rect, Rect]
    counts: Tuple[float, float, float, float]
    #: Whether each count came from a real COUNT query (False = estimated
    #: from a uniformity assumption).
    exact: Tuple[bool, bool, bool, bool]
    #: Number of COUNT queries actually issued to obtain these statistics.
    queries_issued: int

    def count(self, i: int) -> float:
        return self.counts[i]

    def is_exact(self, i: int) -> bool:
        return self.exact[i]

    def total(self) -> float:
        return float(sum(self.counts))


def quadrant_count_steps(server_name: str, window: Rect, margin: float = 0.0) -> CountSteps:
    """Retrieve the quadrant counts of ``window`` for one server: four real
    COUNTs, one request.

    A request generator: yields one :class:`CountRequest` batch and
    receives the counts; returns the assembled :class:`QuadrantCounts`.
    ``margin`` is the per-side expansion applied to each quadrant before
    counting (the predicate's window margin for S), keeping the statistics
    consistent with the windows the physical operators download.
    """
    quadrants = tuple(window.quadrants())
    probes = tuple(q.expanded(margin) if margin > 0 else q for q in quadrants)
    counts = (yield [CountRequest(server_name, probes)])[0]
    return QuadrantCounts(
        window=window,
        quadrants=quadrants,  # type: ignore[arg-type]
        counts=tuple(float(c) for c in counts),  # type: ignore[arg-type]
        exact=(True, True, True, True),
        queries_issued=len(probes),
    )


def estimate_quadrant_counts(window: Rect, parent_count: float) -> QuadrantCounts:
    """Quadrant counts under the uniformity assumption (no queries issued).

    Used when a dataset has already been characterised as uniform at an
    earlier recursion step: the paper's UpJoin "estimates the number of
    objects in the quadrants, based on |Dw| and the uniformity assumption".

    ``parent_count`` may be fractional (itself an estimate from an earlier
    level); the four quarters always sum to *exactly* the parent total
    (division by four is exact in binary floating point), so repeated
    estimation down a recursion path conserves mass instead of drifting by
    up to +-1 object per level through premature integer rounding.
    """
    quadrants = tuple(window.quadrants())
    quarter = parent_count / 4.0
    return QuadrantCounts(
        window=window,
        quadrants=quadrants,  # type: ignore[arg-type]
        counts=(quarter, quarter, quarter, quarter),
        exact=(False, False, False, False),
        queries_issued=0,
    )


# ---------------------------------------------------------------------- #
# core/frontier.py: outcomes, the level cost table, the lock-step rounds
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class OperatorLeaf:
    """A window the planner finished with a physical operator.

    ``counts_exact=False`` means the counts are estimates and must not be
    forwarded to the operator, which will issue its own COUNT queries --
    the paper's "issue additional aggregate queries only when accuracy is
    crucial, i.e. when applying the physical operators".
    """

    op: str  # "hbsj" | "nlsj"
    window: Rect
    count_r: int
    count_s: int
    counts_exact: bool = True
    outer: str = "S"


class WindowCosts(NamedTuple):
    """One window's row of the level cost table (UpJoin / SrJoin columns)."""

    #: The task's counts rounded to integers, as every estimate uses them.
    count_r: int
    count_s: int
    #: :meth:`~repro.core.base.MobileJoinAlgorithm.should_stop_partitioning`.
    stop: bool
    #: Eq. 2 without the buffer cut.
    c1: float
    #: The cheaper NLSJ orientation: ``"R"`` with ``c2``, or ``"S"`` with
    #: ``c3`` (which also wins ties).
    nlsj_outer: str
    nlsj_cost: float
    #: :meth:`~repro.core.base.MobileJoinAlgorithm.refinement_worthwhile`.
    worthwhile: bool


@dataclass
class _Run:
    """Execution state of one window's step generator."""

    task: object
    gen: Generator
    events: List = field(default_factory=list)
    pending: Optional[List[CountRequest]] = None
    outcome: Optional[object] = None


class _GeneratorEngine(EagerTrace):
    """What ``FrontierAlgorithm`` provided its per-window generators with."""

    def fits_in_buffer(self, count_r: int, count_s: int) -> bool:
        """True when HBSJ on these counts respects the device buffer."""
        return count_r + count_s <= self.buffer_size

    def note_repartition(self) -> None:
        """Record on the device that a window is repartitioned."""
        self.device.counts.repartitions += 1

    def _root_task(self, window: Rect, count_r: int, count_s: int, depth: int):
        """Build the root task for the joined window (counts already known)."""
        raise NotImplementedError

    def _window_steps(self, task, rec, costs):
        """The per-window decision generator.

        Yields lists of :class:`CountRequest` (raw query windows, margins
        pre-applied) and receives one list of counts per request; returns
        ``None``, an :class:`OperatorLeaf`, or a list of child tasks.
        ``rec(action, detail, count_r, count_s, depth=..., window=...)``
        appends a trace event, defaulting to the task's own depth and
        window.  ``costs`` is the task's row of :meth:`_level_costs`
        (``None`` when a count is not positive).
        """
        raise NotImplementedError

    def _cost_rows(
        self, windows: np.ndarray, count_r: np.ndarray, count_s: np.ndarray, stop: np.ndarray
    ) -> Iterable:
        """The cost-table rows of ``N`` windows, one per window, in order.

        ``windows`` is ``(N, 4)``, the counts are rounded ``int64`` columns
        and ``stop`` is the :meth:`should_stop_partitioning` mask.  This
        default computes the :class:`WindowCosts` columns; an algorithm that
        reads other columns overrides it.
        """
        model = self.cost_model
        areas = rect_array.areas(windows)
        c1 = model.c1(areas, count_r, count_s)
        c2 = model.c2(areas, count_r, count_s)
        c3 = model.c3(areas, count_r, count_s)
        outer_s = c3 <= c2
        return map(
            WindowCosts._make,
            zip(
                count_r.tolist(),
                count_s.tolist(),
                stop.tolist(),
                c1.tolist(),
                np.where(outer_s, "S", "R").tolist(),
                np.where(outer_s, c3, c2).tolist(),
                self.refinement_worthwhile(c1).tolist(),
            ),
        )

    # ------------------------------------------------------------------ #
    # the level cost table
    # ------------------------------------------------------------------ #

    def _level_costs(self, tasks: Sequence) -> List:
        """Cost every task of a level in one call: row ``i`` is for ``tasks[i]``.

        The one place the frontier algorithms evaluate the cost model.  A
        task with a non-positive count is pruned or re-counted before it is
        costed, so its row is ``None``; the rest are costed together from
        their windows, rounded counts and depths.  The rows hold Python
        numbers (``.tolist()``), so trace details format as they always did.
        """
        rows: List = [None] * len(tasks)
        live = [i for i, task in enumerate(tasks) if task.count_r > 0 and task.count_s > 0]
        if live:
            costed = [tasks[i] for i in live]
            windows = np.array([task.window.as_tuple() for task in costed], dtype=np.float64)
            stop = self.should_stop_partitioning(windows, [task.depth for task in costed])
            count_r = np.rint([task.count_r for task in costed]).astype(np.int64)
            count_s = np.rint([task.count_s for task in costed]).astype(np.int64)
            for i, row in zip(live, self._cost_rows(windows, count_r, count_s, stop)):
                rows[i] = row
        return rows

    def _prune_window(self, rec, count_r: int, count_s: int) -> None:
        """Record a pruned window (one side empty) inside a step generator.

        The counter update and the trace wording must stay in lock-step
        across every algorithm's generator -- the depth-first equivalence
        suite and the golden-trace fixtures compare both.
        """
        self.device.counts.windows_pruned += 1
        rec("prune", "empty side", count_r, count_s)

    def _task_recorder(self, task, sink: Optional[List] = None):
        """A trace recorder bound to one task (and optionally a sink).

        The engine buffers each window's events in a run-owned sink and
        splices them into the trace in window order, so the per-depth
        decision log is identical to a depth-first execution even though
        queries are batched across windows.
        """

        def rec(action, detail="", count_r=None, count_s=None, depth=None, window=None):
            self.record(
                task.depth if depth is None else depth,
                task.window if window is None else window,
                action,
                detail,
                count_r,
                count_s,
                sink=sink,
            )

        return rec

    def quadrants_of(self, window: Rect) -> List[Rect]:
        """The 2 x 2 decomposition used by every repartitioning step."""
        return window.quadrants()


def _start_run(algo, task, costs) -> _Run:
    run = _Run(task=task, gen=None)  # type: ignore[arg-type]
    run.gen = algo._window_steps(task, algo._task_recorder(task, sink=run.events), costs)
    _advance_run(run, None)
    return run


def _advance_run(run: _Run, response) -> None:
    try:
        run.pending = run.gen.send(response)
    except StopIteration as stop:
        run.pending = None
        run.outcome = stop.value


def count_round(algo, step) -> Generator:
    """Offer one COUNT round of one query, as ``MobileJoinAlgorithm.count_round``
    did until every run became a group: its windows counted on the device,
    the round spanned until the answers arrive."""
    span = algo._open_round(
        sum(len(request.args[0]) for request in step), [request.side for request in step]
    )
    try:
        return (yield step)
    finally:
        if span is not None:
            span.close(sim=algo.device.sim_now())


def level_rounds(algo, tasks: Sequence) -> Generator:
    """Decide the tasks of one level in lock-step rounds; returns the runs.

    ``FrontierAlgorithm._frontier_levels`` up to the leaves: each round
    gathers the pending COUNT requests of all still-active windows into one
    COUNT request per server -- the same queries, in task order, that a
    depth-first execution issues one window at a time -- and offers them as
    one step through :func:`count_round`.  A run's ``outcome`` is ``None``,
    an :class:`OperatorLeaf` or its child tasks; its ``events`` are the
    window's trace rows.
    """
    runs = [_start_run(algo, task, costs) for task, costs in zip(tasks, algo._level_costs(tasks))]
    pending = [run for run in runs if run.pending is not None]
    while pending:
        batches: Dict[str, List[Rect]] = {}
        for run in pending:
            for req in run.pending:
                batches.setdefault(req.server, []).extend(req.rects)
        counts = yield from count_round(
            algo, [Request(COUNT, server, (rects,)) for server, rects in batches.items()]
        )
        answers = dict(zip(batches, counts))
        cursors = {server: 0 for server in batches}
        still_pending: List[_Run] = []
        for run in pending:
            response: List[List[int]] = []
            for req in run.pending:
                start = cursors[req.server]
                cursors[req.server] = start + len(req.rects)
                response.append(answers[req.server][start : start + len(req.rects)])
            _advance_run(run, response)
            if run.pending is not None:
                still_pending.append(run)
        pending = still_pending
    return runs


# ---------------------------------------------------------------------- #
# core/upjoin.py
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class _SideState:
    """Per-dataset knowledge about the current window."""

    count: float
    count_exact: bool
    uniform: bool
    quadrants: Optional[QuadrantCounts]


@dataclass(frozen=True)
class UpJoinTask:
    """One window pending a planning decision at some recursion depth."""

    window: Rect
    count_r: float
    count_s: float
    counts_exact: bool
    known_uniform_r: bool
    known_uniform_s: bool
    depth: int


class UpJoinCosts(NamedTuple):
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


class GeneratorUpJoin(_GeneratorEngine, UpJoin):
    """UpJoin, one generator per window."""

    # ------------------------------------------------------------------ #

    def _root_task(self, window: Rect, count_r: int, count_s: int, depth: int) -> UpJoinTask:
        return UpJoinTask(
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
        return [UpJoinCosts(*row, *stats) for row, *stats in zip(shared, stats_r, stats_s)]

    def _window_steps(self, task: UpJoinTask, rec, costs: Optional[UpJoinCosts]):
        window, depth = task.window, task.depth
        count_r, count_s = task.count_r, task.count_s
        counts_exact = task.counts_exact

        # Line 1: prune windows where at least one dataset is empty.  A zero
        # is a real COUNT: the only estimates are quarters of a positive
        # parent.
        if count_r <= 0 or count_s <= 0:
            self._prune_window(rec, int(count_r), int(count_s))
            return None

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
    ) -> List[UpJoinTask]:
        """Lines 11/14: decompose into the four quadrants.

        Quadrant counts retrieved (or estimated) during characterisation are
        reused; a dataset that was never decomposed (small or previously
        uniform) contributes estimated quarter counts, which conserve the
        parent total exactly.
        """
        self.note_repartition()
        rec("repartition", "2x2 grid")
        quad_r = state_r.quadrants or estimate_quadrant_counts(window, state_r.count)
        quad_s = state_s.quadrants or estimate_quadrant_counts(window, state_s.count)
        return [
            UpJoinTask(
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


# ---------------------------------------------------------------------- #
# core/mobijoin.py
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class MobiJoinTask:
    """One window pending a strategy decision at some recursion depth."""

    window: Rect
    count_r: int
    count_s: int
    depth: int


class MobiJoinCosts(NamedTuple):
    """MobiJoin's cost-table row: the four estimates and their argmin."""

    c1: float  # with the buffer cut
    c2: float
    c3: float
    c4: float  # INFEASIBLE where partitioning must stop
    choice: str


class GeneratorMobiJoin(_GeneratorEngine, MobiJoin):
    """MobiJoin, one generator per window."""

    # ------------------------------------------------------------------ #

    def _root_task(self, window: Rect, count_r: int, count_s: int, depth: int) -> MobiJoinTask:
        return MobiJoinTask(window=window, count_r=count_r, count_s=count_s, depth=depth)

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
            MobiJoinCosts._make,
            zip(
                breakdown.c1_hbsj.tolist(),
                breakdown.c2_nlsj_outer_r.tolist(),
                breakdown.c3_nlsj_outer_s.tolist(),
                breakdown.c4_repartition.tolist(),
                breakdown.cheapest(),
            ),
        )

    def _window_steps(self, task: MobiJoinTask, rec, costs: Optional[MobiJoinCosts]):
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
        self.note_repartition()
        k = self.params.grid_k
        rec("repartition", f"{k}x{k} grid")
        cells = window.subdivide(k)
        counts_r, counts_s = yield [
            CountRequest("R", tuple(self.query_window("R", c) for c in cells)),
            CountRequest("S", tuple(self.query_window("S", c) for c in cells)),
        ]
        children: List[MobiJoinTask] = [
            MobiJoinTask(window=cell, count_r=sub_r, count_s=sub_s, depth=depth + 1)
            for cell, sub_r, sub_s in zip(cells, counts_r, counts_s)
        ]
        return children


# ---------------------------------------------------------------------- #
# core/srjoin.py
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class SrJoinTask:
    """One window pending a decision at some recursion depth.

    ``parent_similar`` carries the bitmap verdict of the parent window
    (``None`` for the root, which always proceeds to its own statistics):
    a quadrant of a *similar* parent is finished immediately, a quadrant of
    a *different* parent may still recurse.  Every count is a real COUNT
    (the root's, or one of the parent's four quadrant COUNTs).
    """

    window: Rect
    count_r: float
    count_s: float
    parent_similar: Optional[bool]
    depth: int


class GeneratorSrJoin(_GeneratorEngine, SrJoin):
    """SrJoin, one generator per window."""

    # ------------------------------------------------------------------ #

    def _root_task(self, window: Rect, count_r: int, count_s: int, depth: int) -> SrJoinTask:
        return SrJoinTask(
            window=window,
            count_r=count_r,
            count_s=count_s,
            parent_similar=None,
            depth=depth,
        )

    def _window_steps(self, task: SrJoinTask, rec, costs: Optional[WindowCosts]):
        window, depth = task.window, task.depth
        count_r, count_s = task.count_r, task.count_s

        if count_r <= 0 or count_s <= 0:
            # Every count is a real COUNT: the root's, or a quadrant's.
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
                    window, count_r, count_s, c1, nlsj_outer, nlsj_cost, rec
                )

            # Lines 13-19: distributions differ.
            if (
                c1 < 3.0 * self.cost_model.taq
                or nlsj_cost < 3.0 * self.cost_model.taq
                or not costs.worthwhile
            ):
                # The quadrant is too small for more statistics to pay off.
                return self._operator_leaf(
                    window, count_r, count_s, c1, nlsj_outer, nlsj_cost, rec
                )
            # Repartition aggressively, hoping the next level prunes.
            self.note_repartition()
            rec("recurse", "bitmaps differ", count_r, count_s)

        # Lines 1-2: quadrant statistics for both datasets (R counted on the
        # raw quadrants, S on their epsilon-expanded query windows), four
        # real COUNTs each, R and S in one step.
        quadrants = self.quadrants_of(window)
        real_r, real_s = yield [
            CountRequest(side, tuple(self.query_window(side, cell) for cell in quadrants))
            for side in ("R", "S")
        ]
        quad_r = [float(count) for count in real_r]
        quad_s = [float(count) for count in real_s]

        # Lines 3-5: density bitmaps (Eq. 11).
        bits_r = density_bitmap(window, quadrants, count_r, quad_r, self.params.rho)
        bits_s = density_bitmap(window, quadrants, count_s, quad_s, self.params.rho)
        similar = bitmaps_equal(bits_r, bits_s)
        rec(
            "bitmaps",
            f"R={''.join('1' if b else '0' for b in bits_r)} "
            f"S={''.join('1' if b else '0' for b in bits_s)} "
            f"{'similar' if similar else 'different'}",
            count_r,
            count_s,
        )
        return [
            SrJoinTask(
                window=cell,
                count_r=quad_r[i],
                count_s=quad_s[i],
                parent_similar=similar,
                depth=depth + 1,
            )
            for i, cell in enumerate(quadrants)
        ]

    # ------------------------------------------------------------------ #

    def _operator_leaf(
        self,
        cell: Rect,
        count_r: int,
        count_s: int,
        c1: float,
        nlsj_outer: str,
        nlsj_cost: float,
        rec,
    ) -> OperatorLeaf:
        """Finish a quadrant with the cheaper physical operator (lines 9-11/16-18)."""
        if c1 <= nlsj_cost:
            # HBSJ; the operator itself repartitions recursively when the
            # quadrant does not fit the device buffer.  c1 is evaluated
            # without the hard buffer cut, so the estimate stays finite.
            rec("HBSJ", "", count_r, count_s)
            return OperatorLeaf("hbsj", cell, count_r, count_s)
        rec(
            "NLSJ",
            f"outer={nlsj_outer}, bucket={self.params.bucket_queries}",
            count_r,
            count_s,
        )
        return OperatorLeaf("nlsj", cell, count_r, count_s, outer=nlsj_outer)


#: Shipped algorithm class -> its per-window-generator twin.
GENERATORS = {UpJoin: GeneratorUpJoin, MobiJoin: GeneratorMobiJoin, SrJoin: GeneratorSrJoin}
