"""The shared frontier execution engine for the adaptive join algorithms.

Every partition-based algorithm in this reproduction (MobiJoin, UpJoin,
SrJoin) is a recursion over windows: inspect a window with COUNT queries,
then either prune it, finish it with a physical operator, or decompose it
and recurse.  The paper's recursion constrains *which* windows are queried
and what bytes cross the wire -- not the order in which exchanges are
flushed -- so sibling windows at one recursion depth can legally share one
batched round trip.

This module factors that insight out of ``core/upjoin.py`` (where PR 3
proved it) into the one engine that runs them:

* The algorithm writes its per-window decision logic once, as a *request
  generator* (:meth:`FrontierAlgorithm._window_steps`): it yields batches
  of :class:`~repro.core.stats.CountRequest` and returns a terminal
  outcome -- ``None`` (pruned), an :class:`OperatorLeaf`, or a list of
  child tasks.  A window's fate is always resolved by the run that owns
  it (SrJoin's quadrants, for example, become child tasks carrying the
  parent's bitmap verdict and only *then* turn into leaves), which is
  what keeps the per-depth decision log independent of visiting order.
* The engine drives all windows of one recursion depth in lock-step
  rounds: the pending COUNT requests of a round are concatenated into one
  batched exchange per server (answered by the server's flattened
  aggregate-tree snapshot in a single vectorised descent), and the
  physical-operator leaves of the level run through the device's batch
  operators (:meth:`~repro.device.pda.MobileDevice.hbsj_steps` /
  :meth:`~repro.device.pda.MobileDevice.nlsj_steps`), which concatenate
  window retrievals, probes and in-memory join kernels across leaves.
* The engine itself is a step generator (:mod:`repro.device.steps`): every
  COUNT round and every operator exchange is *yielded*, never performed.
  :meth:`~repro.core.base.MobileJoinAlgorithm.run` answers the steps
  through the query's own connections; the query broker answers the steps
  of all in-flight queries together, one descent per backing build and
  query kind.

The depth-first oracle (``tests/oracles/recursive_driver.py``) drives the
same generators one window at a time over the scalar operators; both issue
the same queries with the same payloads and record the same per-depth
trace, so pairs, byte totals, server statistics and decision logs are
bit-identical (pinned by ``tests/test_frontier_equivalence.py`` and the
frozen logs in ``tests/test_golden_traces.py``).  Tasks are
algorithm-specific; the engine only requires them to expose ``window``,
``depth``, ``count_r`` and ``count_s`` attributes (trace bookkeeping and
the level cost table).

Level cost table.  Everything a window's decision reads from the cost model
is a function of its task alone -- the window, the (rounded) counts and the
depth, all known when the level starts -- so the engine costs a whole level
in one array-valued call (:meth:`FrontierAlgorithm._level_costs`) and hands
each window's generator its row; no generator calls the cost model itself.
See ARCHITECTURE.md, "Frontier execution".

Sharded data plane (PR 8).  The engine addresses servers by their *logical*
side names (``"R"``/``"S"``): a round's batch for one side may physically
scatter across a fleet of shard servers when the connection behind that
name is a :class:`~repro.server.remote.ShardedRemoteServer`.  The scatter,
the per-shard metering and the deterministic merge all live in the
connection layer; the engine's rounds, decision traces and therefore its
pair sets are bit-identical whichever data plane answers them (COUNT sums
over disjoint shards equal the union server's counts exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Iterable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.base import MobileJoinAlgorithm
from repro.core.stats import CountRequest
from repro.device.hbsj import HBSJRequest
from repro.device.nlsj import NLSJRequest
from repro.device.steps import COUNT, Request, Steps
from repro.geometry import rect_array
from repro.geometry.rect import Rect

__all__ = ["FrontierAlgorithm", "OperatorLeaf", "WindowCosts"]


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


class FrontierAlgorithm(MobileJoinAlgorithm):
    """Base class of algorithms driven by the frontier engine.

    Subclasses implement :meth:`_root_task` and :meth:`_window_steps`; the
    engine executes them level by level.
    """

    # ------------------------------------------------------------------ #
    # to be provided by each algorithm
    # ------------------------------------------------------------------ #

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
        c1 = model.c1(areas, count_r, count_s, enforce_buffer=False)
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

    # ------------------------------------------------------------------ #
    # entry point shared by every frontier algorithm
    # ------------------------------------------------------------------ #

    def _steps(self, window: Rect, count_r: int, count_s: int, depth: int) -> Steps:
        return self._frontier_levels([self._root_task(window, count_r, count_s, depth)])

    #: ``benchmarks/e2e/layers.py`` (frozen) times the cooperative run of the
    #: engine algorithms under this class's name.
    run_cooperative = MobileJoinAlgorithm.run_cooperative

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

    # ------------------------------------------------------------------ #
    # level-order driver
    # ------------------------------------------------------------------ #

    def _frontier_levels(self, level: List) -> Steps:
        """The level-order execution as a step generator.

        Per level: the lock-step COUNT rounds of its windows, then the
        steps of the batch operators that finish its leaves.  Everything
        else -- decisions, in-memory joins, the trace spliced in window
        order -- happens inside the generator between steps.
        """
        while level:
            runs = [
                self._start_run(task, costs)
                for task, costs in zip(level, self._level_costs(level))
            ]
            yield from self._level_rounds(runs)
            leaves: List[OperatorLeaf] = []
            next_level: List = []
            for run in runs:
                if isinstance(run.outcome, OperatorLeaf):
                    leaves.append(run.outcome)
                elif run.outcome is not None:
                    next_level.extend(run.outcome)
            yield from self._run_leaves_batched(leaves)
            if self.params.trace:
                for run in runs:
                    self._trace.extend(run.events)
            level = next_level

    def _start_run(self, task, costs) -> _Run:
        run = _Run(task=task, gen=None)  # type: ignore[arg-type]
        run.gen = self._window_steps(
            task, self._task_recorder(task, sink=run.events), costs
        )
        self._advance_run(run, None)
        return run

    @staticmethod
    def _advance_run(run: _Run, response) -> None:
        try:
            run.pending = run.gen.send(response)
        except StopIteration as stop:
            run.pending = None
            run.outcome = stop.value

    def _level_rounds(self, runs: List[_Run]) -> Steps:
        """Advance every window of the level in lock-step rounds.

        Each round gathers the pending COUNT requests of all still-active
        windows into one COUNT request per server -- the same queries, in
        task order, that a depth-first execution issues one window at a
        time -- and offers them as one step
        (:meth:`~repro.core.base.MobileJoinAlgorithm.count_round`).
        """
        pending = [run for run in runs if run.pending is not None]
        while pending:
            batches: Dict[str, List[Rect]] = {}
            for run in pending:
                for req in run.pending:
                    batches.setdefault(req.server, []).extend(req.rects)
            counts = yield from self.count_round(
                [Request(COUNT, server, (rects,)) for server, rects in batches.items()]
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
                self._advance_run(run, response)
                if run.pending is not None:
                    still_pending.append(run)
            pending = still_pending

    def _run_leaves_batched(self, leaves: Sequence[OperatorLeaf]) -> Steps:
        """Execute the level's physical-operator leaves through the batch
        operators: one batched download / probe / kernel pipeline per
        operator kind instead of one device call per window."""
        hbsj_leaves = [leaf for leaf in leaves if leaf.op == "hbsj"]
        nlsj_leaves = [leaf for leaf in leaves if leaf.op == "nlsj"]
        span = self._obs_span
        leaves_span = None
        if span is not None and leaves:
            leaves_span = span.child(
                "leaves",
                sim=self.device.sim_now(),
                batch=self._obs_leaf_batch,
                hbsj=len(hbsj_leaves),
                nlsj=len(nlsj_leaves),
            )
            self._obs_leaf_batch += 1
        if hbsj_leaves:
            requests = [
                HBSJRequest(
                    window=leaf.window,
                    count_r=leaf.count_r if leaf.counts_exact else None,
                    count_s=leaf.count_s if leaf.counts_exact else None,
                )
                for leaf in hbsj_leaves
            ]
            for result in (yield from self.device.hbsj_steps(requests, self.predicate)):
                self._pairs.update(result.pairs)
        if nlsj_leaves:
            requests = [
                NLSJRequest(window=leaf.window, outer=leaf.outer)
                for leaf in nlsj_leaves
            ]
            results = yield from self.device.nlsj_steps(
                requests, self.predicate, bucket=self.params.bucket_queries
            )
            for result in results:
                self._pairs.update(result.pairs)
        if leaves_span is not None:
            leaves_span.close(sim=self.device.sim_now())
