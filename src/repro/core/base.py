"""Shared machinery of the mobile join algorithms.

:class:`MobileJoinAlgorithm` factors out everything MobiJoin, UpJoin and
SrJoin have in common: the device/servers handles, the cost model, pair
collection, tracing, recursion-depth safety valves, and the final assembly
of a :class:`~repro.core.result.JoinResult` from the measured channels.

Subclasses implement :meth:`_steps` (the planning logic, as a step
generator -- see :mod:`repro.device.steps`) and use the provided
``hbsj_steps`` / ``count_round`` / ``prune`` helpers, which keep the
bookkeeping consistent across algorithms.  :meth:`run_cooperative` is the
generator; :meth:`run` drives it as a wave of one
(:func:`~repro.device.steps.run_steps`), the query broker together with the
steps of other queries -- the same gather / evaluate / book loop either way.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.costmodel import CostModel
from repro.core.join_types import JoinSpec
from repro.core.result import JoinResult, Trace, TraceEvent, TraceRows
from repro.device.hbsj import HBSJRequest
from repro.device.pda import MobileDevice
from repro.device.steps import COUNT, Request, Step, Steps, run_steps
from repro.errors import InvalidInput, RoundRetry, require_count
from repro.geometry.predicates import JoinPredicate
from repro.geometry.rect import Rect
from repro.index.pairs import PairBlocks, PairSet

__all__ = ["MobileJoinAlgorithm", "AlgorithmParameters"]

#: Hard recursion limit shared by every algorithm; beyond it the current
#: window is finished with a physical operator regardless of the heuristics.
#: (The data space halves per level, so 32 levels is far deeper than any
#: realistic workload needs; the limit only guards pathological inputs.)
MAX_DEPTH = 32


@dataclass(frozen=True)
class AlgorithmParameters:
    """Tunables shared by the algorithms (each uses the subset it needs)."""

    #: Eq. 9 uniformity tolerance (UpJoin); the paper settles on 0.25.
    alpha: float = 0.25
    #: Eq. 11 density threshold as a fraction of the average density
    #: (SrJoin); the paper settles on 0.30.
    rho: float = 0.30
    #: Grid fan-out per repartitioning step; the paper fixes k = 2.
    grid_k: int = 2
    #: Use bucket epsilon-RANGE queries when running NLSJ.
    bucket_queries: bool = False
    #: Record every decision in :attr:`JoinResult.trace`.  Rows stay columns
    #: until read: 1-2% of a warm 20k x 20k UpJoin / MobiJoin (~2,500 rows,
    #: 2-core box); iterating the trace builds its events.
    trace: bool = True
    #: Seed for the algorithm's own randomness (UpJoin's confirmation window).
    seed: int = 0

    def __post_init__(self) -> None:
        # ``nan`` fails the first comparison, ``inf`` the finiteness test.
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidInput("alpha must lie in (0, 1]")
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise InvalidInput("rho must be positive")
        require_count(self.grid_k, "grid_k", minimum=2)


class MobileJoinAlgorithm(ABC):
    """Base class of the client-side join algorithms.

    Parameters
    ----------
    device:
        The mobile device (buffer + metered server connections).
    spec:
        The join query.
    params:
        Algorithm tunables.
    """

    #: Short name used in results and reports; subclasses override.
    name: str = "abstract"

    def __init__(
        self,
        device: MobileDevice,
        spec: JoinSpec,
        params: Optional[AlgorithmParameters] = None,
    ) -> None:
        self.device = device
        self.spec = spec
        self.params = params or AlgorithmParameters()
        self.predicate: JoinPredicate = spec.predicate()
        self.cost_model = CostModel(
            device.config,
            epsilon=self.predicate.probe_radius(),
            bucket_queries=self.params.bucket_queries,
        )
        #: Every pair block the operators reported, duplicates and all;
        #: :meth:`_assemble` deduplicates once.
        self._pairs = PairBlocks()
        #: The trace in parts: eager events and frontier level tables.
        self._trace: List[Sequence[TraceEvent]] = []
        self._rng = np.random.default_rng(self.params.seed)
        # Observability state: the run's "join" span (None while the
        # device's tracer is the no-op default) plus deterministic sibling
        # counters for round / leaf-batch spans.
        self._obs_span = None
        self._obs_round = 0
        self._obs_leaf_batch = 0

    # ------------------------------------------------------------------ #
    # public entry point
    # ------------------------------------------------------------------ #

    def run(self, window: Rect) -> JoinResult:
        """Execute the join over ``window`` and assemble the result:
        :meth:`run_cooperative` driven as a wave of one."""
        return run_steps(self.run_cooperative(window), self.device.servers)

    def _obs_open(self, window: Rect):
        """Open the run's "join" span (None when the tracer is off).

        Also points the resilience controller's event hook at the new span
        so retries/faults/failovers land on the owning query's subtree.
        """
        self._obs_span = None
        self._obs_round = 0
        self._obs_leaf_batch = 0
        device = self.device
        tracer = device.tracer
        if not tracer.enabled:
            return None
        span = tracer.span(
            "join",
            parent=device.trace_root,
            sim=device.sim_now(),
            algorithm=self.name,
            window=repr(window),
        )
        self._obs_span = span
        res = device.resilience
        if res is not None:
            res.trace_span = span
        return span

    def run_cooperative(self, window: Rect) -> Steps:
        """Generator form of :meth:`run` for an external driver (the query broker).

        Yields every server evaluation of the run as a step
        (:mod:`repro.device.steps`) -- the root COUNTs, the planning rounds,
        the operators' downloads and probes -- and returns the
        :class:`~repro.core.result.JoinResult` via ``StopIteration``.  A
        driver evaluates a step's rows alone (:meth:`run`) or with other
        queries' (the query broker) but books them on this query's own
        connections in step order (:func:`~repro.device.steps.book_step`),
        which keeps pairs, bytes, statistics, fault streams and decision
        traces bit-identical whoever drives it.

        This is also the one re-offer point: a driver that hits a
        transient failure while evaluating a step can
        ``throw(RoundRetry)`` into the generator, which then offers the
        *identical* step again instead of unwinding (and destroying the
        query's execution state).  Answering a step is idempotent -- its
        requests are a pure function of the execution state, which the
        retry does not touch.
        """
        steps = self._cooperative_steps(window)
        try:
            step = next(steps)
            while True:
                try:
                    answers = yield step
                except RoundRetry:
                    continue
                step = steps.send(answers)
        except StopIteration as stop:
            return stop.value
        finally:
            steps.close()

    def _cooperative_steps(self, window: Rect) -> Steps:
        self._pairs.clear()
        self._trace.clear()
        span = self._obs_open(window)
        try:
            count_r, count_s = yield from self.count_round(
                [
                    Request(COUNT, "R", ([self.query_window("R", window)],)),
                    Request(COUNT, "S", ([self.query_window("S", window)],)),
                ]
            )
            count_r, count_s = int(count_r[0]), int(count_s[0])
            self.record(0, window, "start", f"{self.name}", count_r, count_s)
            yield from self._steps(window, count_r, count_s, depth=0)
            return self._assemble(window)
        finally:
            if span is not None:
                span.close(sim=self.device.sim_now())

    # ------------------------------------------------------------------ #
    # to be provided by each algorithm
    # ------------------------------------------------------------------ #

    @abstractmethod
    def _steps(self, window: Rect, count_r: int, count_s: int, depth: int) -> Steps:
        """Plan and execute the join of one window (counts already known),
        offering every server evaluation as a step."""

    # ------------------------------------------------------------------ #
    # helpers shared by the algorithms
    # ------------------------------------------------------------------ #

    @property
    def buffer_size(self) -> int:
        return self.device.buffer.capacity

    def fits_in_buffer(self, count_r: int, count_s: int) -> bool:
        """True when HBSJ on these counts respects the device buffer."""
        return count_r + count_s <= self.buffer_size

    def query_window(self, server_name: str, window: Rect) -> Rect:
        """The window actually sent to one server for a cell.

        The reproduction anchors pairs at the R object: R is always queried
        with the unexpanded cell while S is queried with the cell expanded
        by the predicate margin (``epsilon`` for distance joins), so that
        pairs straddling a cell boundary are neither lost by pruning nor
        missed by downloads (Section 3 of the paper extends cells before
        sending them as window queries).
        """
        margin = self.predicate.window_margin
        if server_name.upper() == "S" and margin > 0:
            return window.expanded(margin)
        return window

    def count_round(self, step: Step) -> Steps:
        """Offer one planning round of COUNT requests; returns its answers.

        Every planning COUNT of the algorithms is offered here, on query
        windows with the margins of :meth:`query_window` applied -- so
        COUNTs are consistent with the windows the physical operators later
        download.  Books the windows on the device's COUNT counter and,
        while tracing, wraps the round in a "round" span that opens before
        the step is offered and closes when the answers arrive -- any
        :class:`RoundRetry` replay included -- under the simulated clock.  Sibling rounds are told apart by a per-run
        counter, keeping span ids deterministic under any wave width.
        """
        windows = sum(len(request.args[0]) for request in step)
        self.device.counts.count_queries += windows
        span = self._obs_span
        if span is None:
            return (yield step)
        round_span = span.child(
            "round",
            sim=self.device.sim_now(),
            round=self._obs_round,
            servers=",".join(sorted(request.side for request in step)),
            windows=windows,
        )
        self._obs_round += 1
        try:
            return (yield step)
        finally:
            round_span.close(sim=self.device.sim_now())

    def should_stop_partitioning(self, windows: np.ndarray, depths) -> np.ndarray:
        """Mask of the ``(N, 4)`` windows whose repartitioning cannot pay off.

        Splitting stops at :data:`MAX_DEPTH`, and -- for distance joins --
        once a cell's children would be smaller than twice the S-side
        expansion: at that scale every child's expanded S window covers
        nearly the same region as the parent's, so the extra aggregate
        queries can no longer expose prunable empty space.
        """
        stop = np.asarray(depths) >= MAX_DEPTH
        margin = self.predicate.window_margin
        if margin > 0:
            extent = np.minimum(
                windows[:, 2] - windows[:, 0], windows[:, 3] - windows[:, 1]
            )
            stop = stop | (extent / 2.0 <= 2.0 * margin)
        return stop

    def refinement_worthwhile(self, data_cost):
        """True where refining a window can possibly repay its statistics.

        ``data_cost`` is the window's ``c1`` without the buffer cut (a number
        or an ``(N,)`` column).  One more refinement level costs ``2 k^2``
        aggregate queries before a single byte of data is saved (Eq. 8's
        fixed term).  When the whole window can be shipped for less than
        twice that amount, asking for more statistics can never win -- the
        same economics as Eq. 10, lifted from a single dataset to the
        repartitioning decision.  UpJoin and SrJoin consult this before
        recursing; MobiJoin's own cost model already embodies the trade-off
        through ``c4``.
        """
        stats_cost = 2.0 * (self.params.grid_k ** 2) * self.cost_model.taq
        return data_cost > 2.0 * stats_cost

    def prune(self, window: Rect, depth: int, count_r: int, count_s: int) -> None:
        """Record that a window produced no work (one side empty)."""
        self.device.counts.windows_pruned += 1
        self.record(depth, window, "prune", "empty side", count_r, count_s)

    def hbsj_steps(
        self,
        window: Rect,
        depth: int,
        count_r: Optional[int] = None,
        count_s: Optional[int] = None,
        counts_exact: bool = True,
    ) -> Steps:
        """Run HBSJ on the window and collect its pairs (a step generator).

        When the counts are only estimates (``counts_exact=False``) they are
        not forwarded to the operator, which will issue its own COUNT
        queries -- the paper's "issue additional aggregate queries only when
        accuracy is crucial, i.e. when applying the physical operators".
        """
        self.record(depth, window, "HBSJ", "", count_r, count_s)
        request = HBSJRequest(
            window,
            count_r=count_r if counts_exact else None,
            count_s=count_s if counts_exact else None,
        )
        table = yield from self.device.hbsj_steps([request], self.predicate)
        self._pairs.extend(table.pairs)

    def record(
        self,
        depth: int,
        window: Rect,
        action: str,
        detail: str = "",
        count_r: Optional[int] = None,
        count_s: Optional[int] = None,
        sink: Optional[List[TraceEvent]] = None,
    ) -> None:
        """Append one trace row (no-op when tracing is disabled).

        The row is kept as the event's arguments until the trace is read.
        ``sink`` redirects a built event into a caller-owned buffer instead
        (the per-window oracle generators buffer a window's events and
        splice them in window order).  The frontier engine records its
        levels as columns (:meth:`LevelTable.rec`).
        """
        if not self.params.trace:
            return
        row = (depth, window, action, detail, count_r, count_s)
        if sink is not None:
            sink.append(TraceEvent(*row))
            return
        if not (self._trace and isinstance(self._trace[-1], TraceRows)):
            self._trace.append(TraceRows())
        self._trace[-1].rows.append(row)

    # ------------------------------------------------------------------ #
    # result assembly
    # ------------------------------------------------------------------ #

    def _assemble(self, window: Rect) -> JoinResult:
        # Every block the operators reported is concatenated and
        # deduplicated once; the public pairs are a set view over the
        # sorted distinct block, not a tuple per pair.
        answer = self.spec.finalise(self._pairs.block())
        span = self._obs_span
        merge_span = None
        if span is not None:
            merge_span = span.child(
                "merge", sim=self.device.sim_now(), candidates=answer.pairs.shape[0]
            )
        servers = self.device.servers
        result = JoinResult(
            algorithm=self.name,
            spec=self.spec,
            pairs=PairSet.over(answer.pairs),
            objects=answer.objects,
            total_bytes=servers.total_bytes(),
            bytes_r=servers.r.total_bytes(),
            bytes_s=servers.s.total_bytes(),
            total_cost=servers.total_cost(),
            estimated_time_s=self.device.estimated_response_time(),
            operator_counts=self.device.counts.as_dict(),
            server_stats={
                "R": servers.r.server_stats(),
                "S": servers.s.server_stats(),
            },
            channel_stats={
                "R": servers.r.channel_snapshot(),
                "S": servers.s.channel_snapshot(),
            },
            buffer_high_water_mark=self.device.buffer.high_water_mark,
            trace=Trace(self._trace),
            resilience=(
                res.summary()
                if (res := self.device.resilience) is not None and res.plan is not None
                else None
            ),
        )
        if merge_span is not None:
            merge_span.annotate(pairs=len(result.pairs))
            merge_span.close(sim=self.device.sim_now())
            span.annotate(
                pairs=len(result.pairs),
                total_bytes=result.total_bytes,
                total_cost=result.total_cost,
            )
        return result
