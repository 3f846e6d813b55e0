"""Shared machinery of the mobile join algorithms.

:class:`MobileJoinAlgorithm` factors out everything the algorithms have in
common: the device/servers handles, the cost model, pair collection, the
recursion stopping rule, and the final assembly of a
:class:`~repro.core.result.JoinResult` from the measured channels.

Subclasses implement :meth:`run_cooperative`, the run as a step generator
(see :mod:`repro.device.steps`); :meth:`run` drives it as a wave of one
(:func:`~repro.device.steps.run_steps`), the query broker together with the
steps of other queries -- one loop, :func:`~repro.device.steps.drive`,
either way.
Every algorithm is a level table of the frontier engine
(:mod:`repro.core.frontier`): its runs start with the one root COUNT round
(:meth:`repro.core.frontier.Crew.start`), like queries run as one crew
(:meth:`repro.core.frontier.FrontierAlgorithm.run_group`), and every trace
row is a row of a :class:`~repro.core.result.LevelTrace`."""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.costmodel import CostModel
from repro.core.join_types import JoinSpec
from repro.core.result import JoinResult, LevelTrace, Trace
from repro.device.hbsj import too_small_to_split
from repro.device.pda import MobileDevice
from repro.device.steps import Steps, run_steps
from repro.errors import InvalidInput, require_count
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
        # ``nan`` fails the first comparison, ``inf`` the finiteness test,
        # a string the type test.
        if not (isinstance(self.alpha, numbers.Real) and 0.0 < self.alpha <= 1.0):
            raise InvalidInput("alpha must lie in (0, 1]")
        if not (isinstance(self.rho, numbers.Real) and self.rho > 0 and math.isfinite(self.rho)):
            raise InvalidInput("rho must be positive")
        require_count(self.grid_k, "grid_k", minimum=2)
        require_count(self.seed, "seed", minimum=0)


#: The parameters of a query or algorithm that names none: one frozen
#: instance, validated once (it compares by value, so cache keys and plans
#: are those of a fresh ``AlgorithmParameters()``).
DEFAULT_PARAMETERS = AlgorithmParameters()


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
        self.params = params or DEFAULT_PARAMETERS
        self.predicate: JoinPredicate = spec.predicate()
        self.cost_model = CostModel(
            device.config,
            epsilon=self.predicate.probe_radius(),
            bucket_queries=self.params.bucket_queries,
        )
        #: Every pair block the operators reported, duplicates and all;
        #: :meth:`_assemble` deduplicates once.
        self._pairs = PairBlocks()
        #: The trace in parts: the ``start`` row and the level tables.
        self._trace: List[LevelTrace] = []
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
        :meth:`run_cooperative` driven as a wave of one.  A run that fails
        -- a typed error from its connections, say -- is closed, every span
        it opened with it, before the error is raised."""
        return run_steps(self.run_cooperative(window), self.device.servers)

    def _obs_open(self, window: Rect) -> None:
        """Open the run's "join" span (none when the tracer is off).

        Also points the resilience controller's event hook at the new span
        so retries/faults/failovers land on the owning query's subtree.
        """
        self._obs_span = None
        self._obs_round = 0
        self._obs_leaf_batch = 0
        device = self.device
        tracer = device.tracer
        if not tracer.enabled:
            return
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

    @abstractmethod
    def run_cooperative(self, window: Rect) -> Steps:
        """Generator form of :meth:`run` for an external driver (the query broker).

        Yields every server evaluation of the run as a step
        (:mod:`repro.device.steps`) -- the root COUNTs, the planning rounds,
        the operators' downloads and probes -- and returns the
        :class:`~repro.core.result.JoinResult` via ``StopIteration``.  A
        driver evaluates a step's rows alone (:meth:`run`) or with other
        queries' (the query broker) but books them on this query's own
        connections in step order, so the run is bit-identical whoever
        drives it."""

    # ------------------------------------------------------------------ #
    # helpers shared by the algorithms
    # ------------------------------------------------------------------ #

    @property
    def buffer_size(self) -> int:
        return self.device.buffer.capacity

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

    def _open_round(self, windows: int, sides: Sequence[str]):
        """Count a COUNT round of ``windows`` rows to ``sides`` and open its
        "round" span (``None`` while the tracer is off).  Sibling rounds are
        told apart by a per-run counter, keeping span ids deterministic
        under any wave width."""
        self.device.counts.count_queries += windows
        span = self._obs_span
        if span is None:
            return None
        round_span = span.child(
            "round",
            sim=self.device.sim_now(),
            round=self._obs_round,
            servers=",".join(sorted(sides)),
            windows=windows,
        )
        self._obs_round += 1
        return round_span

    def should_stop_partitioning(self, windows: np.ndarray, depths) -> np.ndarray:
        """Mask of the ``(N, 4)`` windows whose repartitioning cannot pay off:
        at :data:`MAX_DEPTH`, or once a cell is too small to split
        (:func:`~repro.device.hbsj.too_small_to_split`)."""
        return (np.asarray(depths) >= MAX_DEPTH) | too_small_to_split(
            windows, self.predicate.window_margin
        )

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
