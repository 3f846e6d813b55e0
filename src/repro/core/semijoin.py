"""SemiJoin -- the indexed distributed-join comparator (Section 5.3).

SemiJoin (Tan, Ooi & Abel, TKDE 2000) assumes both datasets are indexed by
R-trees and that the MBRs of an intermediate tree level can be exchanged.
In the paper's non-cooperative setting the servers will not talk to each
other, so the PDA relays every transfer:

1. ask both servers for their sizes and pick the *smaller* dataset (call it
   the small side; the other is the large side);
2. download the MBRs of the large side's second-to-last R-tree level to the
   PDA and upload them to the small server;
3. the small server returns every object intersecting (within ``epsilon``
   of, for distance joins) one of those MBRs; the PDA relays these objects
   to the large server;
4. the large server performs the final join locally and returns the result
   rows to the PDA.

Every hop is metered, so the comparison against UpJoin/SrJoin in Figure
8(b) is purely on measured bytes.  The paper notes SemiJoin "cannot be
applied in our problem" in practice (servers do not publish indexes); it is
reproduced here strictly as the comparator.

The relay is four step kinds of :mod:`repro.device.steps` -- ``SIZE`` (both
sides, one step), ``LEVELS``, ``COLLECT`` and ``JOIN`` -- yielded after the
root COUNT round like any other request, so a driver evaluates and books
them (a wave of one, or the query broker with other queries' requests) and
the run makes no exchange of its own.  The seed's per-window payload relay
and per-pair collection loop lives on as ``tests/oracles/semijoin_scalar.py``;
both ship the same messages with the same payloads, so pairs, bytes and
statistics are identical (pinned by ``tests/test_batch_queries.py``).

The relay has no "no level MBR meets the window" branch: it cannot be
reached.  Past the root round both counts are positive, so some large-side
object meets its COUNT window -- the window itself for R, the window
expanded by the predicate's ``window_margin`` for S, and that margin is
``probe_radius()``.  The object lies inside a second-to-last-level MBR, so
that MBR expanded by epsilon meets ``window.expanded(epsilon)``: both are
grown by the same ``Rect.expanded`` floats, and ``clip_to_window`` is
inclusive.  At least one window is uploaded (pinned by
``tests/test_algorithms.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import AlgorithmParameters, MobileJoinAlgorithm
from repro.core.frontier import Crew
from repro.core.join_types import JoinSpec
from repro.device.pda import MobileDevice
from repro.device.steps import COLLECT, JOIN, LEVELS, SIZE, Request, Steps
from repro.errors import InvalidInput
from repro.geometry import rect_array
from repro.geometry.rect import Rect
from repro.server.sharded import ShardedSpatialServer

__all__ = ["SEMIJOIN_NEEDS_ONE_INDEX", "SemiJoin"]

#: Why SemiJoin cannot run on a fleet -- the one wording of the rule, for
#: injected servers (:class:`SemiJoin` checks its builds) and for stacks
#: built from a :class:`~repro.core.planner.StackConfig` (its
#: ``check_algorithm``).
SEMIJOIN_NEEDS_ONE_INDEX = (
    "semijoin needs index-published servers; a sharded or replicated fleet "
    "does not publish a single R-tree"
)


class SemiJoin(MobileJoinAlgorithm):
    """The PDA-mediated, R-tree-based semi-join comparator."""

    name = "semijoin"

    def __init__(
        self,
        device: MobileDevice,
        spec: JoinSpec,
        params: Optional[AlgorithmParameters] = None,
    ) -> None:
        super().__init__(device, spec, params)
        self.check_builds(device.servers.backing)

    @staticmethod
    def check_builds(builds) -> None:
        """The SemiJoin-on-a-fleet rule for injected builds (a stack built
        from a config is refused by ``StackConfig.check_algorithm``)."""
        if any(isinstance(build, ShardedSpatialServer) for build in builds):
            raise InvalidInput(SEMIJOIN_NEEDS_ONE_INDEX)

    # ------------------------------------------------------------------ #

    def run_cooperative(self, window: Rect) -> Steps:
        """The root COUNT round of a crew of one (:meth:`Crew.start`), then
        the index relay (:meth:`_relay`) unless a side is empty."""
        crew = Crew([self])
        try:
            ((count_r, count_s),) = yield from crew.start([window])
            if count_r == 0 or count_s == 0:
                self.prune(window, 0, count_r, count_s)
            else:
                yield from self._relay(window, count_r, count_s)
            return self._assemble(window)
        finally:
            crew.close_spans(0)

    def _relay(self, window: Rect, count_r: int, count_s: int) -> Steps:
        # Step 1: identify the smaller dataset from index metadata.
        size_r, size_s = yield [Request(SIZE, "R", ()), Request(SIZE, "S", ())]
        small, large = ("R", "S") if size_r <= size_s else ("S", "R")
        self.record(
            0, window, "semijoin-plan",
            f"small={small} ({min(size_r, size_s)} objects), "
            f"large={large} ({max(size_r, size_s)} objects)",
            count_r, count_s,
        )

        # Step 2: ship one level of the large side's R-tree MBRs to the
        # small server (through the PDA).
        (level_mbrs,) = yield [Request(LEVELS, large, ())]
        self.record(0, window, "semijoin-mbrs", f"{level_mbrs.shape[0]} level MBRs")
        epsilon = self.predicate.probe_radius()
        # Expand every level MBR by epsilon and clip it to the (expanded)
        # join window, dropping disjoint ones -- all in array form.
        if epsilon > 0:
            level_mbrs = rect_array.expand(level_mbrs, epsilon)
        clipped, valid = rect_array.clip_to_window(level_mbrs, window.expanded(epsilon))

        # Step 3: the small server returns its qualifying objects; the PDA
        # relays them to the large server.
        (collected,) = yield [Request(COLLECT, small, (clipped[valid],))]
        small_mbrs, small_oids = collected.first_seen
        del collected  # the payload before deduplication
        self.record(0, window, "semijoin-objects", f"{small_oids.shape[0]} small-side objects")
        if small_oids.shape[0] == 0:
            return

        # Step 4: the large server joins the uploaded objects against its
        # own data and returns the result rows.
        (pairs,) = yield [Request(JOIN, large, (small_mbrs, small_oids, epsilon))]
        self.record(0, window, "semijoin-join", f"{len(pairs)} result pairs")
        # Orient the (small, large) columns as (R, S).
        self._pairs.extend(pairs if small == "R" else pairs[:, ::-1])
