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

SemiJoin is a frontier algorithm like the others (:mod:`repro.core.frontier`):
its level table (:class:`SemiJoinTable`) prunes a root window with an
empty side and marks every other one, and its leaves are the index relay
(:meth:`SemiJoin._run_leaves`).  The relay is four step kinds of
:mod:`repro.device.steps` -- ``SIZE`` (both sides, one step), ``LEVELS``,
``COLLECT`` and ``JOIN`` -- each stage one crew step over the members still
in the relay, so a driver evaluates and books them (a wave of one, or the
query broker with other queries' requests) and the run makes no exchange
of its own.  Its four trace rows are rows of the root level table.  The
seed's per-window payload relay and per-pair collection loop lives on as
``tests/oracles/semijoin_scalar.py``; both ship the same messages with the
same payloads, so pairs, bytes and statistics are identical (pinned by
``tests/test_batch_queries.py``).

The relay keeps the window rule of every other algorithm
(:meth:`~repro.geometry.predicates.JoinPredicate.request_windows`): R is
asked within the join window, S within the window grown by
``window_margin`` (which is ``probe_radius()``).  COLLECT clips the large
side's epsilon-expanded level MBRs to the small side's request window, so
a small R uploads only objects that meet the window; the JOIN request
carries the large side's request window, and the large server joins only
its objects inside it, so a large R joins only objects that meet the
window.  Every pair's R object meets the window either way, and the pairs
are the naive join's.  The window rides in the JOIN query string, as a
WINDOW query's does, so it costs no bytes; over the default window every
object meets it and the large server joins all of its objects.

The relay has no "no level MBR meets the window" branch.  When S is small
it cannot be reached: past the root round R's count is positive, so some R
object meets the window; it lies inside a second-to-last-level MBR, and
that MBR expanded by epsilon meets the window grown by the same margin
(both are grown by the same floats, and ``clip_to_window`` is inclusive).
When R is small, the level MBRs are S's, grown by epsilon and clipped to
the raw window; some S object meets the grown window, so its expanded MBR
meets the window but for the last bit of the two roundings.  Should that
upload come out empty anyway, COLLECT books no exchange for it (no windows,
no message), no small object comes back and no JOIN is sent.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.base import AlgorithmParameters
from repro.core.frontier import FrontierAlgorithm, LevelTable
from repro.core.join_types import JoinSpec
from repro.device.pda import MobileDevice
from repro.device.steps import COLLECT, JOIN, LEVELS, SIZE, Request, Shared, Step, Steps
from repro.errors import InvalidInput
from repro.geometry import rect_array
from repro.server.sharded import ShardedSpatialServer

__all__ = ["RELAY", "SEMIJOIN_NEEDS_ONE_INDEX", "SemiJoin", "SemiJoinTable"]

#: :attr:`~repro.core.frontier.LevelTable.op` of a root window the index
#: relay finishes.
RELAY = 3

#: Why SemiJoin cannot run on a fleet -- the one wording of the rule, for
#: injected servers (:class:`SemiJoin` checks its builds) and for stacks
#: built from a :class:`~repro.core.planner.StackConfig` (its
#: ``check_algorithm``).
SEMIJOIN_NEEDS_ONE_INDEX = (
    "semijoin needs index-published servers; a sharded or replicated fleet "
    "does not publish a single R-tree"
)


class SemiJoinTable(LevelTable):
    """The root windows: pruned when a side is empty, else relayed."""

    def start(self) -> None:
        self.op[self.prune_empty()] = RELAY


def _stage(table: LevelTable, idx: np.ndarray, asks: Sequence[Step]) -> Steps:
    """One relay stage: window ``idx[k]`` asks ``asks[k]``, every window's
    requests in one crew step, each member's in its own order.  Returns the
    windows whose members are still in the crew and their answers."""
    if not idx.size:
        return idx, []
    step: Step = []
    queries: List[np.ndarray] = []
    at = [0]
    for q, mine in zip(table.query[idx].tolist(), asks):
        step += mine
        queries += [np.full(request.rows, q, dtype=np.intp) for request in mine]
        at.append(len(step))
    answers = yield Shared(step, queries)
    stay = np.flatnonzero(table.crew.alive[table.query[idx]]).tolist()
    return idx[stay], [answers[at[k] : at[k + 1]] for k in stay]


class SemiJoin(FrontierAlgorithm):
    """The PDA-mediated, R-tree-based semi-join comparator."""

    name = "semijoin"
    table = SemiJoinTable

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

    def _run_leaves(self, table: LevelTable) -> Steps:
        """The index relay of every marked root window (one per member)."""
        crew, query = table.crew, table.query
        idx = np.flatnonzero((table.op == RELAY) & crew.alive[query])
        # Step 1: identify the smaller dataset from index metadata.
        idx, sizes = yield from _stage(
            table, idx, [[Request(SIZE, "R", ()), Request(SIZE, "S", ())]] * idx.size
        )
        if not idx.size:
            return
        size_r, size_s = np.array(sizes, dtype=np.int64).T
        small_r = np.zeros(len(table.level), dtype=bool)
        small_r[idx] = size_r <= size_s
        small, large = np.where(small_r, "R", "S"), np.where(small_r, "S", "R")
        table.rec(
            idx,
            "semijoin-plan",
            "small={} ({} objects), large={} ({} objects)",
            (small[idx], np.minimum(size_r, size_s), large[idx], np.maximum(size_r, size_s)),
            counts=True,
        )
        small, large = small.tolist(), large.tolist()

        # Step 2: ship one level of the large side's R-tree MBRs to the
        # small server (through the PDA).
        idx, answers = yield from _stage(
            table, idx, [[Request(LEVELS, large[i], ())] for i in idx.tolist()]
        )
        table.rec(idx, "semijoin-mbrs", "{} level MBRs", ([m.shape[0] for (m,) in answers],))
        epsilon = self.predicate.probe_radius()
        windows = dict(zip(idx.tolist(), table.rects(idx)))
        uploads = []
        for i, (level_mbrs,) in zip(idx.tolist(), answers):
            # Expand every level MBR by epsilon and clip it to the small
            # side's request window, dropping disjoint ones.
            if epsilon > 0:
                level_mbrs = rect_array.expand(level_mbrs, epsilon)
            clipped, valid = rect_array.clip_to_window(
                level_mbrs, self.query_window(small[i], windows[i])
            )
            uploads.append(clipped[valid])

        # Step 3: the small server returns its qualifying objects; the PDA
        # relays them to the large server.
        idx, answers = yield from _stage(
            table,
            idx,
            [[Request(COLLECT, small[i], (up,))] for i, up in zip(idx.tolist(), uploads)],
        )
        collected = [answer.first_seen for (answer,) in answers]
        del answers  # the payloads before deduplication
        table.rec(
            idx, "semijoin-objects", "{} small-side objects", ([o.shape[0] for _, o in collected],)
        )
        nonempty = [k for k, (_, oids) in enumerate(collected) if oids.shape[0]]

        # Step 4: the large server joins the uploaded objects against its
        # own objects inside its request window and returns the result rows.
        joins = []
        for i, k in zip(idx[nonempty].tolist(), nonempty):
            within = self.query_window(large[i], windows[i])
            joins.append([Request(JOIN, large[i], (*collected[k], epsilon, within))])
        idx, answers = yield from _stage(table, idx[nonempty], joins)
        table.rec(idx, "semijoin-join", "{} result pairs", ([len(p) for (p,) in answers],))
        for i, (pairs,) in zip(idx.tolist(), answers):
            # Orient the (small, large) columns as (R, S).
            crew.algos[query[i]]._pairs.extend(pairs if small[i] == "R" else pairs[:, ::-1])
