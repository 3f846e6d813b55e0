"""The shared frontier execution engine for the adaptive join algorithms.

Every partition-based algorithm in this reproduction (MobiJoin, UpJoin,
SrJoin) is a recursion over windows: inspect a window with COUNT queries,
then either prune it, finish it with a physical operator, or decompose it
and recurse.  The paper's recursion constrains *which* windows are queried
and what bytes cross the wire -- not the order in which exchanges are
flushed -- so sibling windows at one recursion depth can legally share one
batched round trip.  They also share one *decision*: everything a window's
fate depends on is a handful of numbers, so the windows of a depth are kept
as columns (a :class:`Level`) and decided together, as a table.

* A :class:`LevelTable` is the decision state of one level.  The algorithm
  supplies its rule as column operations over *cohorts* -- index arrays of
  the windows that took the same branch so far: :meth:`LevelTable.start`
  decides what the level's own counts allow and :meth:`LevelTable.ask`
  registers, for a cohort, the COUNT rows its windows need next and the
  method that continues with the answers.  No object is built per window.
* Wire order is the contract (the depth-first oracle and the golden traces
  pin it): round ``k`` of a level carries each still-undecided window's
  ``k``-th request, rows per server in window order, servers in the order
  the windows first ask for them (:meth:`LevelTable._round`).  Windows
  drift out of phase -- one needs a fourth quadrant COUNT, its neighbour
  does not -- which is why a round merges the cohorts of several stages.
* The engine (:meth:`FrontierAlgorithm._steps`) runs level after level: the
  table's lock-step rounds, then the level's physical-operator leaves
  through the device's batch operators
  (:meth:`~repro.device.pda.MobileDevice.hbsj_steps` /
  :meth:`~repro.device.pda.MobileDevice.nlsj_steps`), then the level's
  trace rows, spliced in window order.  It is a step generator
  (:mod:`repro.device.steps`): every COUNT round and every operator
  exchange is *yielded*, never performed; ``run`` answers the steps as a
  wave of one, the query broker answers the steps of all in-flight queries
  together.

Float work stays column by column in the scalar operation order, and trace
details are formatted from ``.tolist()`` Python numbers: costs pick
strategies and strategies pick bytes, so a last-bit drift is wire-visible.
The per-window generators this table replaced live on, behaviour-intact, as
``tests/oracles/frontier_generators.py``; ``tests/test_level_table.py``
holds the table against them level by level, and the depth-first driver
(``tests/oracles/recursive_driver.py``) runs them one window at a time to
bit-identical pairs, bytes, statistics and decision logs
(``tests/test_frontier_equivalence.py``, ``tests/test_golden_traces.py``).
See ARCHITECTURE.md, "Frontier execution".

Sharded data plane (PR 8).  The engine addresses servers by their *logical*
side names (``"R"``/``"S"``): a round's batch for one side may physically
scatter across a fleet of shard servers when the connection behind that
name is a :class:`~repro.server.remote.ShardedRemoteServer`.  The scatter,
the per-shard metering and the deterministic merge all live in the
connection layer; the engine's rounds, decision traces and therefore its
pair sets are bit-identical whichever data plane answers them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.base import MobileJoinAlgorithm
from repro.core.result import LevelTrace, TraceBatch
from repro.device.hbsj import UNKNOWN, HBSJColumns
from repro.device.nlsj import NLSJColumns
from repro.device.steps import COUNT, Request, Steps
from repro.geometry import rect_array
from repro.geometry.rect import Rect

__all__ = ["CostedTable", "FrontierAlgorithm", "Level", "LevelTable"]

SIDES = ("R", "S")
#: :attr:`LevelTable.op` codes (0: no operator finishes the window).
HBSJ, NLSJ = 1, 2


@dataclass
class Level:
    """The windows of one recursion depth, as columns (row ``i`` is window ``i``)."""

    depth: int
    #: ``(N, 4)`` cells, in the lexicographic path order of the recursion.
    windows: np.ndarray
    #: ``(N,)`` ``float64`` counts: real COUNT answers or uniformity estimates
    #: (R over the cell, S over the margin-expanded cell).
    count_r: np.ndarray
    count_s: np.ndarray
    #: ``(N,)`` ``bool``: both counts came from real COUNT queries.
    exact: np.ndarray
    #: What the parent decided for its children, one ``(N,)`` column each
    #: (UpJoin: the datasets known uniform; SrJoin: the bitmap verdict).
    flags: Tuple[np.ndarray, ...] = ()

    def __len__(self) -> int:
        return self.windows.shape[0]

    @classmethod
    def root(cls, window: Rect, count_r: int, count_s: int, depth: int, *flags) -> "Level":
        """The level of one the join starts from (counts are real)."""
        return cls(
            depth,
            np.array([window.as_tuple()], dtype=np.float64),
            np.array([count_r], dtype=np.float64),
            np.array([count_s], dtype=np.float64),
            np.ones(1, dtype=bool),
            tuple(np.array([flag]) for flag in flags),
        )


class _Ask(NamedTuple):
    """One cohort's next request (see :meth:`LevelTable.ask`)."""

    idx: np.ndarray
    then: Callable
    per_window: object
    rows: Dict[str, np.ndarray]


class LevelTable:
    """The decision state of one frontier level, as columns.

    Subclasses implement :meth:`start` (and the continuations they hand to
    :meth:`ask`); :meth:`steps` drives them.  What a decision leaves behind
    is columns too: :attr:`op` / :attr:`outer_s` / :attr:`counts_exact` for
    the leaves, :attr:`children` for the next level, and the trace rows.
    """

    def __init__(self, algo: "FrontierAlgorithm", level: Level) -> None:
        self.algo = algo
        self.level = level
        self.windows = level.windows
        n = len(level)
        #: The counts rounded to integers, as every estimate and leaf uses them.
        self.int_r = np.rint(level.count_r).astype(np.int64)
        self.int_s = np.rint(level.count_s).astype(np.int64)
        #: The physical operator that finishes the window, if one does.
        self.op = np.zeros(n, dtype=np.int8)
        #: NLSJ leaves: the outer relation is S.
        self.outer_s = np.ones(n, dtype=bool)
        #: HBSJ leaves: the counts are real and may be forwarded to the operator.
        self.counts_exact = np.ones(n, dtype=bool)
        self.children: Optional[Level] = None
        self._asks: List[_Ask] = []
        self._trace: List[TraceBatch] = []
        self._quad_windows: List[np.ndarray] = []

    # ------------------------------------------------------------------ #
    # to be provided by each algorithm
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Decide what the level's own columns allow; :meth:`ask` for the rest."""
        raise NotImplementedError

    def finish(self) -> None:
        """Called once no window waits for an answer (build :attr:`children`)."""

    # ------------------------------------------------------------------ #
    # the lock-step rounds
    # ------------------------------------------------------------------ #

    def steps(self) -> Steps:
        """Decide the level, offering its COUNT rounds as steps; returns ``self``."""
        self.start()
        while self._asks:
            asks, self._asks = self._asks, []
            yield from self._round(asks)
        self.finish()
        return self

    def ask(self, idx: np.ndarray, then: Callable, per_window, **rows: np.ndarray) -> None:
        """Register the next request of the windows ``idx`` (ascending).

        ``rows[side]`` holds the query windows (margins applied) for that
        server, window after window, ``per_window`` rows each (an ``int`` or
        an ``(len(idx),)`` column; the same for both sides).  Once the round
        is answered, ``then(idx, *counts)`` continues with one flat ``int64``
        count column per side asked, in the order given -- ``R`` before
        ``S``, the order a window's own requests are written in.
        """
        if idx.size:
            self._asks.append(_Ask(idx, then, per_window, rows))

    def _round(self, asks: List["_Ask"]) -> Steps:
        """One lock-step round: every undecided window's next request.

        The requests a depth-first execution issues one window at a time,
        as one COUNT request per server: rows in window order, servers in
        the order the windows first name them (a window that asks both
        names ``R`` first).
        """
        if len(asks) == 1:
            # One cohort: its rows are the requests (R first when it asks both).
            (ask,) = asks
            step = [Request(COUNT, side, (rows,)) for side, rows in ask.rows.items()]
            answers = yield from self.algo.count_round(step)
            ask.then(ask.idx, *(np.asarray(answer, dtype=np.int64) for answer in answers))
            return
        by_side: Dict[str, List[_Ask]] = {}
        for ask in asks:
            for side in ask.rows:
                by_side.setdefault(side, []).append(ask)
        sides = sorted(by_side, key=lambda side: (min(a.idx[0] for a in by_side[side]), side))
        step, merges = [], []
        for side in sides:
            members = by_side[side]
            rows, src = members[0].rows[side], None
            if len(members) > 1:
                # Several cohorts ask this server: interleave their rows by window.
                idx = np.concatenate([a.idx for a in members])
                per = np.concatenate([np.broadcast_to(a.per_window, a.idx.shape) for a in members])
                order = np.argsort(idx, kind="stable")
                first = (np.cumsum(per) - per)[order]
                _, src = rect_array.expand_index_ranges(first, first + per[order])
                rows = np.concatenate([a.rows[side] for a in members])[src]
            step.append(Request(COUNT, side, (rows,)))
            merges.append(src)
        answers = yield from self.algo.count_round(step)
        shares: Dict[Tuple[int, str], np.ndarray] = {}
        for side, src, answer in zip(sides, merges, answers):
            counts = np.asarray(answer, dtype=np.int64)
            if src is not None:
                cohort_major = np.empty_like(counts)
                cohort_major[src] = counts
                counts = cohort_major
            at = 0
            for ask in by_side[side]:
                n_rows = ask.rows[side].shape[0]
                shares[id(ask), side] = counts[at : at + n_rows]
                at += n_rows
        for ask in asks:
            ask.then(ask.idx, *(shares[id(ask), side] for side in ask.rows))

    # ------------------------------------------------------------------ #
    # quadrant statistics (three COUNTs, the fourth derived or confirmed)
    # ------------------------------------------------------------------ #

    def quad_windows(self, side: int) -> np.ndarray:
        """``(N, 4, 4)``: every window's quadrants as server ``side`` is asked
        for them (R raw, S grown by the predicate margin)."""
        if not self._quad_windows:
            cells = rect_array.quadrant_cells(self.windows)
            self._quad_windows = [
                cells, rect_array.expand(cells, self.algo.predicate.window_margin)
            ]
        return self._quad_windows[side]

    def quadrant_counts(self, side: int, idx: np.ndarray, then: Callable) -> None:
        """Retrieve the quadrant counts of windows ``idx`` from server ``side``.

        Section 4.1: "UpJoin can identify a skewed dataset by issuing only
        three aggregate queries, since |Dw'4| = |Dw| - sum(|Dw'i|)".  The
        derivation is exact for points; for extended objects it is an
        underestimate, so a derived value that is not positive is confirmed
        with a real COUNT in the next round before anyone prunes on it.
        Fills ``self.quads[side]`` / ``self.quad_exact[side]`` (which the
        table allocates) and calls ``then(idx)`` -- per cohort, as the
        counts complete.
        """
        name = SIDES[side]
        quads, exact = self.quads[side], self.quad_exact[side]
        total = (self.int_r, self.int_s)[side]

        def lead(idx: np.ndarray, counts: np.ndarray) -> None:
            lead3 = counts.reshape(-1, 3).astype(np.float64)
            quads[idx, :3] = lead3
            # parent - sum(counts), summed left to right.
            derived = total[idx] - ((lead3[:, 0] + lead3[:, 1]) + lead3[:, 2])
            positive = derived > 0
            quads[idx, 3] = derived
            exact[idx, 3] = ~positive
            if positive.all():
                then(idx)
            else:
                suspicious = idx[~positive]
                self.ask(suspicious, fourth, 1, **{name: self.quad_windows(side)[suspicious, 3]})
                then(idx[positive])

        def fourth(idx: np.ndarray, counts: np.ndarray) -> None:
            quads[idx, 3] = counts
            then(idx)

        self.ask(idx, lead, 3, **{name: self.quad_windows(side)[idx, :3].reshape(-1, 4)})

    # ------------------------------------------------------------------ #
    # outcomes
    # ------------------------------------------------------------------ #

    def prune(self, idx: np.ndarray, count_r: np.ndarray, count_s: np.ndarray) -> None:
        """Windows with an empty side produce no work (the counts are
        recorded truncated, as ``int()`` did).

        The counter update and the trace wording stay in lock-step across
        the algorithms -- the depth-first equivalence suite and the
        golden-trace fixtures compare both.
        """
        self.algo.device.counts.windows_pruned += idx.size
        self.rec(
            idx, "prune", "empty side", (), count_r.astype(np.int64), count_s.astype(np.int64)
        )

    def leaves(self, idx: np.ndarray, hbsj: np.ndarray, counts_exact: np.ndarray) -> None:
        """Finish windows ``idx`` with HBSJ where ``hbsj``, NLSJ (outer
        :attr:`outer_s`) elsewhere."""
        self.op[idx] = np.where(hbsj, HBSJ, NLSJ)
        self.counts_exact[idx] = counts_exact
        self.rec(idx[hbsj], "HBSJ", counts=True)
        nlsj = idx[~hbsj]
        self.rec(
            nlsj,
            "NLSJ",
            "outer={}, bucket=" + str(self.algo.params.bucket_queries),
            (np.where(self.outer_s[nlsj], "S", "R"),),
            counts=True,
        )

    def child_level(self, parents: np.ndarray, cells, count_r, count_s, exact, *flags) -> None:
        """Set :attr:`children`: ``cells`` / counts / ``exact`` hold one row
        per parent in ``parents`` and one column per child; ``flags`` are
        per-parent columns every child of a parent inherits."""
        if parents.size:
            fan_out = count_r.shape[1]
            self.children = Level(
                self.level.depth + 1,
                cells.reshape(-1, 4),
                count_r.reshape(-1).astype(np.float64),
                count_s.reshape(-1).astype(np.float64),
                exact.reshape(-1),
                tuple(np.repeat(flag, fan_out) for flag in flags),
            )

    # ------------------------------------------------------------------ #
    # trace rows
    # ------------------------------------------------------------------ #

    def rec(
        self,
        idx: np.ndarray,
        action: str,
        detail: str = "",
        columns: Sequence = (),
        count_r: Optional[np.ndarray] = None,
        count_s: Optional[np.ndarray] = None,
        counts: bool = False,
    ) -> None:
        """Record one trace row per window of ``idx`` (no-op when tracing is off).

        ``detail`` is a ``str.format`` template over ``columns`` (parallel
        to ``idx``; formatted from Python numbers when read); ``counts=True``
        records the windows' integer counts, ``count_r`` / ``count_s`` other
        ones.  The rows stay columns -- one :class:`TraceBatch` per call --
        and are spliced per level in window order (:meth:`events`), so the
        per-depth decision log is identical to a depth-first execution even
        though windows are decided together.
        """
        if not self.algo.params.trace or not idx.size:
            return
        if counts:
            count_r, count_s = self.int_r[idx], self.int_s[idx]
        columns = tuple(np.array(column) for column in columns)
        self._trace.append(TraceBatch(idx, action, detail, columns, count_r, count_s))

    def rects(self, idx: np.ndarray) -> List[Rect]:
        """:class:`Rect` objects of windows ``idx`` (built for these rows only)."""
        return [Rect(*row) for row in self.windows[idx].tolist()]

    def events(self) -> LevelTrace:
        """The level's trace table: each window's own rows in the order they
        were recorded, windows in level order (no event is built here)."""
        return LevelTrace(self.level.depth, self.windows, self._trace)


class CostedTable(LevelTable):
    """A level table with the cost columns UpJoin and SrJoin decide from."""

    def __init__(self, algo: "FrontierAlgorithm", level: Level) -> None:
        super().__init__(algo, level)
        n = len(level)
        #: :meth:`~repro.core.base.MobileJoinAlgorithm.should_stop_partitioning`.
        self.stop = np.zeros(n, dtype=bool)
        #: Eq. 2 without the buffer cut.
        self.c1 = np.zeros(n)
        #: The cheaper NLSJ orientation (:attr:`outer_s`: ``c3``, which also
        #: wins ties; else ``c2``).
        self.nlsj_cost = np.zeros(n)
        #: :meth:`~repro.core.base.MobileJoinAlgorithm.refinement_worthwhile`.
        self.worthwhile = np.zeros(n, dtype=bool)
        self.quads = np.zeros((2, n, 4))
        self.quad_exact = np.ones((2, n, 4), dtype=bool)

    def cost(self, idx: np.ndarray) -> None:
        """Cost windows ``idx`` (both integer counts positive) in one call.

        The one place these algorithms evaluate the cost model: a window is
        costed when its level starts, or -- an estimated zero that a real
        COUNT refuted -- together with the others confirmed in that round.
        """
        algo, model = self.algo, self.algo.cost_model
        windows, count_r, count_s = self.windows[idx], self.int_r[idx], self.int_s[idx]
        areas = rect_array.areas(windows)
        c1 = model.c1(areas, count_r, count_s)
        c2 = model.c2(areas, count_r, count_s)
        c3 = model.c3(areas, count_r, count_s)
        outer_s = c3 <= c2
        self.stop[idx] = algo.should_stop_partitioning(windows, self.level.depth)
        self.c1[idx] = c1
        self.outer_s[idx] = outer_s
        self.nlsj_cost[idx] = np.where(outer_s, c3, c2)
        self.worthwhile[idx] = algo.refinement_worthwhile(c1)


class FrontierAlgorithm(MobileJoinAlgorithm):
    """Base class of algorithms driven by the frontier engine.

    Subclasses name their :class:`LevelTable` and implement
    :meth:`_root_task`; the engine executes them level by level.
    """

    #: The algorithm's decision rule.
    table: Type[LevelTable]

    def _root_task(self, window: Rect, count_r: int, count_s: int, depth: int) -> Level:
        """The level of one for the joined window (counts already known)."""
        raise NotImplementedError

    #: ``benchmarks/e2e/layers.py`` (frozen) times the cooperative run of the
    #: engine algorithms under this class's name.
    run_cooperative = MobileJoinAlgorithm.run_cooperative

    def _steps(self, window: Rect, count_r: int, count_s: int, depth: int) -> Steps:
        """The level-order execution as a step generator.

        Per level: the lock-step COUNT rounds of its table, then the steps
        of the batch operators that finish its leaves.  Everything else --
        decisions, in-memory joins, the trace spliced in window order --
        happens inside the generator between steps.
        """
        level = self._root_task(window, count_r, count_s, depth)
        while level is not None:
            table = yield from self.table(self, level).steps()
            yield from self._run_leaves(table)
            if self.params.trace:
                self._trace.append(table.events())
            level = table.children

    def _run_leaves(self, table: LevelTable) -> Steps:
        """Execute the level's physical-operator leaves through the batch
        operators: one batched download / probe / kernel pipeline per
        operator kind, fed the table's own columns -- no object per leaf."""
        hbsj, nlsj = np.flatnonzero(table.op == HBSJ), np.flatnonzero(table.op == NLSJ)
        if not hbsj.size and not nlsj.size:
            return
        span = self._obs_span
        leaves_span = None
        if span is not None:
            leaves_span = span.child(
                "leaves",
                sim=self.device.sim_now(),
                batch=self._obs_leaf_batch,
                hbsj=hbsj.size,
                nlsj=nlsj.size,
            )
            self._obs_leaf_batch += 1
        if hbsj.size:
            # Estimated counts are not forwarded: the operator issues its own
            # COUNTs -- the paper's "issue additional aggregate queries only
            # when accuracy is crucial, i.e. when applying the physical
            # operators".
            exact = table.counts_exact[hbsj]
            found = yield from self.device.hbsj_steps(
                HBSJColumns(
                    table.windows[hbsj],
                    np.where(exact, table.int_r[hbsj], UNKNOWN),
                    np.where(exact, table.int_s[hbsj], UNKNOWN),
                ),
                self.predicate,
            )
            self._pairs.extend(found.pairs)
        if nlsj.size:
            found = yield from self.device.nlsj_steps(
                NLSJColumns(table.windows[nlsj], table.outer_s[nlsj]),
                self.predicate,
                bucket=self.params.bucket_queries,
            )
            self._pairs.extend(found.pairs)
        if leaves_span is not None:
            leaves_span.close(sim=self.device.sim_now())
