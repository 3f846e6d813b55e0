"""The join algorithms' one class and the frontier engine it runs.

Every algorithm in this reproduction is a recursion over windows: inspect
a window with COUNT queries, then either prune it, finish it with a
physical operator, or decompose it and recurse -- MobiJoin, UpJoin and
SrJoin adaptively, the naive join by finishing the root window whole,
FixedGrid by one fixed split, SemiJoin by relaying the root window through
the two servers' indexes.  The paper's recursion constrains
*which* windows are queried and what bytes cross the wire -- not the order
in which exchanges are flushed -- so sibling windows at one recursion
depth can legally share one batched round trip.  They also share one
*decision*: everything a window's fate depends on is a handful of numbers,
so the windows of a depth are kept as columns (a :class:`Level`) and
decided together, as a table.

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
  drift out of phase -- one asks its R quadrants while its neighbour,
  which knows R uniform, asks S's -- which is why a round merges the
  cohorts of several stages.
* :class:`FrontierAlgorithm` is the one algorithm class: every algorithm
  derives from it directly and names its table.  It holds what they share
  -- device, spec, parameters, cost model, pair collection, the stopping
  rules, the spans and the assembly of the result -- and runs the tables.
* Every run is a group (a :class:`Crew`; a run on its own is a crew of
  one): the root COUNT round (:meth:`Crew.start`), then
  :meth:`FrontierAlgorithm._levels` level after level -- the table's
  lock-step rounds, then the level's physical-operator leaves through the
  group's batch operators (:class:`~repro.device.pda.DeviceGroup`; for
  SemiJoin, its index relay), then each member's trace rows, spliced in
  window order.  Every trace row is a row of a
  :class:`~repro.core.result.LevelTrace`, the "start" row a table of one
  of its own.  It is a step
  generator (:mod:`repro.device.steps`): every COUNT round and every
  operator exchange is *yielded*, never performed, and one driver,
  :func:`~repro.device.steps.drive`, answers the steps -- ``run`` as a
  wave of one, the query broker those of all in-flight groups together.

Float work stays column by column in the scalar operation order, and trace
details are formatted from ``.tolist()`` Python numbers: costs pick
strategies and strategies pick bytes, so a last-bit drift is wire-visible.
The per-window generators this table replaced live on, behaviour-intact, as
``tests/oracles/frontier_generators.py``; ``tests/test_level_table.py``
holds the table against them level by level, and the depth-first driver
(``tests/oracles/recursive_driver.py``, swapped in for :meth:`_levels`)
runs them one window at a time to bit-identical pairs, bytes, statistics
and decision logs (``tests/test_frontier_equivalence.py``,
``tests/test_golden_traces.py``).
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

from repro.core.base import DEFAULT_PARAMETERS, AlgorithmParameters
from repro.core.costmodel import CostModel
from repro.core.join_types import JoinSpec
from repro.core.result import JoinResult, LevelTrace, Trace, TraceBatch
from repro.device.hbsj import UNKNOWN, HBSJColumns, too_small_to_split
from repro.device.nlsj import NLSJColumns
from repro.device.pda import DeviceGroup, MobileDevice
from repro.device.steps import COUNT, MAX_DEPTH, Request, Shared, Step, Steps, Unit, run_steps
from repro.geometry import rect_array
from repro.geometry.predicates import JoinPredicate
from repro.geometry.rect import Rect
from repro.index.pairs import PairBlocks, PairSet

__all__ = ["CostedTable", "Crew", "FrontierAlgorithm", "Level", "LevelTable"]

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
    #: ``(N,)`` ascending: the query of a :class:`Crew` each window belongs
    #: to (``None``: all are one query's).  A query's windows are
    #: contiguous and in its own path order.
    query: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.windows.shape[0]

    def take(self, rows: np.ndarray) -> "Level":
        """The level of windows ``rows`` (ascending) alone."""
        return Level(
            self.depth,
            self.windows[rows],
            self.count_r[rows],
            self.count_s[rows],
            self.exact[rows],
            tuple(flag[rows] for flag in self.flags),
            None if self.query is None else self.query[rows],
        )

    @classmethod
    def stack(cls, levels: Dict[int, "Level"]) -> "Level":
        """One level of the levels of several queries (keyed by query)."""
        parts = list(levels.values())
        return cls(
            parts[0].depth,
            np.concatenate([part.windows for part in parts]),
            np.concatenate([part.count_r for part in parts]),
            np.concatenate([part.count_s for part in parts]),
            np.concatenate([part.exact for part in parts]),
            tuple(np.concatenate(flag) for flag in zip(*(part.flags for part in parts))),
            np.repeat(np.array(list(levels), dtype=np.intp), [len(part) for part in parts]),
        )

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


class Crew:
    """Like queries decided as one: what a :class:`LevelTable` and the
    leaves of a level need to know of the queries their windows belong to.

    The members are algorithm instances of one class, spec, parameters,
    configuration and buffer size, each with its own device -- so one cost
    model, one predicate and one buffer capacity decide every window,
    while counters, buffers, pairs, trace rows and spans stay per query.
    A run on its own is a crew of one;
    :meth:`FrontierAlgorithm.run_group` runs several.  Every step it offers
    is :class:`~repro.device.steps.Shared` over all members' rows, and it
    receives that step's answers.  A member whose booking failed, or whose
    step outgrew its work budget, leaves (:meth:`leave`, which
    :func:`~repro.device.steps.drive` calls): its spans close, its device
    is dropped, and from then on it is booked nothing and counted nothing;
    its rows still ride in the crew's requests (evaluated, never booked)
    until its windows go with the level they are in -- or, inside an HBSJ
    operator's recursion, its cells with their depth.
    """

    def __init__(self, algos: Sequence["FrontierAlgorithm"]) -> None:
        self.algos = list(algos)
        self.devices = DeviceGroup([algo.device for algo in self.algos])
        self.alive = np.ones(len(self.algos), dtype=bool)
        #: Per member: its spans open below its "join" span (a round, leaves).
        self.spans: List[list] = [[] for _ in self.algos]

    def __len__(self) -> int:
        return len(self.algos)

    def leave(self, q: int) -> None:
        """Member ``q`` failed: close its spans as closing its run would."""
        self.alive[q] = False
        self.devices.leave(q)
        self.close_spans(q)

    def close_spans(self, q: int) -> None:
        """Close member ``q``'s open spans and its "join" span."""
        algo = self.algos[q]
        sim = algo.device.sim_now()
        for span in reversed(self.spans[q]):
            span.close(sim=sim)
        self.spans[q] = []
        if algo._obs_span is not None:
            algo._obs_span.close(sim=sim)

    def members(self, query: np.ndarray) -> List[Tuple[int, int, int]]:
        """``(member, first row, end row)`` of every live member with rows
        in an ascending query column."""
        if len(self.algos) == 1:
            return [(0, 0, query.shape[0])] if query.shape[0] and self.alive[0] else []
        bounds = np.searchsorted(query, np.arange(len(self.algos) + 1)).tolist()
        return [
            (q, bounds[q], bounds[q + 1])
            for q in range(len(self.algos))
            if bounds[q + 1] > bounds[q] and self.alive[q]
        ]

    def survivors(self, level: Optional[Level]) -> Optional[Level]:
        """``level`` without the windows of members that left (``None`` if empty)."""
        if level is None or self.alive.all():
            return level
        rows = np.flatnonzero(self.alive[level.query])
        return level.take(rows) if rows.size else None

    def start(self, windows: Sequence[Rect]) -> Steps:
        """Open every member's run over its window and ask its root COUNTs:
        one round, R then S, one row per member.  Returns each member's
        ``(count_r, count_s)`` (``None`` for one that left), recorded as
        its "start" trace row: a one-row level table of its own."""
        algos = self.algos
        for algo, window in zip(algos, windows):
            algo._pairs.clear()
            algo._trace.clear()
            algo._obs_open(window)
        roots = rect_array.rects_to_array(windows)
        rule = algos[0].predicate.request_windows
        step = [Request(COUNT, side, (rule(side, roots),)) for side in SIDES]
        members = np.arange(len(algos), dtype=np.intp)
        counts_r, counts_s = yield from self.count_round(step, [members, members], None)
        counts: List[Optional[Tuple[int, int]]] = [None] * len(algos)
        for q in np.flatnonzero(self.alive).tolist():
            algo, counts[q] = algos[q], (int(counts_r[q]), int(counts_s[q]))
            count_r, count_s = (np.array([count]) for count in counts[q])
            start = TraceBatch(np.zeros(1, np.intp), "start", algo.name, (), count_r, count_s)
            algo._trace.append(LevelTrace(0, roots[q : q + 1], [start]))
        return counts

    def count_round(self, step: Step, queries: List[np.ndarray], keys) -> Steps:
        """Offer one COUNT round over the members' rows (request windows,
        the window rule applied); returns its answers.  Each
        member with rows in it counts them and opens its own "round" span,
        closed when the answers arrive or by :meth:`close_spans`."""
        asked: Dict[int, List[Tuple[str, int]]] = {}
        for request, query in zip(step, queries):
            for q, lo, hi in self.members(query):
                asked.setdefault(q, []).append((request.side, hi - lo))
        opened = []
        for q, rows in sorted(asked.items()):
            span = self.algos[q]._open_round(sum(n for _, n in rows), [side for side, _ in rows])
            if span is not None:
                self.spans[q].append(span)
                opened.append((q, span))
        answers = yield Shared(step, queries, keys)
        for q, span in opened:
            if self.alive[q]:
                self.spans[q].remove(span)
                span.close(sim=self.algos[q].device.sim_now())
        return answers

    def add_pairs(self, found, query: np.ndarray) -> None:
        """Hand each member the pairs its invocations found (``query`` is
        the invocations' query column)."""
        for pairs, owner in zip(found.pairs.blocks, found.owners):
            for q, lo, hi in self.members(query[owner]):
                self.algos[q]._pairs.blocks.append(pairs[lo:hi])

    def record(self, table: "LevelTable") -> None:
        """Each member's trace rows of the level, as its own level table."""
        if len(self.algos) == 1:
            self.algos[0]._trace.append(table.events())
            return
        windows, batches = table.windows, table._trace
        members = self.members(table.query)
        ends = [end for _, lo, hi in members for end in (lo, hi)]
        cuts = [np.searchsorted(batch.idx, ends).tolist() for batch in batches]
        for k, (q, lo, hi) in enumerate(members):
            mine = []
            for batch, cut in zip(batches, cuts):
                a, b = cut[2 * k], cut[2 * k + 1]
                if b > a:
                    mine.append(
                        TraceBatch(
                            batch.idx[a:b] - lo,
                            batch.action,
                            batch.detail,
                            tuple(column[a:b] for column in batch.columns),
                            None if batch.count_r is None else batch.count_r[a:b],
                            None if batch.count_s is None else batch.count_s[a:b],
                        )
                    )
            self.algos[q]._trace.append(LevelTrace(table.level.depth, windows[lo:hi], mine))


class LevelTable:
    """The decision state of one frontier level, as columns.

    Subclasses implement :meth:`start` (and the continuations they hand to
    :meth:`ask`); :meth:`steps` drives them.  What a decision leaves behind
    is columns too: :attr:`op` / :attr:`outer_s` / :attr:`counts_exact` for
    the leaves, :attr:`children` for the next level, and the trace rows.
    """

    def __init__(
        self, algo: "FrontierAlgorithm", level: Level, crew: Optional[Crew] = None
    ) -> None:
        #: The crew's first member: what its members share (parameters,
        #: predicate, cost model, buffer size).
        self.algo = algo
        self.crew = crew or Crew([algo])
        self.level = level
        self.windows = level.windows
        n = len(level)
        #: The member each window belongs to.
        self.query = np.zeros(n, dtype=np.intp) if level.query is None else level.query
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

    # ------------------------------------------------------------------ #
    # to be provided by each algorithm
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Decide what the level's own columns allow; :meth:`ask` for the rest."""
        raise NotImplementedError

    def finish(self) -> None:
        """Called once no window waits for an answer (build :attr:`children`)."""

    def tally(self, counter: str, idx: np.ndarray) -> None:
        """One more on device counter ``counter`` per window of ``idx``."""
        self.crew.devices.tally(counter, self.query[idx])

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

    def ask(self, idx: np.ndarray, then: Callable, per_window, **cells: np.ndarray) -> None:
        """Register the next request of the windows ``idx`` (ascending).

        ``cells[side]`` holds the cells to COUNT on that server, window
        after window, ``per_window`` rows each (an ``int`` or an
        ``(len(idx),)`` column; the same for both sides); the server is
        asked for the window rule's windows of them
        (:meth:`~repro.geometry.predicates.JoinPredicate.request_windows`).
        Once the round is answered, ``then(idx, *counts)`` continues with
        one flat ``int64`` count column per side asked, in the order given
        -- ``R`` before ``S``, the order a window's own requests are
        written in.
        """
        if idx.size:
            rule = self.algo.predicate.request_windows
            rows = {side: rule(side, rows) for side, rows in cells.items()}
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
            queries = [self.query[np.repeat(ask.idx, ask.per_window)]] * len(step)
            answers = yield from self.crew.count_round(step, queries, None)
            ask.then(ask.idx, *(np.asarray(answer, dtype=np.int64) for answer in answers))
            return
        by_side: Dict[str, List[_Ask]] = {}
        for ask in asks:
            for side in ask.rows:
                by_side.setdefault(side, []).append(ask)
        sides = sorted(by_side, key=lambda side: (min(a.idx[0] for a in by_side[side]), side))
        step, merges, owners = [], [], []
        for side in sides:
            members = by_side[side]
            rows, src = members[0].rows[side], None
            idx, per = members[0].idx, members[0].per_window
            if len(members) > 1:
                # Several cohorts ask this server: interleave their rows by window.
                idx = np.concatenate([a.idx for a in members])
                per = np.concatenate([np.broadcast_to(a.per_window, a.idx.shape) for a in members])
                order = np.argsort(idx, kind="stable")
                idx, per, first = idx[order], per[order], (np.cumsum(per) - per)[order]
                _, src = rect_array.expand_index_ranges(first, first + per)
                rows = np.concatenate([a.rows[side] for a in members])[src]
            step.append(Request(COUNT, side, (rows,)))
            merges.append(src)
            owners.append(np.repeat(idx, per))
        # A member lists the servers in the order its own windows first
        # name them: the key of a row is its window, R before S.
        queries = [self.query[windows] for windows in owners]
        keys = [2 * windows + (side == "S") for side, windows in zip(sides, owners)]
        answers = yield from self.crew.count_round(step, queries, keys)
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
    # outcomes
    # ------------------------------------------------------------------ #

    def prune(self, idx: np.ndarray, count_r: np.ndarray, count_s: np.ndarray) -> None:
        """Windows with an empty side produce no work (the counts are
        recorded truncated, as ``int()`` did).

        The counter update and the trace wording stay in lock-step across
        the algorithms -- the depth-first equivalence suite and the
        golden-trace fixtures compare both.
        """
        self.tally("windows_pruned", idx)
        self.rec(
            idx, "prune", "empty side", (), count_r.astype(np.int64), count_s.astype(np.int64)
        )

    def prune_empty(self) -> np.ndarray:
        """Prune the windows whose integer counts have an empty side; the
        others' indices."""
        empty = (self.int_r == 0) | (self.int_s == 0)
        dead = np.flatnonzero(empty)
        self.prune(dead, self.int_r[dead], self.int_s[dead])
        return np.flatnonzero(~empty)

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
                np.repeat(self.query[parents], fan_out),
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
        """Record one trace row per window of ``idx``.

        ``detail`` is a ``str.format`` template over ``columns`` (parallel
        to ``idx``; formatted from Python numbers when read); ``counts=True``
        records the windows' integer counts, ``count_r`` / ``count_s`` other
        ones.  ``idx`` is ascending (a cohort or part of one).  The rows stay
        columns -- one :class:`TraceBatch` per call -- and are spliced per
        level in window order (:meth:`events`), so the
        per-depth decision log is identical to a depth-first execution even
        though windows are decided together.
        """
        if not idx.size:
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
    """A level table with the cost columns and the quadrant statistics
    UpJoin and SrJoin decide from: four real COUNTs per side and split, no
    derived quadrant (:meth:`quadrant_counts`)."""

    def __init__(
        self, algo: "FrontierAlgorithm", level: Level, crew: Optional[Crew] = None
    ) -> None:
        super().__init__(algo, level, crew)
        n = len(level)
        #: :meth:`FrontierAlgorithm.should_stop_partitioning`.
        self.stop = np.zeros(n, dtype=bool)
        #: Eq. 2 without the buffer cut.
        self.c1 = np.zeros(n)
        #: The cheaper NLSJ orientation (:attr:`outer_s`: ``c3``, which also
        #: wins ties; else ``c2``).
        self.nlsj_cost = np.zeros(n)
        #: :meth:`FrontierAlgorithm.refinement_worthwhile`.
        self.worthwhile = np.zeros(n, dtype=bool)
        #: Per side, every window's quadrant counts (:meth:`quadrant_counts`).
        self.quads = np.zeros((2, n, 4))
        self._quad_windows: Optional[np.ndarray] = None

    def cost(self, idx: np.ndarray) -> None:
        """Cost windows ``idx`` (both counts positive) in one call, when
        the level starts: the one place these algorithms evaluate the cost
        model."""
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

    # ------------------------------------------------------------------ #
    # quadrant statistics (four real COUNTs per side)
    # ------------------------------------------------------------------ #

    def quad_windows(self) -> np.ndarray:
        """``(N, 4, 4)``: every window's quadrant cells (computed once)."""
        if self._quad_windows is None:
            self._quad_windows = rect_array.quadrant_cells(self.windows)
        return self._quad_windows

    def quadrant_counts(self, sides: Sequence[int], idx: np.ndarray, then: Callable) -> None:
        """COUNT the four quadrants of windows ``idx`` on every side of
        ``sides`` (R before S) in one request each; fill ``self.quads`` and
        call ``then(idx)``.

        Every count is a real COUNT of the quadrant the window rule asks
        (S's grown by the margin).  Section 4.1 derives the fourth as
        ``|Dw| - sum(three)`` to save one query, but that is exact only for
        points in raw quadrants: S's grown quadrants overlap and extended
        objects straddle them, so a derived count undercounts.
        """

        def fill(idx: np.ndarray, *counts: np.ndarray) -> None:
            for side, count in zip(sides, counts):
                self.quads[side][idx] = count.reshape(-1, 4)
            then(idx)

        cells = self.quad_windows()[idx].reshape(-1, 4)
        self.ask(idx, fill, 4, **{SIDES[side]: cells for side in sides})


class FrontierAlgorithm:
    """Base class of the client-side join algorithms, run by the frontier engine.

    It holds what every algorithm shares -- the device handles, the cost
    model, pair collection, the recursion stopping rule and the final
    assembly of a :class:`~repro.core.result.JoinResult` from the measured
    channels -- and executes the algorithm's :class:`LevelTable` level by
    level.  Subclasses name their table (and override :meth:`_root_task`
    when their levels carry flags).

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
    #: The algorithm's decision rule.
    table: Type[LevelTable]

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

    @property
    def buffer_size(self) -> int:
        return self.device.buffer.capacity

    def query_window(self, server_name: str, window: Rect) -> Rect:
        """The window actually sent to one server for a cell: the window
        rule's one-``Rect`` case
        (:meth:`~repro.geometry.predicates.JoinPredicate.request_windows`).

        The reproduction anchors pairs at the R object: R is always queried
        with the unexpanded cell while S is queried with the cell expanded
        by the predicate margin (``epsilon`` for distance joins), so that
        pairs straddling a cell boundary are neither lost by pruning nor
        missed by downloads (Section 3 of the paper extends cells before
        sending them as window queries).
        """
        rows = self.predicate.request_windows(server_name, rect_array.rects_to_array([window]))
        return Rect(*rows[0].tolist())

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
        at :data:`~repro.device.steps.MAX_DEPTH`, or once a cell is too small to split
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
    # the engine
    # ------------------------------------------------------------------ #

    def _root_task(self, window: Rect, count_r: int, count_s: int, depth: int) -> Level:
        """The level of one for the joined window (counts already known)."""
        return Level.root(window, count_r, count_s, depth)

    def run_cooperative(self, window: Rect) -> Steps:
        """Generator form of :meth:`run` for an external driver (the query broker).

        Yields every server evaluation of the run as a step
        (:mod:`repro.device.steps`) -- the root COUNTs, the planning rounds,
        the operators' downloads and probes -- and returns the
        :class:`~repro.core.result.JoinResult` via ``StopIteration``.  A
        driver evaluates a step's rows alone (:meth:`run`) or with other
        queries' (the query broker) but books them on this query's own
        connections in step order, so the run is bit-identical whoever
        drives it.  It is :meth:`_group_steps` of a crew of one."""
        (result,) = yield from self._group_steps(Crew([self]), [window])
        return result

    def _levels(self, crew: Crew, level: Optional[Level]) -> Steps:
        """Per level: the lock-step COUNT rounds of its table, then the
        steps of the batch operators that finish its leaves.  Everything
        else -- decisions, in-memory joins, each member's trace rows
        spliced in window order -- happens inside the generator between
        steps."""
        while level is not None:
            table = yield from self.table(self, level, crew).steps()
            yield from self._run_leaves(table)
            crew.record(table)
            level = crew.survivors(table.children)

    @staticmethod
    def run_group(runs: Sequence[Tuple["FrontierAlgorithm", Rect]]) -> Unit:
        """Run like queries -- ``(algorithm, window)`` pairs of one class,
        spec, parameters, configuration, buffer size and backing builds --
        as one crew: the members' windows share every level table, leaf
        batch and kernel call (a per-window query column says whose each
        one is), while every member keeps its own counters, buffer, pairs,
        trace and spans.  Returns the crew's :class:`~repro.device.steps.Unit`:
        its steps, its members' connections and :meth:`Crew.leave`; its
        result is every member's :class:`~repro.core.result.JoinResult`
        (``None`` for one that left)."""
        crew = Crew([algo for algo, _ in runs])
        steps = crew.algos[0]._group_steps(crew, [window for _, window in runs])
        return Unit(steps, [algo.device.servers for algo in crew.algos], crew.leave)

    def _group_steps(self, crew: Crew, windows: List[Rect]) -> Steps:
        """:meth:`run_cooperative` of every member of ``crew`` at once:
        the root COUNT round, then the members' root windows as one level."""
        algos = crew.algos
        try:
            counts = yield from crew.start(windows)
            roots = {
                q: algos[q]._root_task(windows[q], *count, 0)
                for q, count in enumerate(counts)
                if count is not None
            }
            yield from self._levels(crew, Level.stack(roots))
            results: List[Optional[JoinResult]] = [None] * len(algos)
            for q in np.flatnonzero(crew.alive).tolist():
                results[q] = algos[q]._assemble(windows[q])
            return results
        finally:
            for q in np.flatnonzero(crew.alive).tolist():
                crew.close_spans(q)

    def _run_leaves(self, table: LevelTable) -> Steps:
        """Execute the level's physical-operator leaves through the batch
        operators: one batched download / probe / kernel pipeline per
        operator kind for the whole crew, fed the table's own columns -- no
        object per leaf."""
        crew = table.crew
        live = table.op != 0
        if not crew.alive.all():
            live &= crew.alive[table.query]
        hbsj = np.flatnonzero(live & (table.op == HBSJ))
        nlsj = np.flatnonzero(live & (table.op == NLSJ))
        if not hbsj.size and not nlsj.size:
            return
        # One "leaves" span per member with leaves here.
        opened = []
        n_hbsj = np.bincount(table.query[hbsj], minlength=len(crew)).tolist()
        n_nlsj = np.bincount(table.query[nlsj], minlength=len(crew)).tolist()
        for q, algo in enumerate(crew.algos):
            span = algo._obs_span
            if span is not None and crew.alive[q] and n_hbsj[q] + n_nlsj[q]:
                leaves_span = span.child(
                    "leaves",
                    sim=algo.device.sim_now(),
                    batch=algo._obs_leaf_batch,
                    hbsj=n_hbsj[q],
                    nlsj=n_nlsj[q],
                )
                algo._obs_leaf_batch += 1
                crew.spans[q].append(leaves_span)
                opened.append((q, leaves_span))
        try:
            if hbsj.size:
                # Estimated counts are not forwarded: the operator issues its
                # own COUNTs -- the paper's "issue additional aggregate queries
                # only when accuracy is crucial, i.e. when applying the
                # physical operators".
                exact = table.counts_exact[hbsj]
                query = table.query[hbsj]
                found = yield from crew.devices.hbsj_steps(
                    HBSJColumns(
                        table.windows[hbsj],
                        np.where(exact, table.int_r[hbsj], UNKNOWN),
                        np.where(exact, table.int_s[hbsj], UNKNOWN),
                        query,
                    ),
                    self.predicate,
                )
                crew.add_pairs(found, query)
            if nlsj.size:
                query = table.query[nlsj]
                found = yield from crew.devices.nlsj_steps(
                    NLSJColumns(table.windows[nlsj], table.outer_s[nlsj], query),
                    self.predicate,
                    bucket=self.params.bucket_queries,
                )
                crew.add_pairs(found, query)
        finally:
            for q, leaves_span in opened:
                if crew.alive[q]:
                    crew.spans[q].remove(leaves_span)
                    leaves_span.close(sim=crew.algos[q].device.sim_now())

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
