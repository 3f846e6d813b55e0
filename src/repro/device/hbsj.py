"""HBSJ -- the hash-based spatial join physical operator.

``HBSJ(w)`` downloads every R object intersecting ``w`` and every S object
intersecting the epsilon-expanded window, then joins them on the device
with the epsilon-cell join kernel.  When the two downloads would not fit
in the device buffer, the operator recursively partitions ``w`` into
quadrants, prunes empty quadrants with COUNT queries and retries -- exactly
the "decompose the window into several subparts which can be accommodated
in the PDA's memory" behaviour described in Sections 4.1/4.2 of the paper.

Correctness over partitions (anchored-at-R scheme): for any qualifying pair
``(r, s)`` the cell containing the contact point of ``r`` downloads ``r``
(unexpanded R window) and ``s`` (S window grown by epsilon), so a set of
cells that tile a region discovers every pair at least once; the global
result set deduplicates pairs rediscovered by neighbouring cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro.device.buffer import DeviceBuffer, capacity, hold_each_in_turn
from repro.device.nlsj import NLSJColumns, nested_loop_spatial_join_steps
from repro.device.steps import COUNT, WINDOW, OperatorTable, Request, Shared, Steps
from repro.geometry import rect_array
from repro.geometry.predicates import JoinPredicate
from repro.geometry.rect import Rect
from repro.index.hash_join import JoinBatch, grid_hash_join_batch
from repro.index.pairs import PairBlocks

__all__ = [
    "HBSJColumns",
    "HBSJRequest",
    "HBSJResult",
    "HBSJTable",
    "UNKNOWN",
    "hash_based_spatial_join_steps",
    "too_small_to_split",
]

#: Safety valve against pathological inputs (e.g. more coincident points
#: than the buffer holds); beyond this depth, or when a window becomes too
#: small for further partitioning to separate data, the operator falls back
#: to buffer-friendly nested-loop probing instead of splitting forever.
MAX_RECURSION_DEPTH = 16
#: The "not known" mark of a count column: the operator issues its own COUNT.
UNKNOWN = -1


@dataclass(frozen=True)
class HBSJRequest:
    """One HBSJ invocation requested from the batch executor.

    ``count_r`` / ``count_s`` carry already-known exact counts (R over the
    window, S over the margin-expanded window); ``None`` means the executor
    issues its own feasibility COUNTs.
    """

    window: Rect
    count_r: Optional[int] = None
    count_s: Optional[int] = None


@dataclass
class HBSJResult:
    """Outcome of one HBSJ invocation (``pairs`` in discovery order)."""

    pairs: PairBlocks = field(default_factory=PairBlocks)
    windows_joined: int = 0
    windows_pruned: int = 0
    recursive_splits: int = 0
    count_queries: int = 0
    objects_downloaded_r: int = 0
    objects_downloaded_s: int = 0
    nlsj_fallbacks: int = 0


class HBSJColumns(NamedTuple):
    """Many HBSJ invocations as columns: what the operator body runs on."""

    #: ``(N, 4)`` windows.
    windows: np.ndarray
    #: ``(N,)`` ``int64`` trusted counts (R over the window, S over the
    #: margin-expanded window); :data:`UNKNOWN` where there is none.
    count_r: np.ndarray
    count_s: np.ndarray
    #: ``(N,)`` ascending query of every invocation in its query group
    #: (``None``: all are the group's first query's).
    query: Optional[np.ndarray] = None

    @classmethod
    def of(cls, requests: "HBSJRequests") -> "HBSJColumns":
        """The columns of a request list (columns pass through)."""
        if isinstance(requests, cls):
            return requests

        def column(counts) -> np.ndarray:
            return np.array([UNKNOWN if c is None else c for c in counts], dtype=np.int64)

        return cls(
            rect_array.rects_to_array([req.window for req in requests]),
            column(req.count_r for req in requests),
            column(req.count_s for req in requests),
        )


HBSJRequests = Union[HBSJColumns, Sequence[HBSJRequest]]


class HBSJTable(OperatorTable):
    """The outcomes of many HBSJ invocations; a ``Sequence[HBSJResult]``."""

    counters = tuple(f.name for f in fields(HBSJResult))[1:]  # all but ``pairs``

    def result(self, i: int, pairs, **counters: int) -> HBSJResult:
        return HBSJResult(pairs, **counters)


def hash_based_spatial_join_steps(
    requests: HBSJColumns, predicate: JoinPredicate, buffers: Sequence[Optional[DeviceBuffer]]
) -> Steps:
    """The HBSJ operator for many invocations, as a step generator.

    ``requests`` are the invocations' columns, their query column filled
    in (:class:`~repro.device.pda.DeviceGroup`); the body returns an
    :class:`HBSJTable`.  Per-invocation results and the wire bytes are
    those of running the invocations one at a time (pinned against the
    depth-first ``tests/oracles/operators_scalar.py``).
    The quadrant recursion is a frontier whose worklist is columns -- the
    ``(C, 4)`` cells of a depth, the invocation each belongs to (ascending)
    and their two counts: the feasibility COUNTs of every active cell travel
    in one step, the quadrant-split COUNTs and the downloads of a level in
    the next (one request per server and kind; :mod:`repro.device.steps`),
    the prune / join / split / fallback classes are masks, and the joins of
    all buffer-feasible cells are one segmented grid-hash kernel call whose
    block is kept whole.

    The invocations are a query group's (one query's, standalone): every
    step is :class:`~repro.device.steps.Shared` and a download is held on
    the buffer of the query that asked for it (``buffers`` is indexed by
    the query column).
    """
    cells, count_r, count_s, query = requests
    table = HBSJTable(cells.shape[0])
    owner = np.arange(table.n, dtype=np.intp)
    count_r, count_s = count_r.copy(), count_s.copy()
    rule = predicate.request_windows
    room = capacity(buffers)

    depth = 0
    while cells.shape[0]:
        # Resolve missing feasibility counts: one COUNT request per server
        # (the window rule's windows of the cells).
        need_r, need_s = np.flatnonzero(count_r == UNKNOWN), np.flatnonzero(count_s == UNKNOWN)
        step, rows = [], []
        for side, need in (("R", need_r), ("S", need_s)):
            if need.size:
                step.append(Request(COUNT, side, (rule(side, cells[need]),)))
                rows.append(need)
        if step:
            answers = iter((yield _shared(step, query, owner, rows)))
            for need, counts in ((need_r, count_r), (need_s, count_s)):
                if need.size:
                    counts[need] = next(answers)
                    np.add.at(table.count_queries, owner[need], 1)

        empty = (count_r == 0) | (count_s == 0)
        fits = ~empty & (count_r + count_s <= room)
        over = ~empty & ~fits
        stuck = over & _unsplittable(cells, predicate, depth)
        joins, splits, fallbacks = (np.flatnonzero(m) for m in (fits, over & ~stuck, stuck))
        np.add.at(table.windows_pruned, owner[empty], 1)

        # One step for the level: the per-quadrant feasibility COUNTs of
        # every splitting cell, then the downloads of every feasible one.
        step, rows = [], []
        if splits.size:
            children = rect_array.quadrant_cells(cells[splits]).reshape(-1, 4)
            step += _both_sides(COUNT, children, rule)
            rows += [np.repeat(splits, 4)] * 2
        if joins.size:
            step += _both_sides(WINDOW, cells[joins], rule)
            rows += [joins] * 2
        answers = (yield _shared(step, query, owner, rows)) if step else []

        # Feasible cells arrive in CSR form, which is what the batch kernel
        # joins -- no per-cell split, and its block is kept as it is.
        if joins.size:
            flat_r, flat_s = answers[-2:]
            pairs, starts = grid_hash_join_batch(JoinBatch(*flat_r, *flat_s), predicate)
            got_r, got_s = np.diff(flat_r[2]), np.diff(flat_s[2])
            mine = owner[joins]
            np.add.at(table.objects_downloaded_r, mine, got_r)
            np.add.at(table.objects_downloaded_s, mine, got_s)
            np.add.at(table.windows_joined, mine, 1)
            hold_each_in_turn(buffers, got_r + got_s, query[mine])
            table.add_pairs(pairs, np.repeat(mine, np.diff(starts)))

        # Un-splittable over-budget cells: finish with batched NLSJ (outer R).
        if fallbacks.size:
            mine = owner[fallbacks]
            probed = yield from nested_loop_spatial_join_steps(
                NLSJColumns(
                    cells[fallbacks],
                    np.zeros(fallbacks.size, dtype=bool),
                    query[mine],
                ),
                predicate,
                buffers,
                bucket=False,
            )
            np.add.at(table.nlsj_fallbacks, mine, 1)
            np.add.at(table.objects_downloaded_r, mine, probed.outer_objects)
            np.add.at(table.objects_downloaded_s, mine, probed.inner_objects_received)
            for pairs, sub in zip(probed.pairs.blocks, probed.owners):
                table.add_pairs(pairs, mine[sub])

        if not splits.size:
            break
        np.add.at(table.recursive_splits, owner[splits], 1)
        np.add.at(table.count_queries, owner[splits], 8)
        cells, owner = children, np.repeat(owner[splits], 4)
        count_r, count_s = (np.asarray(answer, dtype=np.int64) for answer in answers[:2])
        depth += 1
        if any(buffer is None for buffer in buffers):
            # A query left the group: its cells go with the depth they are in.
            alive = np.array([buffer is not None for buffer in buffers])
            keep = np.flatnonzero(alive[query[owner]])
            cells, owner, count_r, count_s = (c[keep] for c in (cells, owner, count_r, count_s))
    return table


def _shared(step, query, owner: np.ndarray, rows: List[np.ndarray]):
    """``step`` over the cells ``rows[i]`` of request ``i`` (see :class:`Shared`)."""
    return Shared(step, [query[owner[cells]] for cells in rows])


def _both_sides(kind, cells: np.ndarray, rule) -> List[Request]:
    """One request per server over the cells, through the window rule."""
    return [Request(kind, side, (rule(side, cells),)) for side in ("R", "S")]


def _unsplittable(cells: np.ndarray, predicate: JoinPredicate, depth: int) -> np.ndarray:
    """Where splitting cannot shrink the working set: the recursion is at
    its depth limit, or the cells are too small to split (``True`` per
    cell; the fallback is NLSJ probing)."""
    if depth >= MAX_RECURSION_DEPTH:
        return np.ones(cells.shape[0], dtype=bool)
    return too_small_to_split(cells, predicate.window_margin)


def too_small_to_split(cells: np.ndarray, margin: float) -> np.ndarray:
    """``True`` per ``(N, 4)`` cell whose children would be smaller than
    twice the S-side expansion ``margin``: every child's expanded S window
    would cover nearly the parent's.  The operator's and the algorithms'
    one rule; each keeps its own depth limit."""
    if margin <= 0:
        return np.zeros(cells.shape[0], dtype=bool)
    extent = np.minimum(cells[:, 2] - cells[:, 0], cells[:, 3] - cells[:, 1])
    return extent / 2.0 <= 2.0 * margin
