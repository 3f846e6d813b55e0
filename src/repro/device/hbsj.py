"""HBSJ -- the hash-based spatial join physical operator.

``HBSJ(w)`` downloads every R object intersecting ``w`` and every S object
intersecting the epsilon-expanded window, then joins them on the device
with the PBSM-style grid-hash kernel.  When the two downloads would not fit
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

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.device.buffer import DeviceBuffer
from repro.device.nlsj import NLSJRequest, nested_loop_spatial_join_steps
from repro.device.steps import COUNT, WINDOW, Request, Steps, run_steps
from repro.geometry import rect_array
from repro.geometry.predicates import JoinPredicate
from repro.geometry.rect import Rect
from repro.index.hash_join import JoinBatch, grid_hash_join_batch
from repro.index.pairs import PairBlocks
from repro.server.remote import ServerPair

__all__ = [
    "HBSJRequest",
    "HBSJResult",
    "hash_based_spatial_join",
    "hash_based_spatial_join_batch",
    "hash_based_spatial_join_steps",
]

#: Safety valve against pathological inputs (e.g. more coincident points
#: than the buffer holds); beyond this depth, or when a window becomes too
#: small for further partitioning to separate data, the operator falls back
#: to buffer-friendly nested-loop probing instead of splitting forever.
MAX_RECURSION_DEPTH = 16


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

    def merge(self, other: "HBSJResult") -> None:
        self.pairs.extend(other.pairs)
        self.windows_joined += other.windows_joined
        self.windows_pruned += other.windows_pruned
        self.recursive_splits += other.recursive_splits
        self.count_queries += other.count_queries
        self.objects_downloaded_r += other.objects_downloaded_r
        self.objects_downloaded_s += other.objects_downloaded_s
        self.nlsj_fallbacks += other.nlsj_fallbacks


def hash_based_spatial_join(
    servers: ServerPair,
    window: Rect,
    predicate: JoinPredicate,
    buffer: DeviceBuffer,
    count_r: Optional[int] = None,
    count_s: Optional[int] = None,
) -> HBSJResult:
    """Execute HBSJ on ``window``: the one-request case of the batch form.

    Parameters
    ----------
    servers:
        Metered connections to the R and S servers.
    window:
        The window to join (R-side query window; the S side is expanded by
        the predicate's margin).
    predicate:
        Join predicate; its ``window_margin`` drives the S-side expansion.
    buffer:
        The device buffer; both downloads must fit simultaneously.
    count_r, count_s:
        Known object counts (R over ``window``, S over the expanded window)
        from earlier COUNT queries.  When provided they are trusted and no
        extra COUNT is issued for the feasibility check; otherwise the
        operator issues its own counts.
    """
    return hash_based_spatial_join_batch(
        servers, [HBSJRequest(window, count_r, count_s)], predicate, buffer
    )[0]


def hash_based_spatial_join_batch(
    servers: ServerPair,
    requests: Sequence[HBSJRequest],
    predicate: JoinPredicate,
    buffer: DeviceBuffer,
) -> List[HBSJResult]:
    """Execute many HBSJ invocations: :func:`hash_based_spatial_join_steps`
    driven through the query's own connections."""
    return run_steps(hash_based_spatial_join_steps(requests, predicate, buffer), servers)


class _Cell:
    """One window of the operator's worklist."""

    __slots__ = ("idx", "window", "count_r", "count_s", "depth")

    def __init__(
        self,
        idx: int,
        window: Rect,
        count_r: Optional[int],
        count_s: Optional[int],
        depth: int,
    ) -> None:
        self.idx = idx  # the request this window belongs to
        self.window = window
        self.count_r = count_r
        self.count_s = count_s
        self.depth = depth


def hash_based_spatial_join_steps(
    requests: Sequence[HBSJRequest], predicate: JoinPredicate, buffer: DeviceBuffer
) -> Steps:
    """The HBSJ operator for many invocations, as a step generator.

    Per-request results (pairs and all counters) and the wire bytes are
    those of running the requests one at a time (pinned against the
    depth-first ``tests/oracles/operators_scalar.py``): the operator's
    internal quadrant recursion is processed as a frontier, so the
    feasibility COUNTs of every active window travel in one step, the
    quadrant-split COUNTs and the window downloads of a recursion level in
    the next (one request per server and kind; see
    :mod:`repro.device.steps`), and the in-memory joins of all
    buffer-feasible windows collapse into a single segmented grid-hash
    kernel call.  Returns the ``List[HBSJResult]``.
    """
    margin = predicate.window_margin

    def ask(kind, cells: List[_Cell], sides=(0, 1)) -> List[Request]:
        """One request per side over the cells: R is asked for the raw
        ``(N, 4)`` rows, S for the rows grown by the margin."""
        rows = rect_array.rects_to_array([cell.window for cell in cells])
        both = rows, rect_array.expand(rows, margin)
        return [Request(kind, "RS"[side], (both[side],)) for side in sides]

    results = [HBSJResult() for _ in requests]
    cells = [
        _Cell(i, req.window, req.count_r, req.count_s, 0) for i, req in enumerate(requests)
    ]
    while cells:
        # Resolve missing feasibility counts: one COUNT request per server.
        step, asked = [], []
        for side, count in enumerate(("count_r", "count_s")):
            need = [cell for cell in cells if getattr(cell, count) is None]
            if need:
                step += ask(COUNT, need, (side,))
                asked.append((count, need))
        if step:
            for (count, need), values in zip(asked, (yield step)):
                for cell, value in zip(need, values):
                    setattr(cell, count, int(value))
                    results[cell.idx].count_queries += 1

        joins: List[_Cell] = []
        splits: List[_Cell] = []
        fallbacks: List[_Cell] = []
        for cell in cells:
            if cell.count_r == 0 or cell.count_s == 0:
                results[cell.idx].windows_pruned += 1
            elif cell.count_r + cell.count_s <= buffer.capacity:
                joins.append(cell)
            elif cell.depth >= MAX_RECURSION_DEPTH or _too_small_to_split(cell.window, margin):
                fallbacks.append(cell)
            else:
                splits.append(cell)

        # One step for the level: the per-quadrant feasibility COUNTs of
        # every splitting window, then the downloads of every feasible one.
        step = []
        if splits:
            children = [
                _Cell(cell.idx, quadrant, None, None, cell.depth + 1)
                for cell in splits
                for quadrant in cell.window.quadrants()
            ]
            step += ask(COUNT, children)
        if joins:
            step += ask(WINDOW, joins)
        answers = (yield step) if step else []

        cells = []
        if splits:
            counts_r, counts_s, *answers = answers
            for cell in splits:
                results[cell.idx].recursive_splits += 1
                results[cell.idx].count_queries += 8
            for child, count_r, count_s in zip(children, counts_r, counts_s):
                child.count_r, child.count_s = int(count_r), int(count_s)
            cells = children

        # Feasible windows arrive in CSR form, which is what the batch
        # kernel joins -- no per-window split.
        if joins:
            flat_r, flat_s = answers
            pairs, starts = grid_hash_join_batch(JoinBatch(*flat_r, *flat_s), predicate)
            got_r = np.diff(flat_r[2]).tolist()
            got_s = np.diff(flat_s[2]).tolist()
            starts = starts.tolist()
            for cell, n_r, n_s, lo, hi in zip(joins, got_r, got_s, starts, starts[1:]):
                result = results[cell.idx]
                result.objects_downloaded_r += n_r
                result.objects_downloaded_s += n_s
                token = buffer.allocate(n_r + n_s)
                try:
                    if hi > lo:
                        result.pairs.extend(pairs[lo:hi])
                    result.windows_joined += 1
                finally:
                    buffer.release(token)

        # Un-splittable over-budget windows: finish with batched NLSJ.
        if fallbacks:
            sub_results = yield from nested_loop_spatial_join_steps(
                [NLSJRequest(window=cell.window, outer="R") for cell in fallbacks],
                predicate,
                buffer,
                bucket=False,
            )
            for cell, nlsj in zip(fallbacks, sub_results):
                result = results[cell.idx]
                result.pairs.extend(nlsj.pairs)
                result.nlsj_fallbacks += 1
                result.objects_downloaded_r += nlsj.outer_objects
                result.objects_downloaded_s += nlsj.inner_objects_received
    return results


def _too_small_to_split(window: Rect, margin: float) -> bool:
    """True when child cells would be dominated by the S-side expansion."""
    if margin <= 0:
        return False
    return min(window.width, window.height) / 2.0 <= 2.0 * margin
