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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.device.buffer import DeviceBuffer
from repro.geometry.predicates import JoinPredicate
from repro.geometry.rect import Rect
from repro.index.hash_join import JoinBatch, grid_hash_join_batch
from repro.server.remote import ServerPair

__all__ = [
    "HBSJRequest",
    "HBSJResult",
    "hash_based_spatial_join",
    "hash_based_spatial_join_batch",
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
    """Outcome of one HBSJ invocation."""

    pairs: List[Tuple[int, int]] = field(default_factory=list)
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
    """Execute many HBSJ invocations with level-order batched exchanges.

    Per-request results (pairs and all counters) and the wire bytes are
    those of running the requests one at a time (pinned against the
    depth-first ``tests/oracles/operators_scalar.py``): the operator's
    internal quadrant recursion is processed as a frontier, so the
    feasibility COUNTs, the quadrant-split COUNTs and the window downloads
    of every active window at a recursion step travel in one batched
    exchange per server, and the in-memory joins of all buffer-feasible
    windows collapse into a single segmented grid-hash kernel call.
    """
    from repro.device.nlsj import (  # local: avoid cycle
        NLSJRequest,
        nested_loop_spatial_join_batch,
    )

    margin = predicate.window_margin
    results = [HBSJResult() for _ in requests]
    # Worklist items: (request idx, window, expanded S window, cr, cs, depth).
    items: List[Tuple[int, Rect, Rect, Optional[int], Optional[int], int]] = [
        (
            i,
            req.window,
            req.window.expanded(margin) if margin > 0 else req.window,
            req.count_r,
            req.count_s,
            0,
        )
        for i, req in enumerate(requests)
    ]
    while items:
        # Resolve missing feasibility counts, one COUNT batch per server.
        need_r = [k for k, it in enumerate(items) if it[3] is None]
        if need_r:
            got = servers.r.count_batch([items[k][1] for k in need_r])
            for k, value in zip(need_r, got):
                idx, w, ws, _, cs, depth = items[k]
                items[k] = (idx, w, ws, int(value), cs, depth)
                results[idx].count_queries += 1
        need_s = [k for k, it in enumerate(items) if it[4] is None]
        if need_s:
            got = servers.s.count_batch([items[k][2] for k in need_s])
            for k, value in zip(need_s, got):
                idx, w, ws, cr, _, depth = items[k]
                items[k] = (idx, w, ws, cr, int(value), depth)
                results[idx].count_queries += 1

        joins: List[Tuple[int, Rect, Rect]] = []
        splits: List[Tuple[int, Rect, int]] = []
        fallbacks: List[Tuple[int, Rect]] = []
        for idx, w, ws, cr, cs, depth in items:
            if cr == 0 or cs == 0:
                results[idx].windows_pruned += 1
            elif cr + cs <= buffer.capacity:
                joins.append((idx, w, ws))
            elif depth >= MAX_RECURSION_DEPTH or _too_small_to_split(w, margin):
                fallbacks.append((idx, w))
            else:
                splits.append((idx, w, depth))

        # Splits: batch the per-quadrant feasibility COUNTs of every
        # splitting window into one exchange per server.
        next_items: List[Tuple[int, Rect, Rect, Optional[int], Optional[int], int]] = []
        if splits:
            split_quads = [w.quadrants() for _, w, _ in splits]
            all_quads: List[Rect] = [q for quads in split_quads for q in quads]
            quad_counts_r = servers.r.count_batch(all_quads)
            quad_counts_s = servers.s.count_batch(
                [q.expanded(margin) if margin > 0 else q for q in all_quads]
            )
            pos = 0
            for (idx, w, depth), quads in zip(splits, split_quads):
                results[idx].recursive_splits += 1
                results[idx].count_queries += 8
                for quadrant in quads:
                    next_items.append(
                        (
                            idx,
                            quadrant,
                            quadrant.expanded(margin) if margin > 0 else quadrant,
                            int(quad_counts_r[pos]),
                            int(quad_counts_s[pos]),
                            depth + 1,
                        )
                    )
                    pos += 1

        # Feasible windows: one WINDOW batch per server, answered in CSR
        # form, which is what the batch kernel joins -- no per-window split.
        if joins:
            flat_r = servers.r.window_batch_flat([w for _, w, _ in joins])
            flat_s = servers.s.window_batch_flat([ws for _, _, ws in joins])
            pair_lists = grid_hash_join_batch(JoinBatch(*flat_r, *flat_s), predicate)
            got_r = np.diff(flat_r[2]).tolist()
            got_s = np.diff(flat_s[2]).tolist()
            for (idx, _, _), n_r, n_s, pairs in zip(joins, got_r, got_s, pair_lists):
                result = results[idx]
                result.objects_downloaded_r += n_r
                result.objects_downloaded_s += n_s
                token = buffer.allocate(n_r + n_s)
                try:
                    result.pairs.extend(pairs)
                    result.windows_joined += 1
                finally:
                    buffer.release(token)

        # Un-splittable over-budget windows: finish with batched NLSJ.
        if fallbacks:
            sub_results = nested_loop_spatial_join_batch(
                servers,
                [NLSJRequest(window=w, outer="R") for _, w in fallbacks],
                predicate,
                buffer,
                bucket=False,
            )
            for (idx, _), nlsj in zip(fallbacks, sub_results):
                result = results[idx]
                result.pairs.extend(nlsj.pairs)
                result.nlsj_fallbacks += 1
                result.objects_downloaded_r += nlsj.outer_objects
                result.objects_downloaded_s += nlsj.inner_objects_received

        items = next_items
    return results


def _too_small_to_split(window: Rect, margin: float) -> bool:
    """True when child cells would be dominated by the S-side expansion."""
    if margin <= 0:
        return False
    return min(window.width, window.height) / 2.0 <= 2.0 * margin
