"""Plane-sweep in-memory join kernel.

The mobile device joins two downloaded object sets in memory.  For small
sets a plane sweep along the x-axis is the standard filter-step kernel
(Brinkhoff et al., SIGMOD 1993, adapted to unindexed inputs): sort both
inputs by ``xmin`` and sweep, testing only pairs whose x-extents overlap
(within ``epsilon`` for distance joins).

The kernel works on ``(N, 4)`` MBR arrays plus parallel oid arrays and
returns oid pairs.  It is exact (no false negatives) for both intersection
and epsilon-distance predicates.

:func:`plane_sweep_pair_arrays_segmented` is the kernel: many independent
sweeps in one call (:func:`plane_sweep_pair_arrays` is its one-segment
case).  The sweep is expressed entirely in NumPy: each side is ordered once
by a composite ``(segment, xmin)`` key, candidate runs for every lead
rectangle are located with ``searchsorted`` passes over those keys (one
pair per lead side), expanded into flat index arrays, and the exact
predicate is evaluated over all candidates at once.  No per-object Python
loop remains; the original per-lead sweep is the test oracle
``tests/oracles/plane_sweep_scalar.py`` (``tests/test_leaf_pipeline.py``).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.geometry.rect_array import expand_index_ranges
from repro.geometry.predicates import JoinPredicate, WithinDistancePredicate

__all__ = [
    "plane_sweep_join",
    "plane_sweep_pairs",
    "plane_sweep_pair_arrays",
    "plane_sweep_pair_arrays_segmented",
]


def plane_sweep_pair_arrays(
    a_mbrs: np.ndarray,
    b_mbrs: np.ndarray,
    predicate: JoinPredicate,
) -> Tuple[np.ndarray, np.ndarray]:
    """All index pairs ``(i, j)`` with ``predicate(a[i], b[j])`` true.

    Returns two parallel ``intp`` arrays of positional indices into the two
    input arrays.  Each qualifying pair appears exactly once; the order is
    an implementation detail (callers needing determinism sort).  This is
    the one-segment case of :func:`plane_sweep_pair_arrays_segmented`.
    """
    return plane_sweep_pair_arrays_segmented(
        a_mbrs,
        np.zeros(a_mbrs.shape[0], dtype=np.int64),
        b_mbrs,
        np.zeros(b_mbrs.shape[0], dtype=np.int64),
        predicate,
    )


def plane_sweep_pair_arrays_segmented(
    a_mbrs: np.ndarray,
    a_segs: np.ndarray,
    b_mbrs: np.ndarray,
    b_segs: np.ndarray,
    predicate: JoinPredicate,
) -> Tuple[np.ndarray, np.ndarray]:
    """Many independent plane sweeps over concatenated inputs, in one call.

    ``a_segs`` / ``b_segs`` assign every row to a *segment* (a non-negative
    integer id); a pair ``(i, j)`` qualifies only when both rows share a
    segment and ``predicate(a[i], b[j])`` holds.  The result is exactly the
    concatenation of :func:`plane_sweep_pair_arrays` run per segment, but
    the candidate generation and the predicate evaluation happen in one
    vectorised pass over all segments -- this is how the frontier operator
    batching collapses hundreds of tiny per-window (or per-bucket) sweep
    invocations into a single kernel call.

    Ordering argument.  Each side is sorted once, by the float key
    ``K(seg, x) = seg * span + (x - lo)`` of its ``xmin``: ``lo`` is the
    smallest ``xmin`` of the call, ``span`` a power of two above its
    x-extent (``eps`` included), so ``seg * span`` is exact and every
    offset lies in ``[0, span)``.  Float rounding is monotone, hence ``K``
    never decreases along ``(seg, x)`` order -- it may only *tie* where it
    runs out of bits (coordinates near ``1e12`` under segment ids near
    ``1e6``).  That is all the sweep needs:

    * *range starts are exact.*  Pass 1 pairs lead ``a`` with the ``b`` of
      ``K(b) >= K(a)``, pass 2 lead ``b`` with the ``a`` of ``K(a) >
      K(b)``.  The two conditions are complementary on the very same keys,
      so every pair is enumerated at most once whatever the rounding, and
      ``a`` leads on equal keys as it does on equal ``xmin``.
    * *range ends are supersets.*  A lead's run ends at ``K(seg, xmax +
      eps)``, the same function of a larger ``x``; by monotonicity no row
      the scalar sweep would reach has a larger key, so no slack is added
      and none is needed.  Where keys tie the run also holds rows of
      neighbouring ``x`` or neighbouring segments: the candidates grow, and
      the mask -- segment equality, the sweep's own x-cut ``other.xmin <=
      lead.xmax + eps`` (both ways round, which is the cut of whichever row
      leads) and the exact predicate -- removes them again.

    No input takes another path: there is no ``lexsort``, no ``unique``
    and no rank table, one stable ``argsort`` per side.
    """
    na, nb = a_mbrs.shape[0], b_mbrs.shape[0]
    if na == 0 or nb == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    if a_segs.shape[0] != na or b_segs.shape[0] != nb:
        raise ValueError("segment arrays must be parallel to the MBR arrays")
    eps = predicate.probe_radius() if isinstance(predicate, WithinDistancePredicate) else 0.0

    # Coordinate columns, contiguous: every later gather is a column take.
    a_cols, b_cols = np.ascontiguousarray(a_mbrs.T), np.ascontiguousarray(b_mbrs.T)
    lo = min(a_cols[0].min(), b_cols[0].min())
    extent = (max(a_cols[2].max(), b_cols[2].max()) + eps) - lo
    span = np.ldexp(1.0, np.frexp(extent)[1])

    def ordered(cols: np.ndarray, segs: np.ndarray):
        """One side in key order: its permutation, columns, segments, and
        the keys its runs start (``xmin``) and end (``xmax + eps``) at."""
        segs = np.asarray(segs, dtype=np.int64)
        order = np.argsort(segs * span + (cols[0] - lo), kind="stable")
        cols, segs = cols.take(order, axis=1), segs.take(order)
        base = segs * span
        return order, cols, segs, base + (cols[0] - lo), base + ((cols[2] + eps) - lo)

    a_order, a_cols, a_segs, a_key, a_end = ordered(a_cols, a_segs)
    b_order, b_cols, b_segs, b_key, b_end = ordered(b_cols, b_segs)

    lead_a, cand_b = expand_index_ranges(
        np.searchsorted(b_key, a_key, side="left"), np.searchsorted(b_key, a_end, side="right")
    )
    lead_b, cand_a = expand_index_ranges(
        np.searchsorted(a_key, b_key, side="right"), np.searchsorted(a_key, b_end, side="right")
    )
    i_idx = np.concatenate([lead_a, cand_a])
    j_idx = np.concatenate([cand_b, lead_b])
    if i_idx.shape[0] == 0:
        return i_idx, j_idx

    ax0, ay0, ax1, ay1 = (col.take(i_idx) for col in a_cols)
    bx0, by0, bx1, by1 = (col.take(j_idx) for col in b_cols)
    dx = np.maximum(np.maximum(ax0 - bx1, 0.0), bx0 - ax1)
    dy = np.maximum(np.maximum(ay0 - by1, 0.0), by0 - ay1)
    if eps > 0.0:
        mask = dx * dx + dy * dy <= eps * eps
        mask &= (bx0 <= ax1 + eps) & (ax0 <= bx1 + eps)
    else:
        # Touching or overlapping extents: the x-cut is the predicate's own.
        mask = (dx <= 0.0) & (dy <= 0.0)
    mask &= a_segs.take(i_idx) == b_segs.take(j_idx)
    return a_order.take(i_idx[mask]), b_order.take(j_idx[mask])


def plane_sweep_pairs(
    a_mbrs: np.ndarray,
    b_mbrs: np.ndarray,
    predicate: JoinPredicate,
) -> List[Tuple[int, int]]:
    """All index pairs ``(i, j)`` with ``predicate(a[i], b[j])`` true.

    Returns positional indices into the two arrays; use
    :func:`plane_sweep_join` to get oid pairs directly.
    """
    i_idx, j_idx = plane_sweep_pair_arrays(a_mbrs, b_mbrs, predicate)
    return list(zip(i_idx.tolist(), j_idx.tolist()))


def plane_sweep_join(
    a_mbrs: np.ndarray,
    a_oids: np.ndarray,
    b_mbrs: np.ndarray,
    b_oids: np.ndarray,
    predicate: JoinPredicate,
) -> List[Tuple[int, int]]:
    """Join two MBR arrays, returning ``(a_oid, b_oid)`` pairs."""
    i_idx, j_idx = plane_sweep_pair_arrays(a_mbrs, b_mbrs, predicate)
    a_sel = np.asarray(a_oids)[i_idx]
    b_sel = np.asarray(b_oids)[j_idx]
    return [(int(a), int(b)) for a, b in zip(a_sel.tolist(), b_sel.tolist())]
