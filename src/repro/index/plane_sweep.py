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
case).  The sweep is expressed entirely in NumPy: candidate runs for every
lead rectangle are located with two ``searchsorted`` passes (one per lead
side), expanded into flat index arrays, and the exact predicate is
evaluated over all candidates at once.  No per-object Python loop remains;
the original per-lead sweep is the test oracle
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

    The within-segment x-ordering is reduced to integer ranks over the
    union of all boundary values, so the composite ``(segment, x)`` keys
    compare exactly like the per-segment float comparisons -- no precision
    is lost to key packing, and the sweep's tie rule (A leads on equal
    xmin) is preserved verbatim.
    """
    na, nb = a_mbrs.shape[0], b_mbrs.shape[0]
    if na == 0 or nb == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    if a_segs.shape[0] != na or b_segs.shape[0] != nb:
        raise ValueError("segment arrays must be parallel to the MBR arrays")
    eps = predicate.probe_radius() if isinstance(predicate, WithinDistancePredicate) else 0.0

    a_seg = np.asarray(a_segs, dtype=np.int64)
    b_seg = np.asarray(b_segs, dtype=np.int64)
    a_order = np.lexsort((a_mbrs[:, 0], a_seg))
    b_order = np.lexsort((b_mbrs[:, 0], b_seg))
    a_sorted = a_mbrs[a_order]
    b_sorted = b_mbrs[b_order]
    a_seg_s = a_seg[a_order]
    b_seg_s = b_seg[b_order]
    ax = a_sorted[:, 0]
    bx = b_sorted[:, 0]
    ax_hi = a_sorted[:, 2] + eps
    bx_hi = b_sorted[:, 2] + eps

    # Exact integer ranks of every boundary value: v1 <= v2 iff
    # rank(v1) <= rank(v2) because all four arrays' values are present in
    # the union.
    uniq = np.unique(np.concatenate([ax, ax_hi, bx, bx_hi]))
    r_ax = np.searchsorted(uniq, ax)
    r_axhi = np.searchsorted(uniq, ax_hi)
    r_bx = np.searchsorted(uniq, bx)
    r_bxhi = np.searchsorted(uniq, bx_hi)
    stride = np.int64(uniq.shape[0] + 1)
    a_key = a_seg_s * stride + r_ax
    b_key = b_seg_s * stride + r_bx

    # Same disjoint two-pass enumeration as the unsegmented kernel, with
    # the segment id folded into the sort key: pass 1 takes bx >= ax, pass
    # 2 takes ax > bx, both within the lead's segment only.
    lead_a, cand_b = expand_index_ranges(
        np.searchsorted(b_key, a_seg_s * stride + r_ax, side="left"),
        np.searchsorted(b_key, a_seg_s * stride + r_axhi, side="right"),
    )
    lead_b, cand_a = expand_index_ranges(
        np.searchsorted(a_key, b_seg_s * stride + r_bx, side="right"),
        np.searchsorted(a_key, b_seg_s * stride + r_bxhi, side="right"),
    )
    i_idx = np.concatenate([lead_a, cand_a])
    j_idx = np.concatenate([cand_b, lead_b])
    if i_idx.shape[0] == 0:
        return i_idx, j_idx

    a_sel = a_sorted[i_idx]
    b_sel = b_sorted[j_idx]
    dx = np.maximum(np.maximum(a_sel[:, 0] - b_sel[:, 2], 0.0), b_sel[:, 0] - a_sel[:, 2])
    dy = np.maximum(np.maximum(a_sel[:, 1] - b_sel[:, 3], 0.0), b_sel[:, 1] - a_sel[:, 3])
    if eps > 0.0:
        mask = dx * dx + dy * dy <= eps * eps
    else:
        mask = (dx <= 0.0) & (dy <= 0.0)
    return a_order[i_idx[mask]], b_order[j_idx[mask]]


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
