"""The per-lead plane sweep ``repro.index.plane_sweep`` shipped until PR 19.

Oracle of the segmented NumPy kernel
(:func:`repro.index.plane_sweep.plane_sweep_pair_arrays_segmented` and its
one-segment and batch wrappers): sort both inputs by ``xmin``, advance the
smaller front, and match each lead rectangle against the other side's run
whose x-extents overlap.  Verbatim in behaviour;
``tests/test_leaf_pipeline.py`` and ``tests/test_batch_queries.py`` hold the
shipped kernels to its pair *set*.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.geometry.predicates import JoinPredicate, WithinDistancePredicate

__all__ = ["plane_sweep_pairs_scalar"]


def plane_sweep_pairs_scalar(
    a_mbrs: np.ndarray,
    b_mbrs: np.ndarray,
    predicate: JoinPredicate,
) -> List[Tuple[int, int]]:
    """All index pairs ``(i, j)`` with ``predicate(a[i], b[j])`` true, per-lead."""
    na, nb = a_mbrs.shape[0], b_mbrs.shape[0]
    if na == 0 or nb == 0:
        return []
    eps = predicate.probe_radius() if isinstance(predicate, WithinDistancePredicate) else 0.0

    a_order = np.argsort(a_mbrs[:, 0], kind="stable")
    b_order = np.argsort(b_mbrs[:, 0], kind="stable")
    a_sorted = a_mbrs[a_order]
    b_sorted = b_mbrs[b_order]

    pairs: List[Tuple[int, int]] = []
    ai = bi = 0
    while ai < na and bi < nb:
        if a_sorted[ai, 0] <= b_sorted[bi, 0]:
            _sweep_one(
                a_sorted, ai, b_sorted, bi, eps, predicate, pairs, a_first=True,
                a_order=a_order, b_order=b_order,
            )
            ai += 1
        else:
            _sweep_one(
                b_sorted, bi, a_sorted, ai, eps, predicate, pairs, a_first=False,
                a_order=a_order, b_order=b_order,
            )
            bi += 1
    return pairs


def _sweep_one(
    lead: np.ndarray,
    lead_idx: int,
    other: np.ndarray,
    other_start: int,
    eps: float,
    predicate: JoinPredicate,
    pairs: List[Tuple[int, int]],
    a_first: bool,
    a_order: np.ndarray,
    b_order: np.ndarray,
) -> None:
    """Match ``lead[lead_idx]`` against ``other[other_start:]`` while x-extents overlap."""
    lx_max = lead[lead_idx, 2] + eps
    j = other_start
    n_other = other.shape[0]
    lead_rect = lead[lead_idx]
    # Vectorised candidate cut: other entries whose xmin exceeds the lead's
    # xmax + eps can never match (inputs are sorted by xmin).
    limit = int(np.searchsorted(other[other_start:, 0], lx_max, side="right")) + other_start
    if limit <= other_start:
        return
    cand = other[other_start:limit]
    # y-axis and exact predicate test, vectorised over the candidate run.
    dy = np.maximum(np.maximum(lead_rect[1] - cand[:, 3], 0.0), cand[:, 1] - lead_rect[3])
    dx = np.maximum(np.maximum(lead_rect[0] - cand[:, 2], 0.0), cand[:, 0] - lead_rect[2])
    if eps > 0.0:
        mask = dx * dx + dy * dy <= eps * eps
    else:
        mask = (dx <= 0.0) & (dy <= 0.0)
    for off in np.nonzero(mask)[0]:
        j = other_start + int(off)
        if a_first:
            pairs.append((int(a_order[lead_idx]), int(b_order[j])))
        else:
            pairs.append((int(a_order[j]), int(b_order[lead_idx])))
