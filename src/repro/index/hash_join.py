"""Grid-hash (PBSM-style) in-memory join kernel.

PBSM (Patel & DeWitt, SIGMOD 1996) hashes both inputs into the cells of a
regular grid -- replicating objects that straddle cell boundaries -- and
joins matching buckets.  This kernel is the in-memory workhorse of the
device's HBSJ operator: after downloading ``Rw`` and ``Sw`` the PDA hashes
both into a grid sized for the buffer and joins bucket pairs with a plane
sweep, then sorts the pairs on one integer key per ``(item, a_oid, b_oid)``
and drops the equal neighbours two buckets found (:func:`~repro.index.pairs.unique_rows`).

Exactness: for intersection joins the grid replicates by MBR overlap; for
epsilon-distance joins the probe side is expanded by epsilon before
hashing, so every qualifying pair co-occurs in at least one bucket.

There is one implementation, :func:`grid_hash_join_batch`, which joins many
independent windows in one pass; :func:`grid_hash_join` is its one-item
case.
"""

from __future__ import annotations

from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.geometry.predicates import JoinPredicate, WithinDistancePredicate
from repro.geometry.rect import Rect
from repro.geometry.rect_array import expand_index_ranges
from repro.index.pairs import unique_rows
from repro.index.plane_sweep import plane_sweep_pair_arrays_segmented

__all__ = ["JoinBatch", "grid_hash_join", "grid_hash_join_batch"]

#: An item this small would get a grid of at most 2 x 2 cells
#: (``ceil(sqrt(n / 32)) <= 2``): hashing it costs more than the candidate
#: pairs it saves, so it is swept whole.
_GRID_FREE_MAX = 128
#: Rows (both sides) one segmented sweep call takes, give or take a segment.
_SWEEP_ROWS = 8192

JoinItem = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
#: An explicit ``(bounds, cells_per_side)`` of one item; ``None`` keeps a default.
Grid = Tuple[Optional[Rect], Optional[int]]


class JoinBatch(NamedTuple):
    """Many join items in CSR form, the shape ``window_batch_flat`` answers in.

    Item ``k`` joins rows ``a_bounds[k]:a_bounds[k+1]`` of the A side with
    rows ``b_bounds[k]:b_bounds[k+1]`` of the B side.
    """

    a_mbrs: np.ndarray
    a_oids: np.ndarray
    a_bounds: np.ndarray
    b_mbrs: np.ndarray
    b_oids: np.ndarray
    b_bounds: np.ndarray

    @classmethod
    def one(cls, a_mbrs, a_oids, b_mbrs, b_oids) -> "JoinBatch":
        """A batch of one item, its arrays taken as they are."""
        return cls(
            a_mbrs, a_oids, np.array([0, a_mbrs.shape[0]]),
            b_mbrs, b_oids, np.array([0, b_mbrs.shape[0]]),
        )

    @classmethod
    def from_items(cls, items: Sequence[JoinItem]) -> "JoinBatch":
        """Concatenate ``(a_mbrs, a_oids, b_mbrs, b_oids)`` tuples."""

        def side(mbrs: List[np.ndarray], oids: List[np.ndarray]):
            return (
                np.vstack([np.empty((0, 4)), *mbrs]),
                np.concatenate([np.empty(0, np.int64), *(np.asarray(o, np.int64) for o in oids)]),
                np.cumsum([0] + [m.shape[0] for m in mbrs]),
            )

        return cls(
            *side([it[0] for it in items], [it[1] for it in items]),
            *side([it[2] for it in items], [it[3] for it in items]),
        )


def grid_hash_join(
    a_mbrs: np.ndarray,
    a_oids: np.ndarray,
    b_mbrs: np.ndarray,
    b_oids: np.ndarray,
    predicate: JoinPredicate,
    bounds: Rect | None = None,
    cells_per_side: int | None = None,
) -> List[Tuple[int, int]]:
    """Join two in-memory MBR arrays with a PBSM-style grid hash.

    Parameters
    ----------
    a_mbrs, b_mbrs:
        ``(N, 4)`` MBR arrays.
    a_oids, b_oids:
        Parallel object-id arrays.
    predicate:
        Join predicate (intersection or epsilon-distance).
    bounds:
        Hashing space; defaults to the union MBR of both inputs.
    cells_per_side:
        Grid resolution; defaults to ``ceil(sqrt((|A| + |B|) / 32))`` so an
        average bucket holds a few dozen objects.  Inputs of at most 128
        objects are swept without a grid unless one is asked for here.

    Returns
    -------
    list of ``(a_oid, b_oid)`` pairs, duplicate-free, sorted.
    """
    grids = None if bounds is None and cells_per_side is None else {0: (bounds, cells_per_side)}
    pairs, _ = grid_hash_join_batch(JoinBatch.one(a_mbrs, a_oids, b_mbrs, b_oids), predicate, grids)
    return list(map(tuple, pairs.tolist()))


def grid_hash_join_batch(
    items: Union[JoinBatch, Sequence[JoinItem]],
    predicate: JoinPredicate,
    grids: Optional[Mapping[int, Grid]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Join many independent windows; the pairs of all of them as one block.

    ``items`` is a :class:`JoinBatch` or a sequence of ``(a_mbrs, a_oids,
    b_mbrs, b_oids)`` tuples.  ``grids`` maps item indices to an explicit
    ``(bounds, cells_per_side)`` (either may be ``None``), overriding the
    defaults documented on :func:`grid_hash_join`.  Returns ``(pairs,
    starts)``: a ``(k, 2)`` ``int64`` block of ``(a_oid, b_oid)`` rows, item
    after item, each item's rows sorted and duplicate-free, item ``i`` owning
    rows ``starts[i]:starts[i + 1]``.

    Each item above the grid-free threshold is hashed into its own grid,
    but over the concatenation of all such items at once.  The matched
    buckets of every hashed item and the grid-free items as a whole are
    the segments of :func:`plane_sweep_pair_arrays_segmented`: a batch is
    one or a few sweep calls, whatever the number of windows and buckets,
    and there is no per-item Python loop.
    """
    batch = items if isinstance(items, JoinBatch) else JoinBatch.from_items(items)
    grids = grids or {}
    n_items = batch.a_bounds.shape[0] - 1
    n_a, n_b = np.diff(batch.a_bounds), np.diff(batch.b_bounds)
    live = np.flatnonzero((n_a > 0) & (n_b > 0))
    # The rows of the live items and, per row, its item's position in ``live``.
    item_a, row_a = expand_index_ranges(batch.a_bounds[live], batch.a_bounds[live + 1])
    item_b, row_b = expand_index_ranges(batch.b_bounds[live], batch.b_bounds[live + 1])
    hashed = (n_a + n_b)[live] > _GRID_FREE_MAX
    if grids:
        hashed[np.isin(live, list(grids))] = True  # an asked-for grid is built
    in_grid = np.flatnonzero(hashed)
    grid_a, grid_b = np.flatnonzero(hashed[item_a]), np.flatnonzero(hashed[item_b])
    whole_a, whole_b = np.flatnonzero(~hashed[item_a]), np.flatnonzero(~hashed[item_b])
    # Rows are gathered as column takes (the batch endpoints' payloads have
    # contiguous columns): ``mbrs[at]``, laid out as the hash stage and the
    # sweep read it.
    a_cols, b_cols = np.ascontiguousarray(batch.a_mbrs.T), np.ascontiguousarray(batch.b_mbrs.T)

    def rows(cols: np.ndarray, at: np.ndarray) -> np.ndarray:
        return cols.take(at, axis=1).T

    pos_a, seg_a, pos_b, seg_b, bucket_item = _bucket_segments(
        rows(a_cols, row_a[grid_a]),
        n_a[live[in_grid]],
        rows(b_cols, row_b[grid_b]),
        n_b[live[in_grid]],
        predicate,
        {k: grids[item] for k, item in enumerate(live[in_grid].tolist()) if item in grids},
    )
    # Segment ids: the matched buckets first, then one per grid-free item;
    # ``seg_item`` maps either kind to its item's position in ``live``.
    n_buckets = bucket_item.shape[0]
    rows_a = row_a[np.concatenate([grid_a[pos_a], whole_a])]
    rows_b = row_b[np.concatenate([grid_b[pos_b], whole_b])]
    seg_a = np.concatenate([seg_a, n_buckets + item_a[whole_a]])
    seg_b = np.concatenate([seg_b, n_buckets + item_b[whole_b]])
    seg_item = np.concatenate([in_grid[bucket_item], np.arange(live.shape[0])])
    i_idx, j_idx = _sweep_in_runs(
        rows(a_cols, rows_a), seg_a, rows(b_cols, rows_b), seg_b, seg_item.shape[0], predicate
    )
    owner = live[seg_item[seg_a[i_idx]]]
    a_oid = np.asarray(batch.a_oids, dtype=np.int64)[rows_a[i_idx]]
    b_oid = np.asarray(batch.b_oids, dtype=np.int64)[rows_b[j_idx]]
    del rows_a, rows_b, seg_a, seg_b, i_idx, j_idx

    # Sort by (item, a_oid, b_oid) and drop the pairs neighbouring buckets
    # rediscovered: one integer-key sort of the triples.
    owner, a_oid, b_oid = unique_rows(owner, a_oid, b_oid)
    return np.column_stack((a_oid, b_oid)), np.searchsorted(owner, np.arange(n_items + 1))


def _sweep_in_runs(
    a_mbrs: np.ndarray,
    seg_a: np.ndarray,
    b_mbrs: np.ndarray,
    seg_b: np.ndarray,
    n_segs: int,
    predicate: JoinPredicate,
) -> Tuple[np.ndarray, np.ndarray]:
    """The segmented sweep, ``_SWEEP_ROWS`` rows or so at a time.

    Both segment arrays ascend.  The sweep's transients are several times
    its input, so the segments go through it in runs: a frontier level is
    one or a few calls, and one 20k x 20k item stays within the memory its
    per-bucket sweeps took.
    """
    load = np.cumsum(np.bincount(seg_a, minlength=n_segs) + np.bincount(seg_b, minlength=n_segs))
    later_runs = np.flatnonzero(np.diff(load // _SWEEP_ROWS)) + 1  # their first segments
    cut_a = [0, *np.searchsorted(seg_a, later_runs).tolist(), seg_a.shape[0]]
    cut_b = [0, *np.searchsorted(seg_b, later_runs).tolist(), seg_b.shape[0]]
    i_parts, j_parts = [], []
    for a_lo, a_hi, b_lo, b_hi in zip(cut_a, cut_a[1:], cut_b, cut_b[1:]):
        i_idx, j_idx = plane_sweep_pair_arrays_segmented(
            a_mbrs[a_lo:a_hi], seg_a[a_lo:a_hi], b_mbrs[b_lo:b_hi], seg_b[b_lo:b_hi], predicate
        )
        i_parts.append(i_idx + a_lo)
        j_parts.append(j_idx + b_lo)
    return np.concatenate(i_parts), np.concatenate(j_parts)


def _bucket_segments(
    a_all: np.ndarray,
    n_a: np.ndarray,
    b_all: np.ndarray,
    n_b: np.ndarray,
    predicate: JoinPredicate,
    grids: Mapping[int, Grid],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hash items into their own grids, all at once; match the buckets.

    ``a_all`` / ``b_all`` hold the items' rows back to back, ``n_a`` /
    ``n_b`` rows each (none empty); ``grids`` is keyed by position.  Returns ``(rows_a, bucket_a, rows_b,
    bucket_b, bucket_item)``: the rows of every bucket occupied on both
    sides (replicas included), tagged with a dense ascending bucket id,
    and the item each bucket belongs to.
    """
    if n_a.shape[0] == 0:
        none = np.empty(0, dtype=np.intp)
        return none, none, none, none, none
    eps = predicate.probe_radius() if isinstance(predicate, WithinDistancePredicate) else 0.0
    off_a = np.concatenate([[0], np.cumsum(n_a)])[:-1]
    off_b = np.concatenate([[0], np.cumsum(n_b)])[:-1]

    # Per-item hashing space: the union MBR of both sides, grown so it has
    # positive extent and holds the epsilon-expanded probe side.
    xmin, ymin = np.minimum(
        np.minimum.reduceat(a_all[:, :2], off_a), np.minimum.reduceat(b_all[:, :2], off_b)
    ).T
    xmax, ymax = np.maximum(
        np.maximum.reduceat(a_all[:, 2:], off_a), np.maximum.reduceat(b_all[:, 2:], off_b)
    ).T
    grow = np.where(
        (xmax - xmin == 0) | (ymax - ymin == 0) | (eps > 0), max(eps, 1e-9), 0.0
    )
    xmin, ymin, xmax, ymax = xmin - grow, ymin - grow, xmax + grow, ymax + grow
    k_side = np.maximum(1, np.ceil(np.sqrt((n_a + n_b) / 32.0)).astype(np.intp))
    for k, (rect, cells) in grids.items():
        if rect is not None:
            xmin[k], ymin[k], xmax[k], ymax[k] = rect.as_tuple()
        if cells is not None:
            k_side[k] = cells
    if np.any(k_side < 1):
        raise ValueError("grid dimensions must be >= 1")
    if np.any((xmax <= xmin) | (ymax <= ymin)):
        raise ValueError("grid window must have positive extent")
    cw = (xmax - xmin) / k_side
    ch = (ymax - ymin) / k_side
    cell_base = np.concatenate([[0], np.cumsum(k_side * k_side)])

    def hash_rows(mbrs, counts, expand_by):
        item_of = np.repeat(np.arange(counts.shape[0], dtype=np.intp), counts)
        nx = k_side[item_of]
        x0, y0, w, h = xmin[item_of], ymin[item_of], cw[item_of], ch[item_of]
        ix0 = np.clip(((mbrs[:, 0] - expand_by - x0) / w).astype(np.intp), 0, nx - 1)
        ix1 = np.clip(((mbrs[:, 2] + expand_by - x0) / w).astype(np.intp), 0, nx - 1)
        iy0 = np.clip(((mbrs[:, 1] - expand_by - y0) / h).astype(np.intp), 0, nx - 1)
        iy1 = np.clip(((mbrs[:, 3] + expand_by - y0) / h).astype(np.intp), 0, nx - 1)
        # Per-replica rank within its object, decomposed into (row, column)
        # of the object's cell footprint.
        nx_span = ix1 - ix0 + 1
        rep = nx_span * (iy1 - iy0 + 1)
        obj, rank = expand_index_ranges(np.zeros_like(rep), rep)
        span = nx_span[obj]
        cell = (
            cell_base[item_of[obj]]
            + (iy0[obj] + rank // span) * nx[obj]
            + ix0[obj]
            + rank % span
        )
        # The one sort of the hash stage; the occupied cells are where the
        # sorted ids change.
        order = np.argsort(cell, kind="stable")
        cell = cell[order]
        first = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
        return cell[first], np.append(first, cell.shape[0]), obj[order]

    cells_a, starts_a, objs_a = hash_rows(a_all, n_a, 0.0)
    cells_b, starts_b, objs_b = hash_rows(b_all, n_b, eps)
    # Items never share a cell id (disjoint id ranges), so one global match
    # of the two ascending id lists pairs the occupied buckets of every item.
    pos_b = np.searchsorted(cells_b, cells_a)
    pos_b[pos_b == cells_b.shape[0]] = 0
    pos_a = np.flatnonzero(cells_b[pos_b] == cells_a)
    pos_b = pos_b[pos_a]
    bucket_a, idx_a = expand_index_ranges(starts_a[pos_a], starts_a[pos_a + 1])
    bucket_b, idx_b = expand_index_ranges(starts_b[pos_b], starts_b[pos_b + 1])
    bucket_item = np.searchsorted(cell_base, cells_a[pos_a], side="right") - 1
    return objs_a[idx_a], bucket_a, objs_b[idx_b], bucket_b, bucket_item
