"""Vectorised operations over ``(N, 4)`` MBR arrays.

Datasets in this reproduction are stored column-major-friendly as NumPy
arrays of shape ``(N, 4)`` with columns ``xmin, ymin, xmax, ymax``.  Points
are simply degenerate MBRs (``xmin == xmax`` and ``ymin == ymax``).  All
server-side filtering (window queries, counts, range queries) and the
in-memory join kernels operate on these arrays without per-object Python
loops, per the HPC guide's "vectorise the hot path" rule.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import InvalidInput
from repro.geometry.rect import Rect

#: dtype used for all MBR arrays.
MBR_DTYPE = np.float64

#: What every window-taking batch endpoint accepts: ``Rect``s or the ``(N, 4)``
#: array the frontier engine builds (:func:`rects_to_array` converts, once).
Windows = Union[Sequence[Rect], np.ndarray]


def empty_mbrs() -> np.ndarray:
    """An empty ``(0, 4)`` MBR array."""
    return np.empty((0, 4), dtype=MBR_DTYPE)


def as_mbr_array(data: np.ndarray) -> np.ndarray:
    """Validate and normalise an input into an ``(N, 4)`` float array.

    Accepts an ``(N, 2)`` point array (expanded to degenerate MBRs) or an
    ``(N, 4)`` MBR array.  Raises :class:`ValueError` for anything else or
    for inverted rectangles, and :class:`~repro.errors.InvalidInput` for
    NaN or infinite coordinates: a NaN row fails every "lies outside"
    comparison, so it is counted in every window and no recursive
    partitioning of the space ever sheds it.
    """
    arr = np.asarray(data, dtype=MBR_DTYPE)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():  # the per-row mask only to name the rows
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
        raise InvalidInput(
            f"{bad.size} row(s) hold non-finite coordinates (first: row {bad[0]})"
        )
    if arr.shape[1] == 2:
        arr = np.hstack([arr, arr])
    elif arr.shape[1] != 4:
        raise ValueError(f"expected (N, 2) points or (N, 4) MBRs, got shape {arr.shape}")
    if arr.shape[0] and (
        np.any(arr[:, 0] > arr[:, 2]) or np.any(arr[:, 1] > arr[:, 3])
    ):
        raise ValueError("MBR array contains inverted rectangles")
    return np.ascontiguousarray(arr)


def points_to_mbrs(points: np.ndarray) -> np.ndarray:
    """Convert an ``(N, 2)`` point array into degenerate ``(N, 4)`` MBRs."""
    pts = np.asarray(points, dtype=MBR_DTYPE)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an (N, 2) point array, got shape {pts.shape}")
    return np.ascontiguousarray(np.hstack([pts, pts]))


def centers(mbrs: np.ndarray) -> np.ndarray:
    """Centres of an ``(N, 4)`` MBR array as an ``(N, 2)`` array."""
    return np.column_stack(
        [(mbrs[:, 0] + mbrs[:, 2]) * 0.5, (mbrs[:, 1] + mbrs[:, 3]) * 0.5]
    )


def areas(mbrs: np.ndarray) -> np.ndarray:
    """Areas of an ``(N, 4)`` MBR array."""
    return (mbrs[:, 2] - mbrs[:, 0]) * (mbrs[:, 3] - mbrs[:, 1])


def bounding_rect(mbrs: np.ndarray) -> Rect:
    """Minimum bounding rectangle of a non-empty MBR array."""
    if mbrs.shape[0] == 0:
        raise ValueError("cannot bound an empty MBR array")
    return Rect(
        float(mbrs[:, 0].min()),
        float(mbrs[:, 1].min()),
        float(mbrs[:, 2].max()),
        float(mbrs[:, 3].max()),
    )


def intersects_window(mbrs: np.ndarray, window: Rect) -> np.ndarray:
    """Boolean mask of MBRs intersecting a (closed) window."""
    if mbrs.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    return ~(
        (mbrs[:, 2] < window.xmin)
        | (mbrs[:, 0] > window.xmax)
        | (mbrs[:, 3] < window.ymin)
        | (mbrs[:, 1] > window.ymax)
    )


def expand_index_ranges(
    starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-row ``[start, end)`` index ranges into flat pair arrays.

    Returns ``(row, index)``: for every row ``r`` and every ``i`` in its
    range, one pair ``(r, i)``.  Negative-length ranges count as empty.
    This is the CSR-expansion primitive underneath all batch kernels (the
    epsilon-cell join's cell replication, the plane sweep's candidate runs, the
    flattened R-tree's frontier expansion).
    """
    counts = ends - starts
    np.maximum(counts, 0, out=counts)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    row = np.repeat(np.arange(starts.shape[0], dtype=np.intp), counts)
    idx = np.arange(total, dtype=np.intp)
    idx += (starts - (np.cumsum(counts) - counts))[row]
    return row, idx


def _as_windows(window) -> Tuple[np.ndarray, bool]:
    """``(N, 4)`` windows of a :class:`Rect` (one row) or an array, and which it was."""
    if isinstance(window, Rect):
        return np.array([window.as_tuple()], dtype=MBR_DTYPE), True
    return window, False


def subdivide_window(window, kx: int, ky: Optional[int] = None) -> np.ndarray:
    """Cell bounds of a regular ``kx x ky`` grid over ``window``.

    ``window`` is a :class:`Rect` (returns a ``(kx * ky, 4)`` MBR array) or an
    ``(N, 4)`` array of windows (returns ``(N, kx * ky, 4)``), cells row-major
    from the bottom-left.  The interior edges are ``min + i * step`` with the
    exact outer edge last -- elementwise the scalar loop this kernel replaced,
    so grid cells, which become query windows, are bit-identical to the seed
    decomposition.  The bulk form behind :meth:`repro.geometry.rect.Rect.subdivide`
    and MobiJoin's repartitioning of a whole frontier level.
    """
    if ky is None:
        ky = kx
    if kx < 1 or ky < 1:
        raise ValueError("grid dimensions must be >= 1")
    windows, single = _as_windows(window)
    x0, y0, x1, y1 = (windows[:, i, None] for i in range(4))
    xe = np.concatenate([x0 + np.arange(kx, dtype=MBR_DTYPE) * ((x1 - x0) / kx), x1], axis=1)
    ye = np.concatenate([y0 + np.arange(ky, dtype=MBR_DTYPE) * ((y1 - y0) / ky), y1], axis=1)
    out = np.empty((windows.shape[0], ky, kx, 4), dtype=MBR_DTYPE)
    out[..., 0] = xe[:, None, :-1]
    out[..., 1] = ye[:, :-1, None]
    out[..., 2] = xe[:, None, 1:]
    out[..., 3] = ye[:, 1:, None]
    out = out.reshape(-1, kx * ky, 4)
    return out[0] if single else out


_QUADRANT_COLUMNS = [0, 1, 4, 5, 4, 1, 2, 5, 0, 5, 4, 3, 4, 5, 2, 3]


def quadrant_cells(window) -> np.ndarray:
    """The 2 x 2 quadrant bounds of ``window``: a ``(4, 4)`` MBR array for a
    :class:`Rect`, ``(N, 4, 4)`` for an ``(N, 4)`` array of windows.

    Row-major from the bottom-left: SW, SE, NW, NE.  The split point is the
    midpoint ``(min + max) / 2`` -- the formula the partition-based
    algorithms have always used, which differs in the last float bit from
    ``min + width / 2`` on some inputs, so it is kept separate from
    :func:`subdivide_window` to preserve the frozen traces and figures.
    """
    windows, single = _as_windows(window)
    # Columns x0 y0 x1 y1 cx cy, then one take into the four cells.
    edges = np.concatenate([windows, (windows[:, :2] + windows[:, 2:]) / 2.0], axis=1)
    out = edges[:, _QUADRANT_COLUMNS].reshape(-1, 4, 4)
    return out[0] if single else out


def clip_to_window(mbrs: np.ndarray, window: Rect) -> Tuple[np.ndarray, np.ndarray]:
    """Clip every MBR to ``window``.

    Returns ``(clipped, valid)`` where ``valid`` marks the MBRs that
    actually intersect the window; rows of ``clipped`` outside ``valid``
    are undefined.  The vectorised twin of ``Rect.intersection``.
    """
    if mbrs.shape[0] == 0:
        return empty_mbrs(), np.zeros(0, dtype=bool)
    clipped = np.empty_like(mbrs)
    clipped[:, 0] = np.maximum(mbrs[:, 0], window.xmin)
    clipped[:, 1] = np.maximum(mbrs[:, 1], window.ymin)
    clipped[:, 2] = np.minimum(mbrs[:, 2], window.xmax)
    clipped[:, 3] = np.minimum(mbrs[:, 3], window.ymax)
    valid = (clipped[:, 0] <= clipped[:, 2]) & (clipped[:, 1] <= clipped[:, 3])
    return clipped, valid


def rects_to_array(rects) -> np.ndarray:
    """Pack a sequence of :class:`Rect` into an ``(N, 4)`` MBR array.

    An ``(N, 4)`` array passes through untouched: every window-taking batch
    endpoint accepts either form and converts here, once.
    """
    if isinstance(rects, np.ndarray):
        return rects
    if not isinstance(rects, (list, tuple)):
        rects = list(rects)
    if not rects:
        return empty_mbrs()
    return np.array([r.as_tuple() for r in rects], dtype=MBR_DTYPE)


def window_array(windows: Windows) -> np.ndarray:
    """Query windows as the checked ``(N, 4)`` array the index descends with.

    :func:`rects_to_array` plus the one check every window-taking endpoint
    of a server or connection makes before anything is answered, counted or
    booked: an array that is not ``(N, 4)`` or a non-finite coordinate is
    :class:`~repro.errors.InvalidInput` (a ``nan`` edge fails every "lies
    outside" comparison, so the window would match the whole dataset).
    """
    wins = rects_to_array(windows)
    if wins.ndim != 2 or wins.shape[1] != 4:
        raise InvalidInput(f"query windows must be an (N, 4) array, got shape {wins.shape}")
    if not np.isfinite(wins).all():
        raise InvalidInput("query windows need finite coordinates")
    return wins


def pairwise_intersects(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs intersection test between two MBR arrays.

    Returns a boolean matrix of shape ``(len(a), len(b))``.  It is the
    shard fleet's router (``ShardedSpatialServer.route``: request windows
    against the live shards' bounds, a few columns wide), and serves small
    in-memory joins and the brute-force oracle in the tests; the join
    kernel is the epsilon-cell join of ``repro.index.hash_join``.
    """
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=bool)
    ax0, ay0, ax1, ay1 = (a[:, i][:, None] for i in range(4))
    bx0, by0, bx1, by1 = (b[:, i][None, :] for i in range(4))
    return ~((ax1 < bx0) | (bx1 < ax0) | (ay1 < by0) | (by1 < ay0))


def expand(mbrs: np.ndarray, margin: float) -> np.ndarray:
    """Return a copy of the MBR array (any shape ``(..., 4)``) grown by
    ``margin`` on every side: ``Rect.expanded`` row by row, bit for bit."""
    if margin < 0:
        raise ValueError("margin must be non-negative")
    return mbrs + np.array([-margin, -margin, margin, margin])
