"""Deterministic spatial partitioning of a dataset across shard servers.

The sharded data plane splits one published :class:`SpatialDataset` into N
disjoint shards, each hosted by its own spatial server.  Two schemes:

* ``"grid"`` -- a fixed ``gx x gy`` grid over the dataset bounds (``gx * gy
  == shards``, with ``gx`` the largest divisor of ``shards`` not exceeding
  ``sqrt(shards)``); every object is assigned to the cell holding its MBR
  centre.  Cheap and oblivious to skew: clustered data can leave cells
  (shards) nearly empty.
* ``"str"`` -- STR-style tiling: objects are sorted by centre x and cut
  into ``gx`` vertical slabs of (near-)equal cardinality, each slab sorted
  by centre y and cut into ``gy`` tiles.  Balanced under any skew, at the
  cost of data-dependent shard boundaries.

Both schemes are pure functions of ``(dataset, shards, scheme)`` -- no RNG,
no iteration order dependence -- so every execution path (standalone,
brokered, benchmark) sees the same placement.  Shards partition the object
set *exactly*: every object lands in exactly one shard, object ids are
preserved, and the concatenation of all shards is a permutation of the
original rows.  That disjointness is what makes scatter/merge answers
bit-identical to the union server's (counts add up, window payload row sets
are equal per window); empty shards are legal and simply never answer.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.datasets.dataset import SpatialDataset
from repro.errors import require_count

__all__ = ["PARTITION_SCHEMES", "partition_dataset", "shard_assignment"]

#: Recognised partitioning scheme names.
PARTITION_SCHEMES: Tuple[str, ...] = ("grid", "str")


def _grid_shape(shards: int) -> Tuple[int, int]:
    """The ``(gx, gy)`` factorisation used by both schemes.

    ``gx`` is the largest divisor of ``shards`` with ``gx * gx <= shards``,
    so the grid is as square as an exact factorisation allows (a prime
    shard count degenerates to ``1 x shards`` strips).
    """
    gx = int(np.sqrt(shards))
    while shards % gx:
        gx -= 1
    return gx, shards // gx


def shard_assignment(
    dataset: SpatialDataset, shards: int, scheme: str = "grid"
) -> np.ndarray:
    """Per-object shard ids: an ``(N,)`` int array with values in ``[0, shards)``.

    Deterministic in the dataset's row order; see the module docstring for
    the two schemes.  ``shards`` may exceed the object count (the surplus
    shards come out empty) and never needs to divide it.
    """
    require_count(shards, "shards")
    if scheme not in PARTITION_SCHEMES:
        raise ValueError(
            f"unknown partition scheme {scheme!r}; available: {PARTITION_SCHEMES}"
        )
    n = len(dataset)
    if n == 0 or shards == 1:
        return np.zeros(n, dtype=np.int64)
    gx, gy = _grid_shape(shards)
    centers = dataset.centers()
    if scheme == "grid":
        lo = dataset.mbrs.min(axis=0)
        hi = dataset.mbrs.max(axis=0)
        xmin, ymin = float(lo[0]), float(lo[1])
        xmax, ymax = float(hi[2]), float(hi[3])
        # Degenerate extents (all centres collinear) collapse to column 0.
        spanx = max(xmax - xmin, 0.0)
        spany = max(ymax - ymin, 0.0)
        if spanx > 0:
            ix = np.clip(
                ((centers[:, 0] - xmin) / spanx * gx).astype(np.int64), 0, gx - 1
            )
        else:
            ix = np.zeros(n, dtype=np.int64)
        if spany > 0:
            iy = np.clip(
                ((centers[:, 1] - ymin) / spany * gy).astype(np.int64), 0, gy - 1
            )
        else:
            iy = np.zeros(n, dtype=np.int64)
        return iy * gx + ix
    # STR tiling: stable sorts keep ties in row order, so the assignment is
    # a pure function of the dataset rows.
    assignment = np.empty(n, dtype=np.int64)
    order_x = np.argsort(centers[:, 0], kind="stable")
    slab_bounds = (np.arange(gx + 1, dtype=np.int64) * n) // gx
    for sx in range(gx):
        slab = order_x[slab_bounds[sx] : slab_bounds[sx + 1]]
        order_y = slab[np.argsort(centers[slab, 1], kind="stable")]
        m = order_y.shape[0]
        tile_bounds = (np.arange(gy + 1, dtype=np.int64) * m) // gy
        for sy in range(gy):
            assignment[order_y[tile_bounds[sy] : tile_bounds[sy + 1]]] = sy * gx + sx
    return assignment


def partition_dataset(
    dataset: SpatialDataset, shards: int, scheme: str = "grid"
) -> List[SpatialDataset]:
    """Split one dataset into ``shards`` disjoint shard datasets.

    Returns exactly ``shards`` datasets named ``"<name>#<i>"``; object ids
    are preserved (:meth:`SpatialDataset.subset`), rows keep their relative
    order within a shard, and every original row appears in exactly one
    shard.  Shards with no objects are returned as empty datasets rather
    than dropped, so shard indices are stable identifiers.
    """
    assignment = shard_assignment(dataset, shards, scheme)
    return [
        dataset.subset(assignment == i, name=f"{dataset.name}#{i}")
        for i in range(shards)
    ]
