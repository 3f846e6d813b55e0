"""The transient budget: the working memory one batch call holds besides its answer.

The paper's device holds a few objects; a server endpoint here answers a
whole batch of windows, probes or join items at once, and without a bound
its working set would grow with the batch -- a page per (query, node) pair
of a descent level, a cell table per join item -- rather than with the
answer.  Every batch endpoint of the index and the join kernel therefore
works in *chunks* sized to :data:`TRANSIENT_BUDGET`:

* :class:`~repro.index.flat.FlatRTree` descends query rows a chunk at a
  time and opens a level's pages a slice of pairs at a time;
* :func:`~repro.index.hash_join.grid_hash_join_batch` joins its items a
  chunk at a time, an item larger than a chunk in bands of its cell rows
  (each band's A rows against the B rows they read, in a cell table of the
  band's rows alone), and tests candidates a chunk at a time;
* :meth:`~repro.index.flat.FlatRTree.from_mbr_array` lets each per-entry
  temporary go as soon as it has been used.

Each puts its chunks' answers back together in the order one whole batch
gives them, so no answer, and no byte on the wire, depends on the budget.
A batch below the budget is one chunk: it pays one comparison.
"""

from __future__ import annotations

import bisect
from typing import List

import numpy as np

__all__ = ["TRANSIENT_BUDGET", "chunk_rows", "cuts"]

#: Bytes of working memory one batch call may hold besides its answer.
TRANSIENT_BUDGET = 5 << 20


def chunk_rows(row_bytes: int) -> int:
    """How many rows of ``row_bytes`` working bytes each one chunk takes
    (at least one)."""
    return max(1, TRANSIENT_BUDGET // row_bytes)


def cuts(sizes: np.ndarray, limit: int) -> List[int]:
    """Cut consecutive items of ``sizes`` rows into chunks of at most
    ``limit`` rows: the item boundaries ``[0, ..., len(sizes)]``.  The
    chunks are about even -- as few as the rows need, each as many items as
    fit an even share -- and an item larger than that a chunk of its own."""
    n = sizes.shape[0]
    end = np.cumsum(sizes)
    if not n or end[-1] <= limit:
        return [0, n]
    total = int(end[-1])
    limit = -(-total // -(-total // limit))
    end, bounds, done = end.tolist(), [0], 0
    while bounds[-1] < n:
        stop = max(bisect.bisect_right(end, done + limit, bounds[-1]), bounds[-1] + 1)
        bounds.append(stop)
        done = end[stop - 1]
    return bounds
