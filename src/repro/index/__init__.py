"""Spatial index substrates.

The servers in the paper answer WINDOW / COUNT / epsilon-RANGE queries
"fast" because they maintain internal indexes (R-trees, and aggregate
R-trees such as the aR-tree for COUNT).  The mobile client never sees
these structures, but we still build them -- both so that the server
substrate is faithful and because the SemiJoin comparator (Section 5.3 of
the paper) explicitly requires R-tree-indexed datasets whose intermediate
node MBRs can be shipped between servers.

Contents
--------

* :class:`~repro.index.flat.FlatRTree` -- the servers' one index class: an
  R-tree held as parallel arrays, STR bulk loaded straight from an MBR
  array.  It is the aggregate R-tree the paper's COUNT needs (a subtree's
  count is the width of its entry range, so a COUNT touches only
  partially-covered subtrees) and answers WINDOW / RANGE from the same
  arrays.
* :mod:`~repro.index.aggregate_rtree` -- the checked range-probe arrays
  and the per-node object-area aggregate behind the scalar aggregate query.
* The in-memory join kernel, an epsilon-cell neighbourhood join:
  :func:`~repro.index.hash_join.grid_hash_join` (one item) and
  ``grid_hash_join_batch``; :func:`~repro.index.plane_sweep.plane_sweep_pairs`
  is the plane sweep it replaced, kept for its benchmarks.

The insertable pointer R-tree the array-native build is pinned against is a
test oracle (``tests/oracles/pointer_rtree.py``), not part of the package.
"""

from __future__ import annotations

from repro.index.flat import FlatRTree
from repro.index.plane_sweep import plane_sweep_pairs
from repro.index.hash_join import grid_hash_join

__all__ = [
    "FlatRTree",
    "plane_sweep_pairs",
    "grid_hash_join",
]
