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

* :class:`~repro.index.flat.FlatRTree` -- the servers' index: an R-tree
  held as parallel arrays, STR bulk loaded straight from an MBR array.
* :class:`~repro.index.aggregate_rtree.AggregateRTree` -- the aR-tree view
  over it: subtree counts and areas, giving COUNT queries that touch only
  partially-covered subtrees.
* In-memory join kernels: :func:`~repro.index.plane_sweep.plane_sweep_join`
  and :func:`~repro.index.hash_join.grid_hash_join`.

The insertable pointer R-tree the array-native build is pinned against is a
test oracle (``tests/oracles/pointer_rtree.py``), not part of the package.
"""

from __future__ import annotations

from repro.index.flat import FlatRTree
from repro.index.aggregate_rtree import AggregateRTree
from repro.index.plane_sweep import plane_sweep_join, plane_sweep_pairs
from repro.index.hash_join import grid_hash_join

__all__ = [
    "FlatRTree",
    "AggregateRTree",
    "plane_sweep_join",
    "plane_sweep_pairs",
    "grid_hash_join",
]
