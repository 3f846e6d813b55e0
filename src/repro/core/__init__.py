"""The paper's contribution: distribution-aware ad-hoc distributed spatial joins.

Modules
-------

* :mod:`repro.core.join_types` -- join specifications (intersection,
  epsilon-distance, iceberg distance semi-join).
* :mod:`repro.core.costmodel` -- the transfer cost model of Section 3.1
  (Eqs. 1-8), used by every algorithm to pick a physical operator.
* :mod:`repro.core.uniformity` -- the uniformity test (Eq. 9), the
  "is it worth asking for statistics" rule (Eq. 10) and the density
  bitmaps (Eq. 11).
* :mod:`repro.core.base` -- the tunables the algorithms share
  (:class:`~repro.core.base.AlgorithmParameters`).
* :mod:`repro.core.frontier` -- the level-order engine every algorithm runs
  on, and :class:`~repro.core.frontier.FrontierAlgorithm`, the one class
  they all derive from: a recursion depth decided as one table of columns,
  quadrant COUNT retrieval with the three-queries-plus-derivation
  optimisation.
* :mod:`repro.core.mobijoin` -- the MobiJoin baseline (Section 3.2).
* :mod:`repro.core.upjoin` -- the Uniform Partition Join (Section 4.1).
* :mod:`repro.core.srjoin` -- the Similarity Related Join (Section 4.2).
* :mod:`repro.core.semijoin` -- the indexed SemiJoin comparator
  (Section 5.3).
* :mod:`repro.core.naive` -- naive download-all and fixed-grid baselines
  (Section 3).
* :mod:`repro.core.planner` -- the execution facade used by the public API
  and the experiments.
"""

from __future__ import annotations

from repro.core.join_types import JoinKind, JoinSpec
from repro.core.costmodel import CostBreakdown, CostModel
from repro.core.result import JoinResult, TraceEvent
from repro.core.uniformity import (
    density_bitmap,
    is_uniform,
    worth_retrieving_statistics,
)
from repro.core.mobijoin import MobiJoin
from repro.core.upjoin import UpJoin
from repro.core.srjoin import SrJoin
from repro.core.semijoin import SemiJoin
from repro.core.naive import FixedGridJoin, NaiveDownloadJoin
from repro.core.planner import ALGORITHMS, build_algorithm, run_join

__all__ = [
    "JoinKind",
    "JoinSpec",
    "CostModel",
    "CostBreakdown",
    "JoinResult",
    "TraceEvent",
    "is_uniform",
    "worth_retrieving_statistics",
    "density_bitmap",
    "MobiJoin",
    "UpJoin",
    "SrJoin",
    "SemiJoin",
    "NaiveDownloadJoin",
    "FixedGridJoin",
    "ALGORITHMS",
    "build_algorithm",
    "run_join",
]
