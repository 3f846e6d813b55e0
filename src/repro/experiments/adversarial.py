"""The hand-constructed adversarial layouts of Figures 2 and 4.

The paper motivates UpJoin and SrJoin with three drawn examples:

* **Figure 2(a)** -- ``|R| >> |S|`` with completely disjoint occupied
  regions: MobiJoin's cost model picks NLSJ (downloading all of S and
  probing R), although one more partitioning step would prune everything.
* **Figure 2(b)** -- four matching clusters placed so that a slightly
  larger buffer makes MobiJoin switch from pruning to a wholesale HBSJ,
  *doubling* the transferred bytes when memory grows.
* **Figure 4** -- two datasets with identical cluster layouts: UpJoin keeps
  repartitioning (both look skewed) although no pruning is possible, so the
  aggregate queries are wasted; SrJoin notices the similarity and stops.

``examples/adversarial_layouts.py`` runs the three layouts and checks the
qualitative claims (e.g. MobiJoin's cost really does increase when the
buffer grows on the Figure 2(b) layout).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api import AdHocJoinSession
from repro.core.result import JoinResult
from repro.datasets.dataset import SpatialDataset
from repro.datasets.synthetic import gaussian_mixture, uniform

__all__ = [
    "AdversarialCase",
    "figure2a_layout",
    "figure2b_layout",
    "figure4_layout",
    "run_adversarial_case",
]

#: Tight cluster spread used by the drawn examples (clusters occupy roughly
#: one cell of the paper's 4 x 4 illustration grid).
_CLUSTER_STD = 0.04


@dataclass(frozen=True)
class AdversarialCase:
    """A named two-dataset layout plus the join parameters to use."""

    name: str
    dataset_r: SpatialDataset
    dataset_s: SpatialDataset
    epsilon: float
    description: str


def figure2a_layout(seed: int = 0) -> AdversarialCase:
    """Figure 2(a): a large R and a small S occupying different regions.

    R fills the left half of the space densely; S has one small cluster in
    the bottom-right corner.  No pairs exist, and one level of partitioning
    prunes the whole space -- but MobiJoin's estimate prefers NLSJ with S as
    the outer relation.
    """
    dataset_r = gaussian_mixture(
        n=1600,
        centers=[(0.125, 0.125), (0.125, 0.375), (0.375, 0.125), (0.375, 0.375),
                 (0.125, 0.625), (0.125, 0.875), (0.375, 0.625), (0.375, 0.875)],
        std=_CLUSTER_STD,
        seed=seed,
        name="fig2a-R",
    )
    dataset_s = gaussian_mixture(
        n=100,
        centers=[(0.875, 0.125)],
        std=_CLUSTER_STD,
        seed=seed + 1,
        name="fig2a-S",
    )
    return AdversarialCase(
        name="figure_2a",
        dataset_r=dataset_r,
        dataset_s=dataset_s,
        epsilon=0.02,
        description="|R| >> |S| in disjoint regions: NLSJ is a trap, pruning wins",
    )


def figure2b_layout(seed: int = 0, points_per_cluster: int = 500) -> AdversarialCase:
    """Figure 2(b): more memory makes MobiJoin strictly worse.

    Both datasets place two tight clusters of ``points_per_cluster`` points
    inside the *same* quadrant of the space, but at pairwise-disjoint spots,
    so nothing actually joins.  With a buffer smaller than the total object
    count MobiJoin partitions, prunes the three empty quadrants and then the
    disjoint sub-clusters; with a buffer large enough for HBSJ it simply
    downloads both datasets wholesale -- the paper's "by increasing the
    available resources, the transfer cost is doubled" pathology.
    """
    centers_r = [(0.60, 0.15), (0.85, 0.40)]
    centers_s = [(0.85, 0.15), (0.60, 0.40)]
    dataset_r = gaussian_mixture(
        n=2 * points_per_cluster,
        centers=centers_r,
        std=_CLUSTER_STD,
        seed=seed,
        name="fig2b-R",
    )
    dataset_s = gaussian_mixture(
        n=2 * points_per_cluster,
        centers=centers_s,
        std=_CLUSTER_STD,
        seed=seed + 1,
        name="fig2b-S",
    )
    return AdversarialCase(
        name="figure_2b",
        dataset_r=dataset_r,
        dataset_s=dataset_s,
        epsilon=0.02,
        description="matching clusters: a larger buffer doubles MobiJoin's cost",
    )


def figure4_layout(seed: int = 0, points_per_cluster: int = 300) -> AdversarialCase:
    """Figure 4: both datasets share the same three-cluster layout.

    Repartitioning can prune nothing, so UpJoin's extra aggregate queries
    are pure overhead while SrJoin's similarity test stops the recursion.
    """
    centers = [(0.25, 0.75), (0.75, 0.75), (0.25, 0.25)]
    dataset_r = gaussian_mixture(
        n=3 * points_per_cluster,
        centers=centers,
        std=_CLUSTER_STD,
        seed=seed,
        name="fig4-R",
    )
    dataset_s = gaussian_mixture(
        n=3 * points_per_cluster,
        centers=centers,
        std=_CLUSTER_STD,
        seed=seed + 1,
        name="fig4-S",
    )
    return AdversarialCase(
        name="figure_4",
        dataset_r=dataset_r,
        dataset_s=dataset_s,
        epsilon=0.02,
        description="identical cluster layouts: similarity-aware refinement wins",
    )


def run_adversarial_case(
    case: AdversarialCase,
    algorithms: Tuple[str, ...] = ("mobijoin", "upjoin", "srjoin"),
    buffer_size: int = 800,
    bucket_queries: bool = False,
) -> Dict[str, JoinResult]:
    """Run several algorithms on one adversarial layout; returns name -> result."""
    session = AdHocJoinSession(case.dataset_r, case.dataset_s, buffer_size=buffer_size)
    return {
        name: session.run(
            algorithm=name, epsilon=case.epsilon, bucket_queries=bucket_queries
        )
        for name in algorithms
    }
