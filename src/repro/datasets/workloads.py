"""Workload specifications and query-window generators.

The experiments of the paper always join a *query window* worth of data:
the 1 000-point synthetic datasets "simulate typical windows of users'
requests", i.e. the joined region is the full unit square holding the
synthetic data; the real-data experiments join the synthetic window against
the corresponding region of the railway map.

:class:`WorkloadSpec` bundles everything an experiment needs to regenerate
a run (dataset parameters, join parameters, device parameters), and
:func:`paper_cluster_sweep` yields the cluster-count sweep used on the
x-axis of every figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.rect import Rect, UNIT_RECT

__all__ = ["WorkloadSpec", "paper_cluster_sweep", "random_query_windows"]

#: The cluster counts on the x-axis of Figures 6, 7 and 8.
PAPER_CLUSTER_COUNTS: Tuple[int, ...] = (1, 2, 4, 8, 16, 128)


@dataclass(frozen=True)
class WorkloadSpec:
    """A fully reproducible experiment workload.

    Attributes
    ----------
    r_kind / s_kind:
        Dataset generators for the two sides: ``"clustered"``, ``"uniform"``
        or ``"railway"``.
    r_size / s_size:
        Object counts (ignored by the railway generator which has its own
        default of ~35 000).
    clusters:
        Cluster count for clustered sides.
    seed:
        Base seed; the R side uses ``seed`` and the S side ``seed + 1000``
        so the two datasets are independent but reproducible.
    epsilon:
        Distance-join threshold in dataspace units.
    buffer_size:
        PDA buffer capacity in objects.
    bucket_queries:
        Whether servers accept bucket epsilon-RANGE queries.
    window:
        The joined region (defaults to the unit square).
    """

    r_kind: str = "clustered"
    s_kind: str = "clustered"
    r_size: int = 1000
    s_size: int = 1000
    clusters: int = 8
    seed: int = 0
    epsilon: float = 0.02
    buffer_size: int = 800
    bucket_queries: bool = False
    window: Rect = UNIT_RECT
    extra: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        valid = ("clustered", "uniform", "railway")
        for kind in (self.r_kind, self.s_kind):
            if kind not in valid:
                raise ValueError(f"unknown dataset kind {kind!r}; valid: {valid}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")

    def with_clusters(self, clusters: int) -> "WorkloadSpec":
        return replace(self, clusters=clusters)

    def describe(self) -> str:
        return (
            f"{self.r_kind}({self.r_size}) x {self.s_kind}({self.s_size}), "
            f"k={self.clusters}, eps={self.epsilon:g}, buffer={self.buffer_size}, "
            f"bucket={self.bucket_queries}, seed={self.seed}"
        )


def paper_cluster_sweep(
    base: WorkloadSpec, cluster_counts: Sequence[int] = PAPER_CLUSTER_COUNTS
) -> Iterator[WorkloadSpec]:
    """Yield one workload per cluster count of the paper's x-axis."""
    for k in cluster_counts:
        yield base.with_clusters(k)


def random_query_windows(
    count: int,
    relative_size: float = 0.25,
    seed: int = 0,
    bounds: Rect = UNIT_RECT,
) -> List[Rect]:
    """Random square query windows of a given relative side length.

    Used by the examples and by the multi-window ablation: each window has
    side ``relative_size * bounds.width`` and lies fully inside ``bounds``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 0.0 < relative_size <= 1.0:
        raise ValueError("relative_size must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    side_x = bounds.width * relative_size
    side_y = bounds.height * relative_size
    xs = rng.uniform(bounds.xmin, bounds.xmax - side_x, size=count)
    ys = rng.uniform(bounds.ymin, bounds.ymax - side_y, size=count)
    return [Rect(float(x), float(y), float(x) + side_x, float(y) + side_y) for x, y in zip(xs, ys)]
