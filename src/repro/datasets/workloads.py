"""Workload specifications and query-window generators.

The experiments of the paper always join a *query window* worth of data:
the 1 000-point synthetic datasets "simulate typical windows of users'
requests", i.e. the joined region is the full unit square holding the
synthetic data; the real-data experiments join the synthetic window against
the corresponding region of the railway map.

:class:`WorkloadSpec` bundles everything an experiment needs to regenerate
a run (dataset parameters, join parameters, device parameters), and
:data:`PAPER_CLUSTER_COUNTS` is the cluster-count sweep on the x-axis of
every figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import InvalidInput, require_count, require_finite
from repro.geometry.rect import Rect, UNIT_RECT

__all__ = ["WorkloadSpec", "random_query_windows"]

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
        Object counts (segments for the railway generator).
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

    A bad value is :class:`~repro.errors.InvalidInput` at construction.
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

    def __post_init__(self) -> None:
        valid = ("clustered", "uniform", "railway")
        for kind in (self.r_kind, self.s_kind):
            if kind not in valid:
                raise InvalidInput(f"unknown dataset kind {kind!r}; valid: {valid}")
        require_count(self.r_size, "r_size")
        require_count(self.s_size, "s_size")
        require_count(self.clusters, "clusters")
        require_count(self.seed, "seed", minimum=0)
        require_finite(self.epsilon, "epsilon")
        require_count(self.buffer_size, "buffer_size")


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
    require_count(count, "count", minimum=0)
    require_finite(relative_size, "relative_size", maximum=1.0)
    if relative_size == 0:
        raise InvalidInput("relative_size must lie in (0, 1], got 0")
    require_count(seed, "seed", minimum=0)
    rng = np.random.default_rng(seed)
    side_x = bounds.width * relative_size
    side_y = bounds.height * relative_size
    xs = rng.uniform(bounds.xmin, bounds.xmax - side_x, size=count)
    ys = rng.uniform(bounds.ymin, bounds.ymax - side_y, size=count)
    return [Rect(float(x), float(y), float(x) + side_x, float(y) + side_y) for x, y in zip(xs, ys)]
