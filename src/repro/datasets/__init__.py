"""Dataset containers and synthetic workload generators.

The paper's evaluation uses

* synthetic datasets of 1 000 points clustered around ``k`` random centres
  with Gaussian spread (``k`` in {1, 2, 4, 8, 16, 128} controls the skew),
* a real dataset of ~35 000 German railway segments.

The real dataset is not redistributable, so
:func:`~repro.datasets.railway.generate_railway_like` synthesises a
polyline network with the same cardinality, small-segment MBRs and strong
1-D corridor clustering.
"""

from __future__ import annotations

from repro.datasets.dataset import SpatialDataset
from repro.datasets.partition import (
    PARTITION_SCHEMES,
    partition_dataset,
    shard_assignment,
)
from repro.datasets.synthetic import clustered, gaussian_mixture, uniform
from repro.datasets.railway import generate_railway_like
from repro.datasets.workloads import WorkloadSpec, random_query_windows

__all__ = [
    "SpatialDataset",
    "PARTITION_SCHEMES",
    "partition_dataset",
    "shard_assignment",
    "clustered",
    "uniform",
    "gaussian_mixture",
    "generate_railway_like",
    "WorkloadSpec",
    "random_query_windows",
]
