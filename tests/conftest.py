"""Shared pytest fixtures for the reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.join_types import JoinSpec
from repro.datasets.railway import generate_railway_like
from repro.datasets.synthetic import clustered, uniform
from repro.geometry.rect import Rect
from repro.network.config import NetworkConfig


@pytest.fixture
def unit_window() -> Rect:
    return Rect(0.0, 0.0, 1.0, 1.0)


@pytest.fixture
def wifi_config() -> NetworkConfig:
    return NetworkConfig()


@pytest.fixture
def small_clustered_pair():
    """Two small clustered datasets with overlapping occupied regions."""
    r = clustered(n=150, clusters=3, seed=7)
    s = clustered(n=150, clusters=3, seed=7, std=0.05)
    return r, s


@pytest.fixture
def small_uniform_pair():
    """Two small uniform datasets."""
    r = uniform(n=120, seed=3)
    s = uniform(n=120, seed=4)
    return r, s


@pytest.fixture
def distance_spec() -> JoinSpec:
    return JoinSpec.distance(0.03)


def brute_force_pairs(dataset_r, dataset_s, epsilon: float):
    """Oracle: all (r_oid, s_oid) pairs within ``epsilon`` (MBR min distance)."""
    from tests.oracles.operators_scalar import pairwise_within_distance

    matrix = pairwise_within_distance(dataset_r.mbrs, dataset_s.mbrs, epsilon)
    idx_r, idx_s = np.nonzero(matrix)
    return {
        (int(dataset_r.oids[i]), int(dataset_s.oids[j])) for i, j in zip(idx_r, idx_s)
    }


def build_datasets(spec):
    """The two datasets a :class:`~repro.datasets.workloads.WorkloadSpec`
    describes, straight from the generators: R at ``spec.seed``, S at
    ``spec.seed + 1000`` (what a sweep cell joins)."""

    def build(kind: str, size: int, seed: int):
        if kind == "clustered":
            return clustered(n=size, clusters=spec.clusters, seed=seed)
        if kind == "uniform":
            return uniform(n=size, seed=seed)
        if kind == "railway":
            return generate_railway_like(n_segments=size, seed=seed)
        raise ValueError(f"unknown dataset kind {kind!r}")

    return build(spec.r_kind, spec.r_size, spec.seed), build(spec.s_kind, spec.s_size, spec.seed + 1000)


@pytest.fixture
def oracle():
    """Expose the brute-force oracle as a fixture-callable."""
    return brute_force_pairs
