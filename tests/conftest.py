"""Shared pytest fixtures for the reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.join_types import JoinSpec
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


@pytest.fixture
def oracle():
    """Expose the brute-force oracle as a fixture-callable."""
    return brute_force_pairs
