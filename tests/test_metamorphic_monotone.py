"""Monotone facts: growing the input or the predicate never removes a pair.

Raising epsilon widens the distance predicate, and adding objects to S
adds candidates, so every pair of the smaller join is a pair of the larger
one -- for every algorithm, whatever its plan.  These are facts about the
input, so the test needs no oracle (ROADMAP item 15 (d)).  The runs share
one explicit window that covers every dataset, so neither transform moves
the window the join is planned over.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.api import AdHocJoinSession
from repro.core.planner import ALGORITHMS, StackConfig
from repro.datasets.dataset import SpatialDataset
from repro.datasets.synthetic import clustered, uniform
from repro.geometry.rect import Rect

#: Covers every dataset below (the generators draw inside the unit square).
WINDOW = Rect(0.0, 0.0, 1.0, 1.0)
EPSILON, WIDER = 0.01, 0.03
SEEDS = range(4)
BUFFERS = (20, 60)


@functools.lru_cache(maxsize=None)
def _datasets(k: int):
    """``(R, S, S plus five points drawn from [0.2, 0.8]^2)`` of seed ``k``."""
    r = clustered(300, 4, seed=k, name="R")
    s = uniform(250, seed=100 + k, name="S")
    extra = np.random.default_rng(k).uniform(0.2, 0.8, size=(5, 2))
    grown = SpatialDataset.from_points(np.concatenate([s.mbrs[:, :2], extra]), name="S")
    return r, s, grown


@functools.lru_cache(maxsize=None)
def _servers(k: int, grown: bool):
    """Seed ``k``'s datasets and servers, with S grown or not (built once)."""
    r, s, more = _datasets(k)
    s = more if grown else s
    return r, s, StackConfig().servers(r, s)


@functools.lru_cache(maxsize=None)
def _session(k: int, grown: bool, buffer_size: int) -> AdHocJoinSession:
    """A session over seed ``k``'s servers with the given buffer."""
    r, s, servers = _servers(k, grown)
    return AdHocJoinSession(r, s, buffer_size=buffer_size, servers=servers)


def _pairs(algorithm, k, grown, epsilon, buffer_size):
    result = _session(k, grown, buffer_size).run(
        algorithm=algorithm, epsilon=epsilon, window=WINDOW
    )
    return result.pairs


def test_the_window_covers_every_dataset():
    for k in SEEDS:
        r, s, grown = _datasets(k)
        for dataset in (r, s, grown):
            box = dataset.bounds()
            assert WINDOW.xmin <= box.xmin and box.xmax <= WINDOW.xmax
            assert WINDOW.ymin <= box.ymin and box.ymax <= WINDOW.ymax
        # The grown S keeps every original object under its own oid.
        assert np.array_equal(grown.oids[: len(s)], s.oids)
        assert np.array_equal(grown.mbrs[: len(s)], s.mbrs)


@pytest.mark.parametrize("buffer_size", BUFFERS)
@pytest.mark.parametrize("k", SEEDS)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_growing_epsilon_or_s_never_removes_a_pair(algorithm, k, buffer_size):
    base = _pairs(algorithm, k, False, EPSILON, buffer_size)
    assert base, "a join with no pairs shows nothing"
    assert base <= _pairs(algorithm, k, False, WIDER, buffer_size)
    assert base <= _pairs(algorithm, k, True, EPSILON, buffer_size)
