"""Power-of-two scale: a transform that must not move an answer or a byte.

Scaling every coordinate and epsilon by ``2**k`` is exact in binary
floating point (no value here comes near overflow or the denormals), and
every rule of the algorithms compares lengths, areas and costs with each
other, never with an absolute constant -- so a scaled join must decide the
same windows, ship the same bytes and find the same pairs.  The property
is a fact about the input, so the test needs no oracle: each algorithm is
held against its own unscaled run.

UpJoin is held in pairs only: its confirmation probe keys a draw on the
window's float bits (``UpJoin._probe_uv``), so a scale moves its probe
counts on all three workloads and its bytes on the third.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.join_types import JoinSpec
from repro.core.planner import build_algorithm, build_session_stack
from repro.datasets.dataset import SpatialDataset
from repro.datasets.synthetic import clustered, uniform
from repro.geometry.rect import Rect

SCALES = (-20, -7, -3, 5, 11, 20)
#: The algorithms whose every observable holds under the scale.
HELD_WHOLE = ("naive", "fixedgrid", "mobijoin", "srjoin", "semijoin")

#: ``(R, S, epsilon, buffer)``; ``epsilon`` 0 is an intersection join.
WORKLOADS = {
    "clustered-clustered": (lambda: clustered(1500, 8, seed=3), lambda: clustered(1500, 8, seed=4), 0.005, 100),
    "uniform-clustered": (lambda: uniform(800, seed=5), lambda: clustered(900, 3, seed=6), 0.01, 40),
    "clustered-uniform": (lambda: clustered(600, 4, seed=7), lambda: uniform(700, seed=8), 0.0, 30),
}


@functools.lru_cache(maxsize=None)
def _datasets(workload: str):
    make_r, make_s, _, _ = WORKLOADS[workload]
    return make_r().rename("R"), make_s().rename("S")


def _scaled(dataset: SpatialDataset, k: int) -> SpatialDataset:
    return SpatialDataset(dataset.mbrs * 2.0**k, dataset.oids, name=dataset.name)


def _run(workload: str, algorithm: str, k: int):
    """One standalone run at scale ``2**k``: its result and both ledgers."""
    r, s = _datasets(workload)
    _, _, epsilon, buffer = WORKLOADS[workload]
    r, s = _scaled(r, k), _scaled(s, k)
    spec = JoinSpec.distance(epsilon * 2.0**k) if epsilon else JoinSpec.intersection()
    _, _, device = build_session_stack(r, s, buffer_size=buffer)
    result = build_algorithm(algorithm, device, spec).run(r.bounds().union(s.bounds()))
    ledgers = (device.servers.r.ledger_fingerprint(), device.servers.s.ledger_fingerprint())
    return result, ledgers


@functools.lru_cache(maxsize=None)
def _observed(workload: str, algorithm: str, k: int):
    """What the scale must not move, windows scaled back to the unit."""
    result, ledgers = _run(workload, algorithm, k)
    back = 2.0**-k
    trace = [
        (
            event.depth,
            Rect(*(value * back for value in event.window.as_tuple())),
            event.action,
            event.detail,
            event.count_r,
            event.count_s,
        )
        for event in result.trace
    ]
    return {
        "pairs": result.pairs.block.tobytes(),
        "total_bytes": result.total_bytes,
        "ledgers": ledgers,
        "server_stats": result.server_stats,
        "operator_counts": result.operator_counts,
        "trace": trace,
    }


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("algorithm", HELD_WHOLE)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_power_of_two_scale_moves_nothing(workload, algorithm, k):
    got, want = _observed(workload, algorithm, k), _observed(workload, algorithm, 0)
    for key in want:
        assert got[key] == want[key], key
    assert want["total_bytes"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_upjoin_keeps_its_pairs_under_every_scale(workload):
    want = _run(workload, "upjoin", 0)[0].pairs.block
    assert want.shape[0] > 0 or workload == "clustered-uniform"
    for k in SCALES:
        assert np.array_equal(_run(workload, "upjoin", k)[0].pairs.block, want), k
