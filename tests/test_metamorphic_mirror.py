"""x-mirror: a transform that must not move an answer, nor most bytes.

Mirroring every object and the window in x (``x -> -x``, so ``xmin`` and
``xmax`` trade places) is exact in floating point, and a quadrant split
of the mirrored window yields the mirrored quadrants.  The pairs must
hold for every algorithm.  Naive, FixedGrid, MobiJoin, UpJoin and SrJoin
also ship the same bytes per server, with the same server statistics and
operator counters: their rules read counts, areas and costs, which the
mirror keeps -- UpJoin and SrJoin because every quadrant count is a real
COUNT (a fourth quadrant derived from the other three is not: the mirror
moves which quadrant is derived).  UpJoin's confirmation probe is placed
by a draw keyed on the window's float bits (``UpJoin._probe_uv``), which
the mirror changes; on these workloads no probe verdict moves.  The
property is a fact about the input, so the test needs no oracle: each run
is held against its own unmirrored twin, on the scale test's workloads.

What is not held: the ledgers and traces (they hold only up to the
mirror's reordering of the quadrants), and the bytes of SemiJoin
(uniform-clustered 10,548 -> 10,668 B), which move (ROADMAP item 15 (b)).
"""

from __future__ import annotations

import functools

import pytest

from repro.core.join_types import JoinSpec
from repro.core.planner import build_algorithm, build_session_stack
from repro.datasets.dataset import SpatialDataset

from tests.test_metamorphic_scale import WORKLOADS, _datasets

ALGORITHMS = ("naive", "fixedgrid", "mobijoin", "upjoin", "srjoin", "semijoin")
#: The algorithms whose bytes, statistics and counters hold under the mirror.
HELD_WHOLE = ("naive", "fixedgrid", "mobijoin", "upjoin", "srjoin")
OBSERVED = ("total_bytes", "bytes_r", "bytes_s", "server_stats", "operator_counts")


def _mirrored(dataset: SpatialDataset) -> SpatialDataset:
    mbrs = dataset.mbrs.copy()
    mbrs[:, 0], mbrs[:, 2] = -dataset.mbrs[:, 2], -dataset.mbrs[:, 0]
    return SpatialDataset(mbrs, dataset.oids, name=dataset.name)


@functools.lru_cache(maxsize=None)
def _run(workload: str, algorithm: str, mirror: bool):
    """One standalone run over the default window, mirrored or not."""
    r, s = _datasets(workload)
    _, _, epsilon, buffer = WORKLOADS[workload]
    if mirror:
        r, s = _mirrored(r), _mirrored(s)
    spec = JoinSpec.distance(epsilon) if epsilon else JoinSpec.intersection()
    _, _, device = build_session_stack(r, s, buffer_size=buffer)
    return build_algorithm(algorithm, device, spec).run(r.bounds().union(s.bounds()))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_the_mirror_keeps_the_pairs(workload, algorithm):
    want = _run(workload, algorithm, False).pairs
    assert _run(workload, algorithm, True).pairs == want
    assert len(want) > 0 or workload == "clustered-uniform"


@pytest.mark.parametrize("algorithm", HELD_WHOLE)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_the_mirror_keeps_the_bytes(workload, algorithm):
    got, want = _run(workload, algorithm, True), _run(workload, algorithm, False)
    for key in OBSERVED:
        assert getattr(got, key) == getattr(want, key), key
    assert want.total_bytes > 0
