"""Cross-algorithm equivalence harness.

Every algorithm registered in :data:`repro.core.planner.ALGORITHMS` must
return *exactly* the same result-pair set as :class:`NaiveDownloadJoin` on
the same workload -- the naive wholesale download is the correctness oracle
the paper measures everything against.  The harness sweeps randomized small
workloads (several seeds, clustered/uniform/railway generators, distance
and intersection predicates, an epsilon sweep) so that any behavioural
drift introduced by performance work in the kernels, indexes, servers or
refinement paths is caught immediately.

A determinism section additionally pins that repeated executions of the
same workload produce identical pair sets, byte totals and traces, so no
algorithm depends on dict/set iteration order or unseeded randomness.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.api import AdHocJoinSession
from repro.core.naive import FixedGridJoin
from repro.core.planner import ALGORITHMS
from repro.datasets.railway import generate_railway_like
from repro.datasets.synthetic import clustered, uniform
from repro.device.steps import run_steps

ALGO_NAMES = sorted(ALGORITHMS)

#: Randomized distance-join workloads: (workload id, R factory kwargs,
#: S factory kwargs, epsilon).  Deliberately more than five distinct
#: workloads, mixing skew levels and generators.
DISTANCE_WORKLOADS = [
    pytest.param(seed, eps, id=f"clustered-seed{seed}-eps{eps:g}")
    for seed in range(5)
    for eps in (0.03,)
] + [
    pytest.param(5, 0.01, id="clustered-seed5-eps0.01"),
    pytest.param(6, 0.08, id="clustered-seed6-eps0.08"),
]

EPSILON_SWEEP = (0.005, 0.02, 0.05, 0.1)


def _session(dataset_r, dataset_s, buffer_size: int = 96) -> AdHocJoinSession:
    # Indexed sessions so SemiJoin runs too; the extra index never changes
    # the accounting of the other algorithms.  A small buffer exercises the
    # HBSJ recursive-split and NLSJ fallback paths.
    return AdHocJoinSession(
        dataset_r, dataset_s, buffer_size=buffer_size, indexed=True
    )


def _run_all(session: AdHocJoinSession, **run_kwargs) -> Dict[str, frozenset]:
    out: Dict[str, frozenset] = {}
    for name in ALGO_NAMES:
        result = session.run(algorithm=name, **run_kwargs)
        out[name] = frozenset(result.pairs)
    return out


def _assert_all_match_naive(pair_sets: Dict[str, frozenset]) -> None:
    oracle = pair_sets["naive"]
    for name, pairs in pair_sets.items():
        missing = oracle - pairs
        extra = pairs - oracle
        assert pairs == oracle, (
            f"{name} disagrees with naive: missing={sorted(missing)[:10]} "
            f"extra={sorted(extra)[:10]}"
        )


class TestDistanceJoins:
    @pytest.mark.parametrize("seed,epsilon", DISTANCE_WORKLOADS)
    def test_random_clustered_workloads(self, seed, epsilon):
        r = clustered(n=70, clusters=1 + seed % 4, seed=seed)
        s = clustered(n=70, clusters=1 + (seed + 1) % 3, seed=seed + 100, std=0.04)
        session = _session(r, s)
        pair_sets = _run_all(session, kind="distance", epsilon=epsilon, seed=seed)
        _assert_all_match_naive(pair_sets)

    @pytest.mark.parametrize("epsilon", EPSILON_SWEEP)
    def test_epsilon_sweep(self, epsilon):
        r = uniform(n=60, seed=11)
        s = clustered(n=60, clusters=2, seed=12, std=0.06)
        session = _session(r, s)
        pair_sets = _run_all(session, kind="distance", epsilon=epsilon)
        _assert_all_match_naive(pair_sets)

    def test_extended_objects(self):
        # Railway segments are extended MBRs: exercises the derived-count
        # underestimation paths and window-margin handling.
        r = generate_railway_like(n_segments=60, seed=3, hubs=6)
        s = clustered(n=60, clusters=3, seed=4, std=0.08)
        session = _session(r, s)
        pair_sets = _run_all(session, kind="distance", epsilon=0.03)
        _assert_all_match_naive(pair_sets)


class TestIntersectionJoins:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_railway_pairs(self, seed):
        r = generate_railway_like(n_segments=70, seed=seed, hubs=6)
        s = generate_railway_like(n_segments=70, seed=seed + 50, hubs=5)
        session = _session(r, s)
        pair_sets = _run_all(session, kind="intersection")
        _assert_all_match_naive(pair_sets)


class TestIcebergSemiJoin:
    def test_iceberg_objects_match_naive(self):
        r = clustered(n=80, clusters=2, seed=21)
        s = clustered(n=80, clusters=2, seed=22, std=0.05)
        session = _session(r, s)
        objects: Dict[str, Tuple[int, ...]] = {}
        for name in ALGO_NAMES:
            result = session.run(
                algorithm=name, kind="iceberg", epsilon=0.05, min_matches=2
            )
            objects[name] = tuple(result.objects)
        for name, objs in objects.items():
            assert objs == objects["naive"], f"{name} iceberg answer differs"


class TestDeterminism:
    @pytest.mark.parametrize("name", ALGO_NAMES)
    def test_repeated_runs_identical(self, name):
        """Two fresh executions of the same workload must agree bit-for-bit:
        same sorted pairs, same byte totals, same trace actions."""

        def run_once():
            r = clustered(n=60, clusters=3, seed=31)
            s = clustered(n=60, clusters=2, seed=32, std=0.05)
            session = _session(r, s)
            return session.run(algorithm=name, kind="distance", epsilon=0.04, seed=7)

        first = run_once()
        second = run_once()
        assert first.sorted_pairs() == second.sorted_pairs()
        assert first.total_bytes == second.total_bytes
        assert first.bytes_r == second.bytes_r
        assert first.bytes_s == second.bytes_s
        assert first.operator_counts == second.operator_counts
        assert [e.action for e in first.trace] == [e.action for e in second.trace]
        assert [e.detail for e in first.trace] == [e.detail for e in second.trace]


class _PerCellFixedGrid(FixedGridJoin):
    """The per-cell loop ``FixedGridJoin`` ran before its cells were batched:
    one depth-first scalar HBSJ operator per cell (kept as the oracle)."""

    def _steps(self, window, count_r, count_s, depth):
        # Every exchange runs on the query's own connections: a step
        # generator that offers no step.
        self._per_cell(window, count_r, count_s, depth)
        return
        yield

    def _per_cell(self, window, count_r, count_s, depth):
        if count_r == 0 or count_s == 0:
            self.prune(window, depth, count_r, count_s)
            return
        cells = window.subdivide(self.grid_size)
        if not self.prune_empty:
            for cell in cells:
                self._hbsj(cell, depth + 1, counts_exact=False)
            return
        counts_r = self.device.count_windows("R", [self.query_window("R", c) for c in cells])
        counts_s = self.device.count_windows("S", [self.query_window("S", c) for c in cells])
        for cell, cell_r, cell_s in zip(cells, counts_r, counts_s):
            if cell_r == 0 or cell_s == 0:
                self.prune(cell, depth + 1, cell_r, cell_s)
                continue
            self._hbsj(cell, depth + 1, cell_r, cell_s, counts_exact=True)

    def _hbsj(self, cell, depth, *counts, **options):
        run_steps(self.hbsj_steps(cell, depth, *counts, **options), self.device.servers)


FIXEDGRID_WORKLOADS = {
    **{
        f"clustered-seed{seed}": (
            lambda seed=seed: (
                clustered(n=70, clusters=1 + seed % 4, seed=seed),
                clustered(n=70, clusters=1 + (seed + 1) % 3, seed=seed + 100, std=0.04),
            ),
            dict(kind="distance", epsilon=0.03),
        )
        for seed in range(4)
    },
    "uniform-vs-clustered": (
        lambda: (uniform(n=60, seed=11), clustered(n=60, clusters=2, seed=12, std=0.06)),
        dict(kind="distance", epsilon=0.05),
    ),
    "railway-extended": (
        lambda: (
            generate_railway_like(n_segments=60, seed=3, hubs=6),
            clustered(n=60, clusters=3, seed=4, std=0.08),
        ),
        dict(kind="distance", epsilon=0.03),
    ),
    "railway-intersection": (
        lambda: (
            generate_railway_like(n_segments=70, seed=1, hubs=6),
            generate_railway_like(n_segments=70, seed=51, hubs=5),
        ),
        dict(kind="intersection"),
    ),
}


class TestFixedGridBatchedEqualsPerCell:
    """One ``hbsj_batch`` over the surviving cells == one operator per cell."""

    @pytest.mark.parametrize("prune_empty", [True, False], ids=["prune", "no-prune"])
    @pytest.mark.parametrize("grid_size", [1, 4, 7])
    @pytest.mark.parametrize("workload", sorted(FIXEDGRID_WORKLOADS))
    def test_pairs_bytes_stats_and_trace(self, workload, grid_size, prune_empty, monkeypatch):
        monkeypatch.setitem(ALGORITHMS, "fixedgrid-percell", _PerCellFixedGrid)
        datasets, join = FIXEDGRID_WORKLOADS[workload]
        # A buffer smaller than most cells: the operator has to split them.
        session = _session(*datasets(), buffer_size=24)
        batched, per_cell = (
            session.run(algorithm=name, grid_size=grid_size, prune_empty=prune_empty, **join)
            for name in ("fixedgrid", "fixedgrid-percell")
        )
        assert batched.sorted_pairs() == per_cell.sorted_pairs()
        assert (batched.total_bytes, batched.bytes_r, batched.bytes_s) == (
            per_cell.total_bytes, per_cell.bytes_r, per_cell.bytes_s,
        )
        assert batched.total_cost == per_cell.total_cost
        assert batched.estimated_time_s == per_cell.estimated_time_s
        assert batched.operator_counts == per_cell.operator_counts
        assert batched.server_stats == per_cell.server_stats
        assert batched.channel_stats == per_cell.channel_stats
        assert batched.buffer_high_water_mark == per_cell.buffer_high_water_mark
        assert batched.trace == per_cell.trace
