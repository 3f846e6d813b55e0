"""Cross-algorithm equivalence harness.

Every algorithm registered in :data:`repro.core.planner.ALGORITHMS` must
return *exactly* the same result-pair set as :class:`NaiveDownloadJoin` on
the same workload -- the naive wholesale download is the correctness oracle
the paper measures everything against.  The harness sweeps randomized small
workloads (several seeds, clustered/uniform/railway generators, distance
and intersection predicates, an epsilon sweep) so that any behavioural
drift introduced by performance work in the kernels, indexes, servers or
refinement paths is caught immediately.

Each randomized case also joins over one random window of its own: every
algorithm returns naive's pairs over that window, each of them a pair of
the full join whose R object meets the window.

A determinism section additionally pins that repeated executions of the
same workload produce identical pair sets, byte totals and traces, so no
algorithm depends on dict/set iteration order or unseeded randomness.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
import pytest

from repro.api import AdHocJoinSession
from repro.core.naive import FIXED_GRID, FixedGridJoin
from repro.core.planner import ALGORITHMS
from repro.datasets.railway import generate_railway_like
from repro.datasets.synthetic import clustered, gaussian_mixture, uniform
from repro.errors import WorkBudgetExceeded
from repro.geometry.rect import Rect

from tests.oracles.eager_trace import EagerTrace

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
    # A small buffer exercises the HBSJ recursive-split and NLSJ fallback
    # paths.
    return AdHocJoinSession(dataset_r, dataset_s, buffer_size=buffer_size)


def _run_all(session: AdHocJoinSession, **run_kwargs) -> Dict[str, frozenset]:
    out: Dict[str, frozenset] = {}
    for name in ALGO_NAMES:
        result = session.run(algorithm=name, **run_kwargs)
        out[name] = frozenset(result.pairs)
    return out


def _random_window(case: int) -> Rect:
    """Case ``case``'s join window: a seeded corner and size, so it lies
    inside the data, straddles its edge or misses it."""
    rng = np.random.default_rng(1000 + case)
    x, y = rng.uniform(-0.2, 0.9, size=2).tolist()
    w, h = rng.uniform(0.05, 0.7, size=2).tolist()
    return Rect(x, y, x + w, y + h)


def _assert_window_rule(
    session: AdHocJoinSession, pair_sets: Dict[str, frozenset], case: int, **run_kwargs
) -> None:
    """Every algorithm over the case's random window returns naive's pairs
    there: full-join pairs whose R object meets the window.  (With point
    R objects these are all such pairs, ``tests/test_window_rule.py``; an
    extended R object's partners outside the window grown by the
    predicate margin are not searched.)"""
    window = _random_window(case)
    r = session.dataset_r
    inside = set(r.oids[r.window_mask(window)].tolist())
    windowed = _run_all(session, window=window, **run_kwargs)
    assert all(pair[0] in inside for pair in windowed["naive"])
    assert windowed["naive"] <= pair_sets["naive"]
    _assert_all_match_naive(windowed)


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
        _assert_window_rule(session, pair_sets, seed, kind="distance", epsilon=epsilon, seed=seed)

    @pytest.mark.parametrize("epsilon", EPSILON_SWEEP)
    def test_epsilon_sweep(self, epsilon):
        r = uniform(n=60, seed=11)
        s = clustered(n=60, clusters=2, seed=12, std=0.06)
        session = _session(r, s)
        pair_sets = _run_all(session, kind="distance", epsilon=epsilon)
        _assert_all_match_naive(pair_sets)
        case = 10 + EPSILON_SWEEP.index(epsilon)
        _assert_window_rule(session, pair_sets, case, kind="distance", epsilon=epsilon)

    def test_extended_objects(self):
        # Railway segments are extended MBRs: exercises the derived-count
        # underestimation paths and window-margin handling.
        r = generate_railway_like(n_segments=60, seed=3, hubs=6)
        s = clustered(n=60, clusters=3, seed=4, std=0.08)
        session = _session(r, s)
        pair_sets = _run_all(session, kind="distance", epsilon=0.03)
        _assert_all_match_naive(pair_sets)
        _assert_window_rule(session, pair_sets, 20, kind="distance", epsilon=0.03)


class TestIntersectionJoins:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_railway_pairs(self, seed):
        r = generate_railway_like(n_segments=70, seed=seed, hubs=6)
        s = generate_railway_like(n_segments=70, seed=seed + 50, hubs=5)
        session = _session(r, s)
        pair_sets = _run_all(session, kind="intersection")
        _assert_all_match_naive(pair_sets)
        _assert_window_rule(session, pair_sets, 30 + seed, kind="intersection")


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


class _PerCellFixedGrid(EagerTrace, FixedGridJoin):
    """The per-cell loop ``FixedGridJoin`` ran before its cells were batched:
    one depth-first scalar HBSJ operator per cell (kept as the oracle)."""

    def _levels(self, crew, level):
        # The root level of a run on its own; every exchange runs on the
        # query's own connections: a step generator that offers no step.
        (window,) = level.windows.tolist()
        self._per_cell(Rect(*window), int(level.count_r[0]), int(level.count_s[0]), level.depth)
        return
        yield

    def _per_cell(self, window, count_r, count_s, depth):
        if count_r == 0 or count_s == 0:
            self.prune(window, depth, count_r, count_s)
            return
        cells = window.subdivide(FIXED_GRID)
        counts_r = self.device.count_windows("R", [self.query_window("R", c) for c in cells])
        counts_s = self.device.count_windows("S", [self.query_window("S", c) for c in cells])
        for cell, cell_r, cell_s in zip(cells, counts_r, counts_s):
            if cell_r == 0 or cell_s == 0:
                self.prune(cell, depth + 1, cell_r, cell_s)
                continue
            self.record(depth + 1, cell, "HBSJ", "", cell_r, cell_s)
            self._pairs.extend(self.device.hbsj(cell, self.predicate, cell_r, cell_s).pairs)


def _around_r(seed: int):
    """Two 70-point clustered sets, S drawn around R's cluster centres (which
    ``clustered`` draws first from its seed) so that each has pairs."""
    k = 1 + seed % 4
    rng = np.random.default_rng(seed)
    centres = np.column_stack([rng.uniform(0.0, 1.0, size=k), rng.uniform(0.0, 1.0, size=k)])
    return (
        clustered(n=70, clusters=k, seed=seed),
        gaussian_mixture(70, centres.tolist(), std=0.04, seed=seed + 100),
    )


FIXEDGRID_WORKLOADS = {
    **{
        f"clustered-seed{seed}": (lambda seed=seed: _around_r(seed), dict(kind="distance", epsilon=0.03))
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


def _result_or_budget_error(session: AdHocJoinSession, **run_kwargs):
    """The run's result, or the :class:`WorkBudgetExceeded` it raised."""
    try:
        return session.run(**run_kwargs)
    except WorkBudgetExceeded as error:
        return error


class TestFixedGridBatchedEqualsPerCell:
    """One ``hbsj_batch`` over the surviving cells == one operator per cell."""

    @pytest.mark.parametrize("workload", sorted(FIXEDGRID_WORKLOADS))
    def test_every_workload_has_pairs(self, workload):
        """No workload compares two empty answers."""
        datasets, join = FIXEDGRID_WORKLOADS[workload]
        assert _session(*datasets(), buffer_size=800).run(algorithm="naive", **join).sorted_pairs()

    # 16 and 24 are smaller than most cells, so the operator has to split
    # them; 8 splits them deep, 4 and 1 down to the depth limit; 100 and 800
    # (the paper's two buffers) hold most or every cell whole.
    @pytest.mark.parametrize("buffer_size", [1, 4, 8, 16, 24, 100, 800])
    @pytest.mark.parametrize("workload", sorted(FIXEDGRID_WORKLOADS))
    def test_pairs_bytes_stats_and_trace(self, workload, buffer_size, monkeypatch):
        monkeypatch.setitem(ALGORITHMS, "fixedgrid-percell", _PerCellFixedGrid)
        datasets, join = FIXEDGRID_WORKLOADS[workload]
        session = _session(*datasets(), buffer_size=buffer_size)
        batched, per_cell = (
            _result_or_budget_error(session, algorithm=name, **join)
            for name in ("fixedgrid", "fixedgrid-percell")
        )
        if isinstance(batched, WorkBudgetExceeded):
            # Overlapping extended objects a tiny buffer cannot separate: the
            # oracle runs out of the same budget.  Its cells are narrower, so
            # the step and the width it fails at may differ.
            assert isinstance(per_cell, WorkBudgetExceeded), per_cell
            assert per_cell.budget == batched.budget
            return
        assert not isinstance(per_cell, WorkBudgetExceeded), per_cell
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
