"""Equivalence tests for the experiment execution layer.

The sweep runner may share one pre-built server pair per (x-value, seed)
cell across all algorithm series (``share_servers=True``), and may fan the
cells out over a process pool (``workers=N``).  Neither is allowed to
change a single byte of the result: these tests pin

* cold serial == cached serial == parallel, bit for bit, on the full
  :class:`~repro.experiments.harness.ExperimentResult` (means, stds, pair
  counts, and the raw per-run results), and
* that a cached server pair is safely reusable across algorithms -- a run
  on shared servers is indistinguishable from a run on freshly built ones,
  in any order.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.workloads import WorkloadSpec
from repro.experiments.harness import (
    ExperimentConfig,
    ExperimentResult,
    WorkloadCache,
    build_datasets,
    run_experiment,
    run_single,
)


def _small_workload(x, seed):
    """Deterministic tiny workload: two clustered 200-point datasets."""
    spec = WorkloadSpec(
        r_size=200, s_size=200, clusters=int(x), seed=seed, epsilon=0.01
    )
    dataset_r, dataset_s = build_datasets(spec)
    return dataset_r, dataset_s, spec


def _mixed_config() -> ExperimentConfig:
    """A sweep mixing algorithms (including the indexed SemiJoin path)."""
    return ExperimentConfig(
        name="equivalence_mixed",
        description="cross-algorithm sweep for execution-layer equivalence",
        x_values=(1, 4),
        x_label="clusters",
        series={
            "srJoin": {"algorithm": "srjoin"},
            "upJoin": {"algorithm": "upjoin"},
            "semiJoin": {"algorithm": "semijoin"},
            "naive": {"algorithm": "naive"},
        },
        workload=_small_workload,
        seeds=(0, 1),
        buffer_size=400,
    )


def _snapshot(result: ExperimentResult):
    """Everything a figure is drawn from, in comparable form."""
    return {
        label: (
            tuple(series.mean_bytes),
            tuple(series.std_bytes),
            tuple(series.mean_pairs),
        )
        for label, series in result.series.items()
    }


def _assert_identical_runs(a: ExperimentResult, b: ExperimentResult) -> None:
    assert set(a.runs) == set(b.runs) and a.runs
    for key in a.runs:
        run_a, run_b = a.runs[key], b.runs[key]
        assert run_a.pairs == run_b.pairs
        assert run_a.total_bytes == run_b.total_bytes
        assert run_a.bytes_r == run_b.bytes_r
        assert run_a.bytes_s == run_b.bytes_s
        assert run_a.server_stats == run_b.server_stats
        assert run_a.operator_counts == run_b.operator_counts


class TestSweepEquivalence:
    def test_cached_matches_cold_serial(self):
        config = _mixed_config()
        cold = run_experiment(config, keep_runs=True, share_servers=False)
        cached = run_experiment(config, keep_runs=True, share_servers=True)
        assert _snapshot(cold) == _snapshot(cached)
        _assert_identical_runs(cold, cached)

    def test_parallel_matches_serial(self):
        config = _mixed_config()
        serial = run_experiment(config, keep_runs=True)
        parallel = run_experiment(config, keep_runs=True, workers=2)
        assert _snapshot(serial) == _snapshot(parallel)
        _assert_identical_runs(serial, parallel)
        # The merge must also preserve the canonical ordering of the raw
        # runs (series-major, then x, then seed), independent of scheduling.
        assert list(serial.runs) == list(parallel.runs)

    def test_parallel_more_workers_than_cells(self):
        config = _mixed_config()
        serial = run_experiment(config)
        flooded = run_experiment(config, workers=16)
        assert _snapshot(serial) == _snapshot(flooded)


class TestWorkloadCache:
    def test_cache_builds_once_per_cell(self):
        config = _mixed_config()
        cache = WorkloadCache(config)
        first = cache.get(1, 0)
        again = cache.get(1, 0)
        other = cache.get(4, 0)
        assert first is again and first is not other
        assert cache.misses == 2 and cache.hits == 1 and len(cache) == 2

    def test_cached_servers_safely_reusable_across_algorithms(self):
        """Shared servers must behave exactly like freshly built ones.

        Runs several algorithms back to back on one cached cell and checks
        every run against the same algorithm on a cold stack; repeats the
        first algorithm last to catch state leaked by the runs in between.
        """
        config = _mixed_config()
        cache = WorkloadCache(config)
        cell = cache.get(4, 1)
        mbrs_before = cell.server_r.dataset.mbrs.copy()
        index_len = len(cell.server_r.index)

        sequence = ["srJoin", "upJoin", "semiJoin", "naive", "srJoin"]
        for label in sequence:
            run_kwargs = config.series[label]
            shared = run_single(
                cell.dataset_r,
                cell.dataset_s,
                cell.spec,
                run_kwargs,
                buffer_size=config.buffer_size,
                config=config.config,
                indexed=config.indexed,
                servers=cell.servers,
            )
            fresh = run_single(
                cell.dataset_r,
                cell.dataset_s,
                cell.spec,
                run_kwargs,
                buffer_size=config.buffer_size,
                config=config.config,
                indexed=config.indexed,
            )
            assert shared.pairs == fresh.pairs
            assert shared.total_bytes == fresh.total_bytes
            assert shared.server_stats == fresh.server_stats
            assert shared.operator_counts == fresh.operator_counts

        # The cell's immutable state is untouched by five joins.
        assert np.array_equal(cell.server_r.dataset.mbrs, mbrs_before)
        assert len(cell.server_r.index) == index_len

    def test_repetition_override_applies_to_cells(self):
        config = _mixed_config()
        serial = run_experiment(config, repetitions=1)
        parallel = run_experiment(config, repetitions=1, workers=2)
        assert _snapshot(serial) == _snapshot(parallel)
        assert all(
            len(series.mean_bytes) == len(config.x_values)
            for series in serial.series.values()
        )
