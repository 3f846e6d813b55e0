"""Equivalence tests for the experiment execution layer.

The sweep runner shares one pre-built server pair per (x-value, seed) cell
across all algorithm series (``share_servers=True``).  That is not allowed
to change a single byte of the result: these tests pin

* cold == shared, bit for bit, on the full
  :class:`~repro.experiments.harness.ExperimentResult` (means, stds, pair
  counts, the raw per-run results and their order), and
* that a shared server pair is safely reusable across algorithms -- a run
  on shared servers is indistinguishable from a run on freshly built ones,
  in any order -- and that a cell builds its servers once, however many
  series it has.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.planner import StackConfig
from repro.datasets.workloads import WorkloadSpec
from repro.experiments.harness import (
    ExperimentConfig,
    ExperimentResult,
    build_datasets,
    run_experiment,
    run_single,
)
from repro.server.server import SpatialServer


def _mixed_config() -> ExperimentConfig:
    """A sweep mixing algorithms (including the indexed SemiJoin path)."""
    return ExperimentConfig(
        name="equivalence_mixed",
        description="cross-algorithm sweep for execution-layer equivalence",
        x_values=(1, 4),
        series={
            "srJoin": {"algorithm": "srjoin"},
            "upJoin": {"algorithm": "upjoin"},
            "semiJoin": {"algorithm": "semijoin"},
            "naive": {"algorithm": "naive"},
        },
        # Two clustered 200-point datasets.
        workload=WorkloadSpec(r_size=200, s_size=200, epsilon=0.01, buffer_size=400),
        seeds=(0, 1),
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
        # The raw runs are in the canonical order: series-major, then x,
        # then seed -- not the order the cells ran in.
        canonical = [
            (label, x, seed)
            for label in config.series
            for x in config.x_values
            for seed in config.seeds
        ]
        assert list(cold.runs) == list(cached.runs) == canonical


class TestSharedCell:
    def test_cell_builds_its_servers_once(self, monkeypatch):
        """Two servers per cell when shared, whatever the series count;
        two per run when not."""
        built = []
        init = SpatialServer.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SpatialServer, "__init__", counting_init)
        config = _mixed_config()
        cells = len(config.x_values) * len(config.seeds)
        for series in (1, len(config.series)):
            built.clear()
            narrowed = dataclasses.replace(
                config, series=dict(list(config.series.items())[:series])
            )
            run_experiment(narrowed, share_servers=True)
            assert len(built) == 2 * cells
            built.clear()
            run_experiment(narrowed, share_servers=False)
            assert len(built) == 2 * cells * series

    def test_cached_servers_safely_reusable_across_algorithms(self):
        """Shared servers must behave exactly like freshly built ones.

        Runs several algorithms back to back on one cached cell and checks
        every run against the same algorithm on a cold stack; repeats the
        first algorithm last to catch state leaked by the runs in between.
        """
        config = _mixed_config()
        spec = dataclasses.replace(config.workload, clusters=4, seed=1)
        dataset_r, dataset_s = build_datasets(spec)
        servers = StackConfig().servers(dataset_r, dataset_s)
        mbrs_before = servers[0].index.entry_mbrs.copy()
        index_len = servers[0].index.size

        sequence = ["srJoin", "upJoin", "semiJoin", "naive", "srJoin"]
        for label in sequence:
            run_kwargs = config.series[label]
            shared = run_single(
                dataset_r, dataset_s, spec, run_kwargs, config=config.config, servers=servers
            )
            fresh = run_single(dataset_r, dataset_s, spec, run_kwargs, config=config.config)
            assert shared.pairs == fresh.pairs
            assert shared.total_bytes == fresh.total_bytes
            assert shared.server_stats == fresh.server_stats
            assert shared.operator_counts == fresh.operator_counts

        # The cell's immutable state is untouched by five joins.
        assert np.array_equal(servers[0].index.entry_mbrs, mbrs_before)
        assert servers[0].index.size == index_len
