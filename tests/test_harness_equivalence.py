"""Equivalence tests for the experiment execution layer.

The sweep runner builds each distinct dataset of a seed, and its side's
server, once and shares them across every cell and algorithm series that
joins them.  That is not allowed to change a single byte of the result:
these tests pin

* shared == cold, bit for bit: every raw per-run result of the sweep and
  the series statistics equal a reference loop that builds the datasets
  and the full stack for every run (:func:`_cold_runs`), and
* that a shared server pair is safely reusable across algorithms -- a run
  on shared servers is indistinguishable from a run on freshly built ones,
  in any order -- and that a cell builds its servers once, however many
  series it has.
"""

from __future__ import annotations

import dataclasses
import statistics

import numpy as np

from repro.core.planner import StackConfig
from repro.datasets.workloads import WorkloadSpec
from repro.experiments.harness import ExperimentConfig, run_experiment, run_single
from repro.server.server import SpatialServer

from tests.conftest import build_datasets


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


def _cold_runs(config: ExperimentConfig):
    """The reference sweep: every run builds its own datasets and stack, in
    the canonical order (series-major, then x, then seed)."""
    runs = {}
    for label, run_kwargs in config.series.items():
        for x in config.x_values:
            for seed in config.seeds:
                spec = dataclasses.replace(config.workload, clusters=x, seed=seed)
                runs[(label, x, seed)] = run_single(
                    *build_datasets(spec), spec, run_kwargs, config=config.config
                )
    return runs


def _assert_identical_runs(a, b) -> None:
    assert set(a) == set(b) and a
    for key in a:
        run_a, run_b = a[key], b[key]
        assert run_a.pairs == run_b.pairs
        assert run_a.total_bytes == run_b.total_bytes
        assert run_a.bytes_r == run_b.bytes_r
        assert run_a.bytes_s == run_b.bytes_s
        assert run_a.server_stats == run_b.server_stats
        assert run_a.operator_counts == run_b.operator_counts


class TestSweepEquivalence:
    def test_cached_matches_cold_serial(self):
        config = _mixed_config()
        cold = _cold_runs(config)
        shared = run_experiment(config, keep_runs=True)
        _assert_identical_runs(cold, shared.runs)
        for label, series in shared.series.items():
            for i, x in enumerate(config.x_values):
                totals = [float(cold[(label, x, seed)].total_bytes) for seed in config.seeds]
                pairs = [float(cold[(label, x, seed)].num_pairs) for seed in config.seeds]
                assert series.mean_bytes[i] == statistics.fmean(totals)
                assert series.std_bytes[i] == statistics.pstdev(totals)
                assert series.mean_pairs[i] == statistics.fmean(pairs)
        # The raw runs are in the canonical order: series-major, then x,
        # then seed -- not the order the cells ran in.
        assert list(shared.runs) == list(cold)


class TestSharedCell:
    def test_cell_builds_its_servers_once(self, monkeypatch):
        """Two servers per cell, whatever the series count (every dataset
        of this sweep is distinct: both sides are clustered)."""
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
            run_experiment(narrowed)
            assert len(built) == 2 * cells

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
