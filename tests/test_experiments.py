"""Tests for the experiment harness, the figure table, its runner and the
adversarial cases.

Most use deliberately tiny workloads (``dataclasses.replace`` on a
``FIGURES`` entry); the shape tests run every entry at its own fast scale,
and at the paper's scale in the ``slow`` lane.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.datasets.workloads import PAPER_CLUSTER_COUNTS, WorkloadSpec
from repro.experiments import harness, run
from repro.experiments.adversarial import (
    figure2a_layout,
    figure2b_layout,
    figure4_layout,
    run_adversarial_case,
)
from repro.experiments.figures import FIGURES, paper_scale, shape_checks
from repro.experiments.harness import run_experiment
from repro.experiments.report import format_table, render_experiment, render_shape_checks
from repro.server.server import SpatialServer

from tests.conftest import build_datasets

#: Shape checks that fail at their figure's fast scale, with what was
#: measured; each holds at the paper's scale.
FAILING_AT_FAST_SCALE = {
    ("ablation_bucket", "upJoin: bucket never costs more than per-object probing"):
        "on the 3 000-segment railway, seed 0, bucket UpJoin moves 63 040 B at one "
        "cluster against 18 172 B per-object; on 35 000 segments it moves less",
}


class TestHarness:
    def test_build_datasets_kinds(self):
        spec = WorkloadSpec(r_kind="railway", s_kind="clustered", r_size=500, s_size=100)
        dataset_r, dataset_s = build_datasets(spec)
        assert 450 <= len(dataset_r) <= 500
        assert len(dataset_s) == 100

    def test_an_unknown_dataset_kind_is_refused(self):
        spec = WorkloadSpec(r_size=50, s_size=50)
        object.__setattr__(spec, "r_kind", "bogus")
        config = dataclasses.replace(
            FIGURES["figure_7b"], x_values=(1,), seeds=(0,), workload=spec
        )
        with pytest.raises(ValueError, match="bogus"):
            run_experiment(config)

    def test_run_experiment_produces_series(self):
        config = dataclasses.replace(FIGURES["figure_7b"], x_values=(1, 4), seeds=(0,))
        result = run_experiment(config)
        assert set(result.series) == {"srJoin", "upJoin", "mobiJoin"}
        for series in result.series.values():
            assert len(series.mean_bytes) == 2
            assert all(b > 0 for b in series.mean_bytes)
        # All algorithms must report the same number of result pairs.
        pair_rows = [tuple(s.mean_pairs) for s in result.series.values()]
        assert len(set(pair_rows)) == 1

    def test_run_experiment_keep_runs(self):
        config = dataclasses.replace(FIGURES["figure_7b"], x_values=(1,), seeds=(0,))
        result = run_experiment(config, keep_runs=True)
        assert ("mobiJoin", 1, 0) in result.runs

    def test_a_cell_is_the_base_workload_at_its_clusters_and_seed(self, monkeypatch):
        specs = []
        run_single = harness.run_single

        def recording(dataset_r, dataset_s, spec, *args, **kwargs):
            specs.append(spec)
            return run_single(dataset_r, dataset_s, spec, *args, **kwargs)

        monkeypatch.setattr(harness, "run_single", recording)
        config = dataclasses.replace(FIGURES["figure_7a"], x_values=(2, 16), seeds=(3, 5))
        run_experiment(config)
        base = config.workload
        # Seed-major: one seed's builds are alive at a time.
        assert list(dict.fromkeys(specs)) == [
            dataclasses.replace(base, clusters=x, seed=seed)
            for seed in (3, 5)
            for x in (2, 16)
        ]
        assert len(specs) == 4 * len(config.series)
        assert {spec.buffer_size for spec in specs} == {100}

    def test_each_dataset_and_server_is_built_once_per_sweep(self, monkeypatch):
        """The railway side takes no cluster count: one railway per seed,
        and one server on it, however many x-values and series join it."""
        railways = []
        generate = harness.generate_railway_like

        def spy(*args, **kwargs):
            railways.append(kwargs["seed"])
            return generate(*args, **kwargs)

        servers = []
        init = SpatialServer.__init__

        def counting_init(self, dataset, *args, **kwargs):
            servers.append((kwargs.get("name"), len(dataset)))
            init(self, dataset, *args, **kwargs)

        monkeypatch.setattr(harness, "generate_railway_like", spy)
        monkeypatch.setattr(SpatialServer, "__init__", counting_init)
        base = FIGURES["figure_8a"]
        config = dataclasses.replace(
            base,
            x_values=(1, 4, 16),
            seeds=(0, 1),
            workload=dataclasses.replace(base.workload, r_size=300, s_size=200),
        )
        run_experiment(config)
        assert railways == [0, 1]
        names = [name for name, _ in servers]
        assert names.count("R") == 2 and names.count("S") == 6
        assert {size for name, size in servers if name == "S"} == {200}

    def test_paper_cluster_sweep(self):
        # The comparison figures sweep the paper's cluster counts.
        assert FIGURES["figure_7b"].x_values == tuple(PAPER_CLUSTER_COUNTS)


class TestFigureConfigs:
    @pytest.mark.parametrize("name", ["figure_6a", "figure_6b", "figure_7a", "figure_7b"])
    def test_synthetic_figures_have_paper_axes(self, name):
        config = FIGURES[name]
        assert config.x_values == (1, 2, 4, 8, 16, 128)
        assert len(config.series) >= 3
        assert config.workload.r_kind == config.workload.s_kind == "clustered"

    def test_figure_6a_series_are_alphas(self):
        config = FIGURES["figure_6a"]
        assert set(config.series) == {"alpha=0.15", "alpha=0.2", "alpha=0.25", "alpha=0.3"}
        assert all(kwargs["algorithm"] == "upjoin" for kwargs in config.series.values())

    def test_figure_6b_series_are_rhos(self):
        config = FIGURES["figure_6b"]
        assert set(config.series) == {"rho=30%", "rho=50%", "rho=100%", "rho=200%", "rho=350%"}
        assert config.series["rho=200%"] == {"algorithm": "srjoin", "rho": 2.0}

    def test_figure_7_buffers(self):
        assert FIGURES["figure_7a"].workload.buffer_size == 100
        assert FIGURES["figure_7b"].workload.buffer_size == 800

    def test_figure_8_uses_railway_workload(self):
        config = FIGURES["figure_8a"]
        spec = dataclasses.replace(config.workload, r_size=300, clusters=1)
        dataset_r, dataset_s = build_datasets(spec)
        assert spec.r_kind == "railway"
        assert len(dataset_r) <= 300
        assert spec.bucket_queries

    def test_figure_8b_includes_semijoin(self):
        assert FIGURES["figure_8b"].series["semiJoin"] == {"algorithm": "semijoin"}

    def test_ablation_configs_build(self):
        assert len(FIGURES["ablation_fanout"].series) == 3
        assert len(FIGURES["ablation_bucket"].series) == 4
        tariffs = {name: FIGURES[name].config.tariff_s for name in FIGURES if "tariffs" in name}
        assert tariffs == {
            "ablation_tariffs_x1": 1.0,
            "ablation_tariffs_x2": 2.0,
            "ablation_tariffs_x5": 5.0,
        }

    def test_small_real_experiment_runs(self):
        config = FIGURES["figure_8a"]
        config = dataclasses.replace(
            config,
            x_values=(2,),
            workload=dataclasses.replace(config.workload, r_size=400),
        )
        result = run_experiment(config)
        for series in result.series.values():
            assert series.mean_bytes[0] > 0

    def test_paper_scale_is_ten_seeds_and_the_full_railway(self):
        for name, config in FIGURES.items():
            full = paper_scale(config)
            assert full.seeds == tuple(range(10)), name
            expected = 35_000 if config.workload.r_kind == "railway" else 1000
            assert full.workload.r_size == expected, name
            assert dataclasses.replace(full, seeds=config.seeds, workload=config.workload) == config


class TestFigureShapes:
    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_every_figure_holds_its_shape_at_fast_scale(self, name):
        checks = shape_checks(run_experiment(FIGURES[name]))
        assert checks["every series reports the same result pairs"]
        failing = {(name, claim) for claim, holds in checks.items() if not holds}
        assert failing == {key for key in FAILING_AT_FAST_SCALE if key[0] == name}

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_every_figure_holds_its_shape_at_paper_scale(self, name):
        checks = shape_checks(run_experiment(paper_scale(FIGURES[name])))
        assert all(checks.values()), checks


class TestRunner:
    NAME = "ablation_tariffs_x1"

    def test_a_passing_figure_exits_zero_and_prints_its_tables(self, capsys):
        assert run.main([self.NAME]) == 0
        out = capsys.readouterr().out
        expected = render_experiment(run_experiment(FIGURES[self.NAME]), show_pairs=True)
        assert out.startswith(expected + "\nshape checks:\n")
        assert "[ok] every series reports the same result pairs" in out

    def test_a_failing_check_exits_nonzero(self, monkeypatch, capsys):
        failing = dataclasses.replace(
            FIGURES[self.NAME], checks=lambda result: {"an impossible claim": False}
        )
        monkeypatch.setitem(FIGURES, self.NAME, failing)
        assert run.main([self.NAME]) == 1
        assert "[FAIL] an impossible claim" in capsys.readouterr().out

    def test_disagreeing_series_exit_nonzero(self, monkeypatch, capsys):
        disagreeing = dataclasses.replace(
            FIGURES[self.NAME],
            series={
                "narrow": {"algorithm": "naive", "epsilon": 0.005},
                "wide": {"algorithm": "naive", "epsilon": 0.05},
            },
        )
        monkeypatch.setitem(FIGURES, self.NAME, disagreeing)
        assert run.main([self.NAME]) == 1
        assert "[FAIL] every series reports the same result pairs" in capsys.readouterr().out

    def test_an_unknown_name_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run.main(["figure_9z"])
        assert exit_info.value.code == 2
        assert "figure_9z" in capsys.readouterr().err

    def test_the_module_runs_as_a_command(self):
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "repro.experiments.run", self.NAME],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(f"{self.NAME}: ")


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(["x", "a"], [["row", 1], ["longer-row", 22]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "longer-row" in table
        # All data lines share the same width.
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_render_experiment_contains_series_and_values(self):
        config = dataclasses.replace(FIGURES["figure_7b"], x_values=(1,), seeds=(0,))
        result = run_experiment(config)
        text = render_experiment(result, show_pairs=True)
        assert "mobiJoin" in text and "figure_7b" in text
        assert "result pairs" in text

    def test_render_shape_checks(self):
        text = render_shape_checks({"a wins": True, "b loses": False})
        assert "[ok] a wins" in text
        assert "[FAIL] b loses" in text


class TestAdversarialCases:
    def test_figure2a_layout_shapes(self):
        case = figure2a_layout()
        assert len(case.dataset_r) > 10 * len(case.dataset_s)

    def test_figure2b_buffer_sensitivity(self):
        """The paper's Figure 2(b) claim: more memory can hurt MobiJoin."""
        case = figure2b_layout(points_per_cluster=250)
        small = run_adversarial_case(case, algorithms=("mobijoin",), buffer_size=450)
        large = run_adversarial_case(case, algorithms=("mobijoin",), buffer_size=1100)
        # With the large buffer MobiJoin downloads everything at once; with
        # the small buffer it refines and prunes the empty half of the space.
        assert large["mobijoin"].total_bytes >= small["mobijoin"].total_bytes
        assert small["mobijoin"].pairs == large["mobijoin"].pairs

    def test_figure4_srjoin_beats_upjoin_on_aggregate_overhead(self):
        """Figure 4: identical layouts -- SrJoin should not pay more statistics."""
        case = figure4_layout(points_per_cluster=200)
        results = run_adversarial_case(case, algorithms=("upjoin", "srjoin"), buffer_size=1500)
        up_counts = results["upjoin"].operator_counts["count_queries"]
        sr_counts = results["srjoin"].operator_counts["count_queries"]
        assert sr_counts <= up_counts
        assert results["upjoin"].pairs == results["srjoin"].pairs

    def test_figure2a_pruning_beats_nlsj(self):
        """Figure 2(a): refinement prunes everything; the result is empty."""
        case = figure2a_layout()
        results = run_adversarial_case(
            case, algorithms=("upjoin", "srjoin", "mobijoin"), buffer_size=800
        )
        for result in results.values():
            assert result.pairs == set()
        # The distribution-aware algorithms must not be dramatically more
        # expensive than the baseline on this layout.
        assert results["upjoin"].total_bytes <= 3 * results["mobijoin"].total_bytes
