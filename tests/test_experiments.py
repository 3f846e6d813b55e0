"""Tests for the experiment harness, figure configurations and adversarial cases.

These use deliberately tiny workloads (overriding the figure defaults) so
the suite stays fast; the full-size sweeps live in ``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.datasets.workloads import PAPER_CLUSTER_COUNTS, WorkloadSpec
from repro.experiments.adversarial import (
    figure2a_layout,
    figure2b_layout,
    figure4_layout,
    run_adversarial_case,
)
from repro.experiments.figures import (
    ablation_bucket,
    ablation_fanout,
    ablation_tariffs,
    figure_6a,
    figure_6b,
    figure_7a,
    figure_7b,
    figure_8a,
    figure_8b,
)
from repro.experiments.harness import ExperimentConfig, build_datasets, run_experiment
from repro.experiments.report import format_table, render_experiment, render_shape_checks


def _tiny(config: ExperimentConfig) -> ExperimentConfig:
    """Not needed -- figure functions accept overrides; helper kept for clarity."""
    return config


class TestHarness:
    def test_build_datasets_kinds(self):
        spec = WorkloadSpec(r_kind="railway", s_kind="clustered", r_size=500, s_size=100)
        dataset_r, dataset_s = build_datasets(spec)
        assert 450 <= len(dataset_r) <= 500
        assert len(dataset_s) == 100

    def test_build_datasets_unknown_kind(self):
        spec = WorkloadSpec()
        object.__setattr__(spec, "r_kind", "bogus")
        with pytest.raises(ValueError):
            build_datasets(spec)

    def test_run_experiment_produces_series(self):
        config = figure_7b(cluster_counts=(1, 4), seeds=(0,))
        result = run_experiment(config)
        assert set(result.series) == {"srJoin", "upJoin", "mobiJoin"}
        for series in result.series.values():
            assert len(series.mean_bytes) == 2
            assert all(b > 0 for b in series.mean_bytes)
        # All algorithms must report the same number of result pairs.
        pair_rows = [tuple(s.mean_pairs) for s in result.series.values()]
        assert len(set(pair_rows)) == 1

    def test_run_experiment_keep_runs(self):
        config = figure_7b(cluster_counts=(1,), seeds=(0,))
        result = run_experiment(config, keep_runs=True)
        assert ("mobiJoin", 1, 0) in result.runs

    def test_paper_cluster_sweep(self):
        # The comparison figures sweep the paper's cluster counts by default.
        assert figure_7b().x_values == tuple(PAPER_CLUSTER_COUNTS)

    def test_repetition_override(self):
        config = figure_7b(cluster_counts=(1,), seeds=(0, 1, 2))
        result = run_experiment(config, repetitions=1)
        assert len(result.series["mobiJoin"].mean_bytes) == 1


class TestFigureConfigs:
    @pytest.mark.parametrize(
        "factory",
        [figure_6a, figure_6b, figure_7a, figure_7b],
    )
    def test_synthetic_figures_have_paper_axes(self, factory):
        config = factory()
        assert config.x_values == (1, 2, 4, 8, 16, 128)
        assert len(config.series) >= 3

    def test_figure_6a_series_are_alphas(self):
        config = figure_6a(alphas=(0.15, 0.25))
        assert set(config.series) == {"alpha=0.15", "alpha=0.25"}
        assert all(kwargs["algorithm"] == "upjoin" for kwargs in config.series.values())

    def test_figure_6b_series_are_rhos(self):
        config = figure_6b(rhos=(0.3, 2.0))
        assert set(config.series) == {"rho=30%", "rho=200%"}

    def test_figure_7_buffers(self):
        assert figure_7a().buffer_size == 100
        assert figure_7b().buffer_size == 800

    def test_figure_8_uses_railway_workload(self):
        config = figure_8a(cluster_counts=(1,), railway_size=300, seeds=(0,))
        dataset_r, dataset_s, spec = config.workload(1, 0)
        assert spec.r_kind == "railway"
        assert len(dataset_r) <= 300
        assert spec.bucket_queries

    def test_figure_8b_includes_semijoin(self):
        config = figure_8b(cluster_counts=(1,), railway_size=300, seeds=(0,))
        assert "semiJoin" in config.series
        assert config.indexed

    def test_ablation_configs_build(self):
        assert len(ablation_fanout().series) == 3
        assert len(ablation_bucket().series) == 4
        tariff_configs = ablation_tariffs(tariff_ratios=(1.0, 2.0))
        assert set(tariff_configs) == {1.0, 2.0}
        assert tariff_configs[2.0].config.tariff_s == 2.0

    def test_small_real_experiment_runs(self):
        config = figure_8a(cluster_counts=(2,), railway_size=400, seeds=(0,))
        result = run_experiment(config)
        for series in result.series.values():
            assert series.mean_bytes[0] > 0


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
        config = figure_7b(cluster_counts=(1,), seeds=(0,))
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
