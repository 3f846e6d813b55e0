"""Experiment harness reproducing the paper's evaluation (Section 5).

* :mod:`repro.experiments.harness` -- generic sweep machinery: build the
  workload, run one or more algorithms over a list of seeds, aggregate the
  byte totals.
* :mod:`repro.experiments.figures` -- one configuration function per paper
  figure (6a, 6b, 7a, 7b, 8a, 8b) plus the ablations listed in DESIGN.md.
* :mod:`repro.experiments.report` -- plain-text table rendering of the
  results (the benchmarks print these).
* :mod:`repro.experiments.adversarial` -- the hand-constructed layouts of
  Figures 2 and 4 that expose MobiJoin's and UpJoin's weaknesses.
"""

from __future__ import annotations

from repro.experiments.harness import (
    ExperimentConfig,
    ExperimentResult,
    SeriesResult,
    run_experiment,
    run_single,
)
from repro.experiments.figures import (
    figure_6a,
    figure_6b,
    figure_7a,
    figure_7b,
    figure_8a,
    figure_8b,
    ablation_bucket,
    ablation_fanout,
    ablation_tariffs,
)
from repro.experiments.report import format_table, render_experiment
from repro.experiments.adversarial import (
    figure2a_layout,
    figure2b_layout,
    figure4_layout,
    run_adversarial_case,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "SeriesResult",
    "run_experiment",
    "run_single",
    "figure_6a",
    "figure_6b",
    "figure_7a",
    "figure_7b",
    "figure_8a",
    "figure_8b",
    "ablation_bucket",
    "ablation_fanout",
    "ablation_tariffs",
    "format_table",
    "render_experiment",
    "figure2a_layout",
    "figure2b_layout",
    "figure4_layout",
    "run_adversarial_case",
]
