"""Experiment harness reproducing the paper's evaluation (Section 5).

* :mod:`repro.experiments.harness` -- generic sweep machinery: build each
  cell's workload, run one or more algorithms over a list of seeds,
  aggregate the byte totals.
* :mod:`repro.experiments.figures` -- the table :data:`FIGURES` of every
  paper figure (6a, 6b, 7a, 7b, 8a, 8b) and ablation (grid fan-out, bucket
  queries, asymmetric tariffs), each with its shape checks.
* :mod:`repro.experiments.run` -- the runner,
  ``python -m repro.experiments.run [NAME ...] [--full]``.
* :mod:`repro.experiments.report` -- plain-text table rendering of the
  results (the runner prints these).
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
from repro.experiments.figures import FIGURES, paper_scale, shape_checks
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
    "FIGURES",
    "paper_scale",
    "shape_checks",
    "format_table",
    "render_experiment",
    "figure2a_layout",
    "figure2b_layout",
    "figure4_layout",
    "run_adversarial_case",
]
