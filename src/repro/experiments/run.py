"""Reproduce the paper's figures: ``python -m repro.experiments.run [NAME ...] [--full]``.

Runs the named entries of :data:`~repro.experiments.figures.FIGURES` (all
of them when none is named) and prints, per figure, its byte table, its
result-pairs table and its shape checks.  Exits 1 when a shape check fails
-- the series disagreeing on the result pairs included.  ``--full`` runs
at the paper's scale (:func:`~repro.experiments.figures.paper_scale`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.experiments.figures import FIGURES, paper_scale, shape_checks
from repro.experiments.harness import run_experiment
from repro.experiments.report import render_experiment, render_shape_checks


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run",
        description="Run the paper's figures and check their shapes.",
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help=f"figures to run (default: all): {', '.join(FIGURES)}",
    )
    parser.add_argument(
        "--full", action="store_true", help="paper scale: 10 seeds, 35 000 railway segments"
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in FIGURES]
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)}")

    failed = False
    for name in args.names or FIGURES:
        config = paper_scale(FIGURES[name]) if args.full else FIGURES[name]
        result = run_experiment(config)
        checks = shape_checks(result)
        print(render_experiment(result, show_pairs=True))
        print(render_shape_checks(checks))
        print()
        failed = failed or not all(checks.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
