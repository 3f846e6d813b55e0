"""Golden-figure regression tests.

A small version of every entry of ``FIGURES`` -- a cluster subset, seed 0,
a railway of at most 1 000 segments -- is frozen as a fixture
(``tests/fixtures/golden_figures.json``): Figures 6(a) and 7(b) from the
seed state of the repository, the others from the figure factories the
table replaced.  The experiment harness must keep reproducing
those transfer numbers exactly: the byte totals are the paper's reported
metric, so performance work (batching, vectorisation, index changes) is
required to be *behaviour-preserving* down to the individual wire byte.

Regenerate the fixtures (only when a byte-accounting change is intentional
and reviewed) with::

    PYTHONPATH=src python tests/test_golden_figures.py --regen
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict

from repro.experiments.figures import FIGURES
from repro.experiments.harness import ExperimentConfig, run_experiment

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_figures.json"


def _small(name: str, x_values, railway_size: int = 0, **changes) -> ExperimentConfig:
    """``FIGURES[name]`` on a cluster subset and seed 0 (and a smaller railway)."""
    config = FIGURES[name]
    workload = config.workload
    if railway_size:
        workload = dataclasses.replace(workload, r_size=railway_size)
    return dataclasses.replace(
        config, x_values=x_values, seeds=(0,), workload=workload, **changes
    )


def _golden_configs() -> Dict[str, ExperimentConfig]:
    """The frozen configurations: small but non-trivial (pairs > 0)."""
    alpha = FIGURES["figure_6a"].series["alpha=0.25"]
    return {
        "figure_6a_small": _small("figure_6a", (4, 16, 128), series={"alpha=0.25": alpha}),
        "figure_7b_small": _small("figure_7b", (4, 16, 128)),
        "figure_6b_small": _small("figure_6b", (4, 16, 128)),
        "figure_7a_small": _small("figure_7a", (4, 16, 128)),
        "figure_8a_small": _small("figure_8a", (2, 16, 128), railway_size=1000),
        "figure_8b_small": _small("figure_8b", (2, 16, 128), railway_size=1000),
        "ablation_fanout_small": _small("ablation_fanout", (8, 128)),
        "ablation_bucket_small": _small("ablation_bucket", (1, 8), railway_size=1000),
        **{
            f"{name}_small": _small(name, (8, 128))
            for name in FIGURES
            if name.startswith("ablation_tariffs")
        },
    }


def _measure() -> Dict[str, Dict[str, Dict[str, list]]]:
    out: Dict[str, Dict[str, Dict[str, list]]] = {}
    for name, config in _golden_configs().items():
        result = run_experiment(config)
        out[name] = {
            label: {
                "mean_bytes": series.mean_bytes,
                "std_bytes": series.std_bytes,
                "mean_pairs": series.mean_pairs,
            }
            for label, series in result.series.items()
        }
    return out


def test_golden_figures_reproduce_fixture():
    assert FIXTURE_PATH.exists(), (
        "golden fixture missing; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_figures.py --regen`"
    )
    golden = json.loads(FIXTURE_PATH.read_text())
    measured = _measure()
    assert sorted(measured) == sorted(golden)
    assert {name.removesuffix("_small") for name in golden} == set(FIGURES)
    for figure, series in golden.items():
        assert sorted(measured[figure]) == sorted(series), figure
        for label, values in series.items():
            got = measured[figure][label]
            for key in ("mean_bytes", "std_bytes", "mean_pairs"):
                assert got[key] == values[key], (
                    f"{figure}/{label}/{key}: measured {got[key]} "
                    f"!= frozen {values[key]}"
                )


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("pass --regen to overwrite the golden fixture")
    FIXTURE_PATH.parent.mkdir(exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(_measure(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")
