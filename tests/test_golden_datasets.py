"""Golden-dataset regression tests: the generators, byte for byte.

Every dataset a figure, a trace or a benchmark workload joins comes out of
``repro.datasets.synthetic``.  The sha256 of each generated ``mbrs`` block
is frozen in ``tests/fixtures/golden_datasets.json`` for a grid of sizes,
cluster counts and seeds (a ``std=2.0`` case takes the clamp after the last
rejection round), ``uniform`` and the three adversarial layouts.  A change
to a generator must reproduce every digest: only an exactly-equal rewrite
(same RNG stream, same arithmetic) qualifies.

Regenerate the fixture (only when a generator change is intentional and
reviewed) with::

    PYTHONPATH=src python tests/test_golden_datasets.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.datasets.dataset import SpatialDataset
from repro.datasets.synthetic import clustered, gaussian_mixture, uniform
from repro.experiments.adversarial import figure2a_layout, figure2b_layout, figure4_layout

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_datasets.json"


def _cases() -> Dict[str, Callable[[], SpatialDataset]]:
    cases: Dict[str, Callable[[], SpatialDataset]] = {}
    for n in (0, 1, 1000, 50000):
        for k in (1, 64, 128):
            for seed in (0, 1, 41):
                cases[f"clustered(n={n},k={k},seed={seed})"] = (
                    lambda n=n, k=k, seed=seed: clustered(n=n, clusters=k, seed=seed)
                )
    cases["clustered(n=1000,k=8,seed=3,std=2.0)"] = lambda: clustered(
        n=1000, clusters=8, seed=3, std=2.0
    )
    for n, seed in ((0, 0), (1, 5), (1000, 0), (50000, 7)):
        cases[f"uniform(n={n},seed={seed})"] = lambda n=n, seed=seed: uniform(n=n, seed=seed)
    cases["mixture(weights=[3,1],std=0.3)"] = lambda: gaussian_mixture(
        n=2000, centers=[(0.1, 0.1), (0.9, 0.5)], weights=[3.0, 1.0], std=0.3, seed=9
    )
    for layout in (figure2a_layout, figure2b_layout, figure4_layout):
        for side in ("r", "s"):
            cases[f"{layout.__name__}().dataset_{side}"] = (
                lambda layout=layout, side=side: getattr(layout(), f"dataset_{side}")
            )
    return cases


def _digest(dataset: SpatialDataset) -> str:
    return hashlib.sha256(dataset.mbrs.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    assert FIXTURE_PATH.exists(), (
        "golden fixture missing; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_datasets.py --regen`"
    )
    return json.loads(FIXTURE_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("name", sorted(_cases()))
def test_generator_reproduces_fixture(golden, name):
    assert _digest(_cases()[name]()) == golden[name], name


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("pass --regen to overwrite the golden fixture")
    FIXTURE_PATH.parent.mkdir(exist_ok=True)
    digests = {name: _digest(make()) for name, make in sorted(_cases().items())}
    FIXTURE_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")
