"""Golden STR shard assignments, frozen as digests.

``shard_assignment(dataset, shards, "str")`` decides which shard of a
fleet holds each object, hence where a sharded query is routed and what
it ships (the ``fleet_faults`` workload runs 4 x 4 STR shards).  The golden
ledgers' fleets use the default ``grid`` scheme and ``test_sharding.py``
checks invariants only, so this suite pins the assignment itself: per case,
the digest of the ``int64`` shard ids in row order and the shard sizes.
The cases mix point and extended data, shard counts that do and do not
divide the object count, more shards than objects, and tied centres
(coincident points, and points on a coarse lattice), whose order the
stable sorts keep.

Regenerate (only when a change to the assignment is intentional and
reviewed) with::

    PYTHONPATH=src python tests/test_golden_shards.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict

import numpy as np
import pytest

from repro.datasets.dataset import SpatialDataset
from repro.datasets.partition import shard_assignment
from repro.datasets.railway import generate_railway_like
from repro.datasets.synthetic import clustered, uniform

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_str_shards.json"


def _lattice(n: int, seed: int) -> SpatialDataset:
    """``n`` points on a 5 x 5 lattice: every centre is tied with others."""
    points = np.random.default_rng(seed).integers(0, 5, size=(n, 2)) / 4.0
    return SpatialDataset.from_points(points)


def _coincident(n: int) -> SpatialDataset:
    """``n`` points, half of them at one spot."""
    points = np.random.default_rng(7).uniform(0, 1, size=(n, 2))
    points[::2] = 0.5
    return SpatialDataset.from_points(points)


DATASETS: Dict[str, Callable[[], SpatialDataset]] = {
    "uniform-7": lambda: uniform(7, seed=1),
    "uniform-1001": lambda: uniform(1001, seed=2),
    "clustered-20000": lambda: clustered(20000, 8, seed=3),
    "railway-300": lambda: generate_railway_like(n_segments=300, seed=4, hubs=6),
    "lattice-500": lambda: _lattice(500, seed=5),
    "coincident-200": lambda: _coincident(200),
}
CASES = {
    f"{name}/{shards}": (name, shards)
    for name, counts in (
        ("uniform-7", (4, 16)),
        ("uniform-1001", (4, 6)),
        ("clustered-20000", (16,)),
        ("railway-300", (4, 9)),
        ("lattice-500", (4, 16)),
        ("coincident-200", (4, 6)),
    )
    for shards in counts
}


def _pin(name: str, shards: int) -> Dict[str, object]:
    assignment = shard_assignment(DATASETS[name](), shards, "str")
    return {
        "digest": hashlib.sha256(assignment.astype("<i8").tobytes()).hexdigest(),
        "sizes": np.bincount(assignment, minlength=shards).tolist(),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_str_assignment_reproduces_fixture(case):
    golden = json.loads(FIXTURE_PATH.read_text())
    assert sorted(golden) == sorted(CASES)
    assert _pin(*CASES[case]) == golden[case], f"{case}: the STR shard assignment drifted"


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit("pass --regen to overwrite the golden STR shard fixture")
    FIXTURE_PATH.write_text(
        json.dumps({case: _pin(*CASES[case]) for case in sorted(CASES)}, indent=2, sort_keys=True)
        + "\n"
    )
    print(f"wrote {FIXTURE_PATH}")
