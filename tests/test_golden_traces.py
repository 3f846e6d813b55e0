"""Golden recursion-trace regression tests.

The byte totals frozen by ``test_golden_figures.py`` catch *aggregate*
drift; this suite freezes the full decision log -- every
``record(depth, window, decision, ...)`` event -- of each frontier-driven
algorithm (UpJoin, SrJoin, MobiJoin) for two small Figure 6(a) /
Figure 7(b) configurations, so individual planner decisions
(assume-uniform / probe confirmation / bitmap comparison / repartition /
operator choice) cannot drift silently even when the byte totals happen to
cancel out.

Events are frozen grouped by recursion depth, the granularity at which the
depth-first oracle (``tests/oracles/recursive_driver.py``) and the frontier
engine are defined to agree; both are checked against the same fixture.

Regenerate (only when a planner change is intentional and reviewed) with::

    PYTHONPATH=src python tests/test_golden_traces.py --regen
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List

import pytest

from repro.api import AdHocJoinSession
from repro.datasets.workloads import WorkloadSpec
from repro.experiments.harness import build_datasets

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_traces.json"

#: The algorithms whose decision logs are frozen (everything driven by the
#: shared frontier engine).
ALGORITHMS = ("upjoin", "srjoin", "mobijoin")

#: The two frozen configurations: the smallest and the largest cluster
#: count of the golden fig6a/fig7b sweeps (alpha = 0.25, 800-object
#: buffer, the default synthetic epsilon).
CONFIGS = {
    "figure_6a_clusters4": WorkloadSpec(clusters=4, seed=0, epsilon=0.005, buffer_size=800),
    "figure_7b_clusters128": WorkloadSpec(
        clusters=128, seed=0, epsilon=0.005, buffer_size=800
    ),
}


def _decision_log(
    algorithm: str, execution: str, spec: WorkloadSpec
) -> Dict[str, List[List[object]]]:
    dataset_r, dataset_s = build_datasets(spec)
    session = AdHocJoinSession(dataset_r, dataset_s, buffer_size=spec.buffer_size)
    mode = nullcontext()
    if execution == "recursive":  # the depth-first oracle; --regen never imports it
        from tests.oracles.recursive_driver import depth_first_algorithms

        mode = depth_first_algorithms()
    with mode:
        result = session.run(
            algorithm=algorithm,
            kind="distance",
            epsilon=spec.epsilon,
            bucket_queries=spec.bucket_queries,
            window=spec.window,
            seed=0,
        )
    grouped: Dict[str, List[List[object]]] = {}
    for event in result.trace:
        grouped.setdefault(str(event.depth), []).append(
            [
                event.action,
                event.detail,
                event.count_r,
                event.count_s,
                list(event.window.as_tuple()),
            ]
        )
    return grouped


def _measure(
    algorithm: str, execution: str = "frontier"
) -> Dict[str, Dict[str, List[List[object]]]]:
    return {
        name: _decision_log(algorithm, execution, spec)
        for name, spec in CONFIGS.items()
    }


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_golden_traces_reproduce_fixture(algorithm):
    assert FIXTURE_PATH.exists(), (
        "golden trace fixture missing; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_traces.py --regen`"
    )
    golden = json.loads(FIXTURE_PATH.read_text())[algorithm]
    for execution in ("frontier", "recursive"):
        measured = _measure(algorithm, execution)
        assert sorted(measured) == sorted(golden), (algorithm, execution)
        for figure, depths in golden.items():
            got = measured[figure]
            assert sorted(got) == sorted(depths), (algorithm, execution, figure)
            for depth, events in depths.items():
                assert got[depth] == events, (
                    f"{algorithm}/{execution}/{figure}: "
                    f"decision log drifted at depth {depth}"
                )


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("pass --regen to overwrite the golden trace fixture")
    FIXTURE_PATH.parent.mkdir(exist_ok=True)
    FIXTURE_PATH.write_text(
        json.dumps(
            {algorithm: _measure(algorithm) for algorithm in ALGORITHMS},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {FIXTURE_PATH}")
