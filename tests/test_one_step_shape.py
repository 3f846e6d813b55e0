"""One step shape: a query group's step reaches the evaluation whole.

A group of like queries offers :class:`~repro.device.steps.Shared` steps
over all its members' rows, and the broker gathers each group's step as it
is: no step is cut per member and put back together.  So a wave holding
one group -- alone in every (backing build, kind) group of every round --
hands each ``evaluate_*`` call the group's own request arrays, the very
objects the group offered.
"""

from __future__ import annotations

import functools
from typing import List, Set

import numpy as np

from repro.core.base import AlgorithmParameters
from repro.core.frontier import FrontierAlgorithm
from repro.core.join_types import JoinSpec
from repro.datasets.synthetic import clustered
from repro.device import steps
from repro.geometry.rect import Rect
from repro.server import SpatialServer
from repro.service import JoinQuery, QueryBroker

EVALUATED = ("evaluate_count_batch", "evaluate_window_batch", "evaluate_range_batch")


@functools.lru_cache(maxsize=None)
def _datasets():
    return (
        clustered(n=250, clusters=5, seed=31, name="R"),
        clustered(n=250, clusters=6, seed=32, std=0.05, name="S"),
    )


def _windows() -> List[Rect]:
    r, s = _datasets()
    whole = r.bounds().union(s.bounds())
    x, y, w, h = whole.xmin, whole.ymin, whole.width, whole.height
    return [
        whole,
        Rect(x + 0.1 * w, y, x + 0.8 * w, y + 0.7 * h),
        Rect(x + 0.3 * w, y + 0.2 * h, x + w, y + 0.9 * h),
    ]


def _arrays(offered, found: Set[int]) -> None:
    """The ids of every array in what a group offered, at any depth."""
    if isinstance(offered, np.ndarray):
        found.add(id(offered))
    elif isinstance(offered, (list, tuple)):
        for item in offered:
            _arrays(item, found)


def test_a_lone_group_is_evaluated_on_its_own_request_arrays(monkeypatch):
    offered: List[object] = []
    run_group = FrontierAlgorithm.run_group

    def recording(runs):
        gen = run_group(runs)
        answer = None
        try:
            while True:
                step = gen.send(answer)
                offered.append(step)
                answer = yield step
        except StopIteration as stop:
            return stop.value
        finally:
            gen.close()

    monkeypatch.setattr(FrontierAlgorithm, "run_group", staticmethod(recording))
    evaluated: List[tuple] = []
    for name in EVALUATED:
        original = getattr(SpatialServer, name)

        def spied(self, *columns, _original=original, _name=name):
            evaluated.append((_name, columns))
            return _original(self, *columns)

        monkeypatch.setattr(SpatialServer, name, spied)

    r, s = _datasets()
    queries = [
        JoinQuery(
            r, s, JoinSpec.distance(0.02), algorithm="upjoin", buffer_size=40,
            params=AlgorithmParameters(), window=window,
        )
        for window in _windows()
    ]
    outcomes = QueryBroker(cache=False).run_batch(queries)
    assert [o.status for o in outcomes] == ["ok"] * 3
    # One group of three, offering one step per round.
    assert len(offered) > 3
    own: Set[int] = set()
    _arrays(offered, own)
    assert {name for name, _ in evaluated} == set(EVALUATED)
    for name, columns in evaluated:
        assert all(id(column) in own for column in columns), name


def test_the_step_protocol_cuts_no_step_per_query():
    assert not hasattr(steps, "split")
    assert not hasattr(steps, "merge")
