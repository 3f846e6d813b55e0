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
import pytest

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

    def recorded(gen):
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

    def recording(runs):
        unit = run_group(runs)
        unit.steps = recorded(unit.steps)
        return unit

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


def test_semijoin_queries_run_as_one_crew(monkeypatch):
    """SemiJoin is a level table like every other algorithm: three
    SemiJoin queries run as one crew through ``FrontierAlgorithm.run_group``,
    and their root COUNT round hands ``evaluate_count_batch`` the crew's own
    arrays, one row per member on each side."""
    groups: List[List[str]] = []
    offered: List[object] = []
    run_group = FrontierAlgorithm.run_group

    def recorded(gen):
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

    def recording(runs):
        groups.append([algo.name for algo, _ in runs])
        unit = run_group(runs)
        unit.steps = recorded(unit.steps)
        return unit

    monkeypatch.setattr(FrontierAlgorithm, "run_group", staticmethod(recording))
    counted: List[np.ndarray] = []
    original = SpatialServer.evaluate_count_batch

    def spied(self, windows):
        counted.append(windows)
        return original(self, windows)

    monkeypatch.setattr(SpatialServer, "evaluate_count_batch", spied)

    r, s = _datasets()
    queries = [
        JoinQuery(
            r, s, JoinSpec.distance(0.02), algorithm="semijoin", buffer_size=40,
            params=AlgorithmParameters(), window=window,
        )
        for window in _windows()
    ]
    outcomes = QueryBroker(cache=False).run_batch(queries)
    assert [o.status for o in outcomes] == ["ok"] * 3
    assert groups == [["semijoin"] * 3]
    own: Set[int] = set()
    _arrays(offered, own)
    assert [windows.shape for windows in counted] == [(3, 4), (3, 4)]
    assert all(id(windows) in own for windows in counted)


class TestUpJoinStepsAreEvaluatedAndBooked:
    """UpJoin, which the planner never picks, run by name on every stack:
    its steps -- R quadrant cohorts beside S quadrant and probe cohorts,
    rows keyed per window -- are evaluated on the backing builds, at most once per
    (build, kind) and step, every evaluation booked, no build endpoint that
    bumps statistics asked."""

    ASKED = ("count_batch", "window_batch_flat", "range_batch_flat", "bucket_range")
    TOPOLOGIES = {
        "plain": {},
        "sharded": dict(shards_r=4, shards_s=4, shard_scheme="str"),
        "replicated": dict(shards_r=4, shards_s=4, shard_scheme="str", replicas=2),
    }

    @pytest.mark.parametrize("bucket", [False, True], ids=["per-probe", "bucket"])
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_steps_are_evaluated_on_the_builds_and_booked(self, monkeypatch, topology, bucket):
        from repro.core.frontier import Crew
        from repro.core.planner import StackConfig, run_join
        from repro.server import ShardedSpatialServer

        log: List[tuple] = []

        def spy(cls, name, event):
            original = getattr(cls, name)

            def spied(self, *args, **kwargs):
                log.append((event, name, id(self)))
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, spied)

        for name in self.ASKED:
            spy(SpatialServer, name, "asked")
        for cls in (SpatialServer, ShardedSpatialServer):
            for name in EVALUATED:
                spy(cls, name, "evaluated")
        book_step = steps.book_step

        def booked(*args):
            log.append(("booked",))
            return book_step(*args)

        monkeypatch.setattr(steps, "book_step", booked)
        keyed: List[bool] = []
        count_round = Crew.count_round

        def counted(self, step, queries, keys):
            keyed.append(keys is not None)
            return count_round(self, step, queries, keys)

        monkeypatch.setattr(Crew, "count_round", counted)

        # 3,000 a side: enough for windows a stage apart to share rounds.
        r = clustered(n=3000, clusters=8, seed=11, name="R")
        s = clustered(n=3000, clusters=9, seed=12, std=0.05, name="S")
        whole = r.bounds().union(s.bounds())
        x, y, w, h = whole.xmin, whole.ymin, whole.width, whole.height
        result = run_join(
            r, s, JoinSpec.distance(0.015), algorithm="upjoin", buffer_size=60,
            params=AlgorithmParameters(bucket_queries=bucket),
            window=Rect(x, y, x + 0.6 * w, y + 0.7 * h),
            stack=StackConfig(**self.TOPOLOGIES[topology]),
        )
        assert result.pairs
        # Windows out of phase shared rounds keyed across cohorts.
        assert any(keyed)
        assert not [event for event in log if event[0] == "asked"]
        per_step: List[List[tuple]] = [[]]
        for event in log:
            if event[0] == "booked":
                per_step.append([])
            else:
                per_step[-1].append(event[1:])
        assert per_step.pop() == []  # nothing is evaluated that is not booked
        for evaluations in per_step:
            assert evaluations and len(evaluations) == len(set(evaluations))
        made = {name for evaluations in per_step for name, _ in evaluations}
        assert made == set(EVALUATED)
