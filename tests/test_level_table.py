"""A frontier level decided as one table == the same windows decided one generator each.

Since PR 22 UpJoin, MobiJoin and SrJoin decide all windows of a recursion
depth together, as columns (:class:`repro.core.frontier.LevelTable`).  The
per-window generators they replaced live on in
``tests/oracles/frontier_generators.py``.  This suite feeds *generated
levels* -- not levels a join happened to reach -- to both: 1 to ~300
windows, exact and estimated counts, zeros of both kinds, coincident and
zero-area windows, epsilon 0 and > 0, bucket on / off --
answers every COUNT from a script (so a quadrant count can be zero, a
confirmation probe can refute) and asserts equal

* step sequences: kinds, sides, rows, ``==`` on every coordinate -- the wire
  order is the contract;
* outcomes: the leaves (operator, window, counts, exactness, outer side)
  and the child rows (windows, counts, exactness, inherited verdicts);
* operator counters; and
* trace rows, types included (``3`` is not ``3.0`` in a rendered log).
"""

from __future__ import annotations

import zlib
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import AlgorithmParameters
from repro.core.frontier import HBSJ, NLSJ, Level
from repro.core.join_types import JoinSpec
from repro.core.mobijoin import MobiJoin
from repro.core.srjoin import DIFFERENT, NO_PARENT, SIMILAR, SrJoin
from repro.core.upjoin import UpJoin
from repro.datasets.synthetic import clustered, uniform
from repro.device.pda import MobileDevice
from repro.device.steps import run_steps
from repro.geometry.rect import Rect
from repro.server.remote import ServerPair
from repro.server.server import SpatialServer

from tests.oracles.frontier_generators import (
    GENERATORS,
    MobiJoinTask,
    OperatorLeaf,
    SrJoinTask,
    UpJoinTask,
    level_rounds,
)
from tests.test_metamorphic_mirror import _mirrored

_R, _S = uniform(n=8, seed=1), uniform(n=8, seed=2)


def _algorithm(cls, epsilon: float, bucket: bool, buffer_size: int):
    device = MobileDevice(
        ServerPair.connect(SpatialServer(_R, name="R"), SpatialServer(_S, name="S")),
        buffer_size=buffer_size,
    )
    spec = JoinSpec.distance(epsilon) if epsilon > 0 else JoinSpec.intersection()
    params = AlgorithmParameters(bucket_queries=bucket, seed=5)
    return cls(device, spec, params)


# ---------------------------------------------------------------------- #
# the scripted COUNT answerer
# ---------------------------------------------------------------------- #


class _Script:
    """Counts as a pure function of (side, window): either hashed noise with
    many zeros, or area times a density with hashed wobble (so Eq. 9 holds
    often enough to reach the confirmation probes)."""

    def __init__(self, mode: str, density: float, salt: int) -> None:
        self.mode, self.density, self.salt = mode, density, salt

    def count(self, side: str, row) -> int:
        x0, y0, x1, y1 = row
        noise = zlib.crc32(np.array(row, dtype="<f8").tobytes() + side.encode(), self.salt)
        if self.mode == "noise":
            return 0 if noise % 5 < 2 else noise % 300
        area = max(x1 - x0, 0.0) * max(y1 - y0, 0.0)
        wobble = 1.0 + ((noise % 2001) - 1000) / 1000.0 * 0.2
        return 0 if noise % 11 == 0 else int(self.density * area * wobble)

    def answer(self, step) -> List[List[int]]:
        return [
            [self.count(side, row) for row in _rows(args[0])] for _kind, side, args in step
        ]


def _rows(windows) -> List[tuple]:
    """Request rows -- ``Rect``s or an ``(N, 4)`` array -- as tuples of floats."""
    if isinstance(windows, np.ndarray):
        return [tuple(row) for row in windows.tolist()]
    return [rect.as_tuple() for rect in windows]


def _drive(steps, script):
    """Answer a step generator from the script; its result and what it offered."""
    offered = []
    try:
        step = next(steps)
        while True:
            offered.append([(kind.name, side, _rows(args[0])) for kind, side, args in step])
            step = steps.send(script.answer(step))
    except StopIteration as stop:
        return stop.value, offered


# ---------------------------------------------------------------------- #
# generated levels
# ---------------------------------------------------------------------- #


@st.composite
def levels(draw):
    """``(windows, count_r, count_s, exact, flag_a, flag_b, depth)`` columns."""
    n = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    lo = rng.uniform(0.0, 1.0, size=(n, 2))
    extent = rng.uniform(0.0, 0.4, size=(n, 2)) * rng.choice([0.0, 1e-9, 1.0], size=(n, 2), p=[0.1, 0.05, 0.85])
    windows = np.hstack([lo, lo + extent])
    coincide = rng.random(n) < 0.15  # copies of an earlier window
    windows[coincide] = windows[rng.integers(0, n, size=int(coincide.sum()))]
    exact = rng.random(n) < 0.5
    script = _Script(
        draw(st.sampled_from(["noise", "areal"])),
        draw(st.sampled_from([50.0, 2000.0, 60000.0])),
        draw(st.integers(min_value=0, max_value=1000)),
    )
    counts = []
    for side in "RS":
        real = np.array([script.count(side, row) for row in windows.tolist()], dtype=np.float64)
        estimate = real * rng.choice([0.0, 0.25, 1.0, 1.3], size=n) + rng.choice([0.0, 0.25, 0.5], size=n)
        counts.append(np.where(exact, real, estimate))
    flag_a, flag_b = rng.random(n) < 0.3, rng.random(n) < 0.3
    depth = draw(st.sampled_from([0, 1, 3, 7, 31, 32]))
    return (windows, counts[0], counts[1], exact, flag_a, flag_b, depth), script


def _tasks(cls, columns):
    windows, count_r, count_s, exact, flag_a, flag_b, depth = columns
    rects = [Rect(*row) for row in windows.tolist()]
    rows = zip(rects, count_r.tolist(), count_s.tolist(), exact.tolist(), flag_a.tolist(), flag_b.tolist())
    if cls is UpJoin:
        return [UpJoinTask(w, r, s, e, a, b, depth) for w, r, s, e, a, b in rows]
    if cls is SrJoin:
        # Every third window has no parent verdict (a root's row).
        return [
            SrJoinTask(w, r, s, None if i % 3 == 0 else a, depth)
            for i, (w, r, s, _, a, _) in enumerate(rows)
        ]
    return [MobiJoinTask(w, int(r), int(s), depth) for w, r, s, *_ in rows]


def _level(cls, columns) -> Level:
    windows, count_r, count_s, exact, flag_a, flag_b, depth = columns
    if cls is UpJoin:
        return Level(depth, windows, count_r, count_s, exact, (flag_a, flag_b))
    if cls is SrJoin:
        verdict = np.where(flag_a, SIMILAR, DIFFERENT)
        verdict[::3] = NO_PARENT
        return Level(depth, windows, count_r, count_s, exact, (verdict,))
    return Level(depth, windows, np.trunc(count_r), np.trunc(count_s), np.ones(len(windows), bool))


# ---------------------------------------------------------------------- #
# outcomes in one canonical form
# ---------------------------------------------------------------------- #


def _oracle_outcome(cls, runs):
    leaves, children = [], []
    for i, run in enumerate(runs):
        if isinstance(run.outcome, OperatorLeaf):
            leaf = run.outcome
            leaves.append(
                (i, leaf.op, leaf.window.as_tuple(), leaf.count_r, leaf.count_s)
                + ((leaf.counts_exact,) if leaf.op == "hbsj" else (leaf.outer,))
            )
        elif run.outcome is not None:
            for task in run.outcome:
                row = (task.depth, task.window.as_tuple(), float(task.count_r), float(task.count_s))
                if cls is UpJoin:
                    row += (task.counts_exact, task.known_uniform_r, task.known_uniform_s)
                elif cls is SrJoin:
                    row += (True, task.parent_similar)
                else:
                    row += (True,)
                children.append(row)
    return leaves, children


def _table_outcome(cls, table):
    leaves = []
    for i in np.flatnonzero(table.op).tolist():
        leaves.append(
            (i, {HBSJ: "hbsj", NLSJ: "nlsj"}[int(table.op[i])], tuple(table.windows[i].tolist()),
             int(table.int_r[i]), int(table.int_s[i]))
            + ((bool(table.counts_exact[i]),) if table.op[i] == HBSJ else ("S" if table.outer_s[i] else "R",))
        )
    children = []
    level = table.children
    if level is not None:
        assert len(level) > 0
        flags = [flag.tolist() for flag in level.flags]
        if cls is SrJoin:
            flags = [[verdict == SIMILAR for verdict in flags[0]]]
        for k, window in enumerate(level.windows.tolist()):
            children.append(
                (level.depth, tuple(window), float(level.count_r[k]), float(level.count_s[k]),
                 bool(level.exact[k]), *(flag[k] for flag in flags))
            )
    return leaves, children


# ---------------------------------------------------------------------- #
# the property
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("cls", [UpJoin, MobiJoin, SrJoin], ids=lambda cls: cls.name)
@given(
    generated=levels(),
    epsilon=st.sampled_from([0.0, 0.004, 0.05]),
    bucket=st.booleans(),
    buffer_size=st.sampled_from([40, 800]),
)
@settings(max_examples=40, deadline=None)
def test_table_equals_generators(cls, generated, epsilon, bucket, buffer_size):
    columns, script = generated
    shipped = _algorithm(cls, epsilon, bucket, buffer_size)
    oracle = _algorithm(GENERATORS[cls], epsilon, bucket, buffer_size)

    table, table_steps = _drive(shipped.table(shipped, _level(cls, columns)).steps(), script)
    runs, oracle_steps = _drive(level_rounds(oracle, _tasks(cls, columns)), script)

    assert table_steps == oracle_steps
    assert _table_outcome(cls, table) == _oracle_outcome(cls, runs)
    assert shipped.device.counts == oracle.device.counts
    got = table.events()
    want = [event for run in runs for event in run.events]
    assert got == want
    assert [event.format() for event in got] == [event.format() for event in want]
    assert bool(got) == (len(columns[0]) > 0)


def test_rounds_interleave_out_of_phase_windows():
    """Two UpJoin windows a stage apart share rounds: round 1 carries one
    window's S quadrants and the other's R quadrants, S listed first because
    its window comes first; round 2 carries the second window's S quadrants."""
    algo = _algorithm(UpJoin, 0.0, False, 800)
    windows = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.5, 0.5]])
    level = Level(
        1, windows, np.array([40000.0, 40000.0]), np.array([40000.0, 40000.0]),
        np.array([True, True]), (np.array([True, False]), np.array([False, False])),
    )

    class _Skewed(_Script):
        def count(self, side, row):
            # All mass in one quadrant: Eq. 9 fails, no probe is asked.
            return 40000 if row[0] == 0.0 and row[1] == 0.0 else 0

    _, offered = _drive(algo.table(algo, level).steps(), _Skewed("noise", 0.0, 0))
    shapes = [[(side, len(rows)) for _, side, rows in step] for step in offered]
    # Window 0 knows R uniform and starts on S; window 1 starts on R.
    assert shapes == [[("S", 4), ("R", 4)], [("S", 4)]]


def test_every_s_quadrant_count_is_the_servers_count_of_its_grown_quadrant():
    """Under a distance join S's quadrants are grown by the margin and
    overlap, so the paper's ``|Dw| - sum(three)`` undercounts the fourth.
    Every S quadrant count UpJoin's and SrJoin's tables record is the
    server's COUNT of that grown quadrant: on this x-mirrored root window
    the derivation put the fourth at 246 where the server counts 322."""
    r, s = (
        _mirrored(clustered(n=1500, clusters=8, seed=seed, name=name))
        for seed, name in ((3, "R"), (4, "S"))
    )
    window = r.bounds().union(s.bounds())
    for cls in (UpJoin, SrJoin):
        server_s = SpatialServer(s, name="S")
        device = MobileDevice(
            ServerPair.connect(SpatialServer(r, name="R"), server_s), buffer_size=100
        )
        algo = cls(device, JoinSpec.distance(0.005), AlgorithmParameters())
        root = algo._root_task(window, len(r), len(s), 0)
        table = run_steps(algo.table(algo, root).steps(), device.servers)
        grown = algo.predicate.request_windows("S", table.quad_windows()[0])
        assert table.quads[1][0].tolist() == server_s.evaluate_count_batch(grown)
        assert table.quads[1][0, 3] == 322
