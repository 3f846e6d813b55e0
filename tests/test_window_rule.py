"""The window rule, held with a free oracle.

A join window restricts R only: a windowed join returns exactly the full
join's pairs whose R object meets the window, and S is searched wherever
it meets such an R object (``JoinPredicate.request_windows``).  So the
expected answer needs no reference implementation: filter the naive join's
default-window pairs by ``R.window_mask(window)``.

Hypothesis draws windows that lie inside the data, straddle its edge, lie
outside it, or are degenerate (zero width, zero height or a point), and
every one is joined by all six algorithms, standalone and as one brokered
wave, on a plain stack and on a 2 x 2 sharded one (SemiJoin needs one
index per side, so it runs on the plain stack only), with R the smaller
dataset and with S the smaller one (SemiJoin's relay clips and joins on
the other side then).  The unmarked lane is a few windows per window kind;
the ``slow`` lane draws many more.
"""

from __future__ import annotations

import functools

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.api import AdHocJoinSession
from repro.core.join_types import JoinSpec
from repro.core.planner import ALGORITHMS, StackConfig
from repro.datasets.railway import generate_railway_like
from repro.datasets.synthetic import clustered, uniform
from repro.geometry.rect import Rect
from repro.service import JoinQuery, QueryBroker

EPSILON = 0.03
#: Small enough that HBSJ splits and NLSJ falls back on the denser cells.
BUFFER = 40
STACKS = {"plain": StackConfig(), "sharded": StackConfig(shards_r=2, shards_s=2)}
KINDS = ("inside", "straddling", "outside", "degenerate")
#: Which side holds the smaller dataset.
SMALL = ("R", "S")


@functools.lru_cache(maxsize=None)
def _datasets(small: str):
    """``(R, S)``: a clustered and a uniform dataset over the unit square,
    the clustered one smaller and on side ``small``."""
    few, many = clustered(220, 4, seed=41, std=0.05), uniform(260, seed=42)
    return (few, many) if small == "R" else (many, few)


@functools.lru_cache(maxsize=None)
def _session(stack: str, small: str) -> AdHocJoinSession:
    r, s = _datasets(small)
    sharded = STACKS[stack]
    return AdHocJoinSession(
        r, s, buffer_size=BUFFER, shards_r=sharded.shards_r, shards_s=sharded.shards_s
    )


@functools.lru_cache(maxsize=None)
def _broker() -> QueryBroker:
    """One broker for every example: builds are shared, results never cached."""
    return QueryBroker(cache=False)


@functools.lru_cache(maxsize=None)
def _full_pairs(small: str) -> frozenset:
    """The naive join over the default window: every pair of the full join."""
    return frozenset(_session("plain", small).run(algorithm="naive", epsilon=EPSILON).pairs)


def _expected(window: Rect, small: str) -> frozenset:
    """The full join's pairs whose R object meets ``window``."""
    r, _ = _datasets(small)
    inside = set(r.oids[r.window_mask(window)].tolist())
    return frozenset(pair for pair in _full_pairs(small) if pair[0] in inside)


def _algorithms(stack: str):
    return [name for name in sorted(ALGORITHMS) if stack == "plain" or name != "semijoin"]


@st.composite
def windows(draw, kind: str, small: str) -> Rect:
    """A window of one kind.  The data lies in the unit square; inside and
    degenerate windows are drawn around one R object, so that they meet it."""
    r, _ = _datasets(small)
    x, y = r.mbrs[draw(st.integers(0, len(r) - 1)), :2].tolist()
    if kind == "inside":
        w, h = draw(st.floats(0.005, 0.15)), draw(st.floats(0.005, 0.15))
        return Rect(max(0.0, x - w), max(0.0, y - h), min(1.0, x + w), min(1.0, y + h))
    if kind == "degenerate":
        half = draw(st.floats(0.0, 0.2))
        shape = draw(st.sampled_from(["point", "vertical", "horizontal"]))
        if shape == "point":
            return Rect(x, y, x, y)
        if shape == "vertical":
            return Rect(x, y - half, x, y + half)
        return Rect(x - half, y, x + half, y)
    if kind == "straddling":
        x, y = draw(st.floats(-0.3, 0.95)), draw(st.floats(-0.3, 0.95))
        w, h = draw(st.floats(0.3, 1.5)), draw(st.floats(0.3, 1.5))
        return Rect(x, y, x + w, y + h)
    # Outside: past one edge of the unit square by a gap that S's grown
    # window can bridge (epsilon) or not.
    gap, depth = draw(st.floats(0.0, 0.1)), draw(st.floats(0.0, 0.5))
    lo, hi = sorted((draw(st.floats(-0.5, 1.5)), draw(st.floats(-0.5, 1.5))))
    edge = draw(st.sampled_from(["left", "right", "below", "above"]))
    if edge == "left":
        return Rect(-gap - depth, lo, -gap, hi)
    if edge == "right":
        return Rect(1.0 + gap, lo, 1.0 + gap + depth, hi)
    if edge == "below":
        return Rect(lo, -gap - depth, hi, -gap)
    return Rect(lo, 1.0 + gap, hi, 1.0 + gap + depth)


def _check(window: Rect, stack: str, small: str, brokered: bool) -> None:
    expected = _expected(window, small)
    names = _algorithms(stack)
    if brokered:
        r, s = _datasets(small)
        queries = [
            JoinQuery(
                r, s, JoinSpec.distance(EPSILON), algorithm=name, buffer_size=BUFFER,
                window=window, stack=STACKS[stack],
            )
            for name in names
        ]
        outcomes = _broker().run_batch(queries)
        assert [o.status for o in outcomes] == ["ok"] * len(names)
        answers = {name: o.result.pairs for name, o in zip(names, outcomes)}
    else:
        session = _session(stack, small)
        answers = {
            name: session.run(algorithm=name, epsilon=EPSILON, window=window).pairs
            for name in names
        }
    for name, pairs in answers.items():
        assert pairs == expected, (
            f"{name} ({stack}, {small} small, {'brokered' if brokered else 'standalone'}) "
            f"over {window}: "
            f"extra {sorted(pairs - expected)[:5]}, missing {sorted(expected - pairs)[:5]}"
        )


@pytest.mark.parametrize("small", SMALL)
def test_the_oracle_sees_pairs(small):
    """The full join and a window over a corner of R both have pairs: a
    rule held only over empty answers would show nothing."""
    assert len(_full_pairs(small)) > 100
    assert _expected(Rect(0.0, 0.0, 1.0, 1.0), small) == _full_pairs(small)
    r, s = _datasets(small)
    assert (len(r) < len(s)) == (small == "R")
    box = r.bounds()
    corner = Rect(box.xmin, box.ymin, (box.xmin + box.xmax) / 2, (box.ymin + box.ymax) / 2)
    assert 0 < len(_expected(corner, small)) < len(_full_pairs(small))


@pytest.mark.parametrize("brokered", (False, True), ids=("standalone", "brokered"))
@pytest.mark.parametrize("small", SMALL)
@pytest.mark.parametrize("stack", sorted(STACKS))
@pytest.mark.parametrize("kind", KINDS)
@settings(
    max_examples=2, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data())
def test_a_windowed_join_returns_the_pairs_whose_r_meets_the_window(
    kind, stack, small, brokered, data
):
    _check(data.draw(windows(kind, small), label="window"), stack, small, brokered)


@pytest.mark.slow
@pytest.mark.parametrize("brokered", (False, True), ids=("standalone", "brokered"))
@pytest.mark.parametrize("small", SMALL)
@pytest.mark.parametrize("stack", sorted(STACKS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_the_window_rule_over_many_windows(stack, small, brokered, data):
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    _check(data.draw(windows(kind, small), label="window"), stack, small, brokered)


#: Two railway-like datasets of extended segments (intersection join,
#: buffer 100) and two windows over them where the windowed answer depends
#: on the plan: on the first, the free oracle has 7 pairs and all six
#: algorithms return 4; on the second, it has 3, SrJoin returns 3 and the
#: other five return 2.
EXTENDED_WINDOWS = (Rect(0.50, 0.31, 0.78, 0.42), Rect(0.38, 0.23, 0.55, 0.28))


@pytest.mark.xfail(
    strict=True,
    reason="over extended R objects a windowed answer depends on the plan: the "
    "algorithms miss pairs of R objects that meet the window, and disagree",
)
def test_extended_r_objects_follow_the_window_rule():
    r = generate_railway_like(120, seed=1, hubs=6)
    s = generate_railway_like(120, seed=51, hubs=5)
    session = AdHocJoinSession(r, s, buffer_size=100)
    full = frozenset(session.run(algorithm="naive", kind="intersection").pairs)
    wrong = {}
    for window in EXTENDED_WINDOWS:
        inside = set(r.oids[r.window_mask(window)].tolist())
        expected = frozenset(pair for pair in full if pair[0] in inside)
        for name in sorted(ALGORITHMS):
            pairs = session.run(algorithm=name, kind="intersection", window=window).pairs
            if pairs != expected:
                wrong[(window.as_tuple(), name)] = (len(pairs), len(expected))
    assert wrong == {}
