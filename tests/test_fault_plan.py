"""The fault schedule a channel draws from, and the knobs that build it.

``FaultInjector`` finds its own channel's disconnect index and outage
windows once, at construction, instead of scanning
every disconnect and outage of the plan on each attempt.  The Hypothesis
suite holds its verdicts equal to the frozen per-attempt scan
(``tests/oracles/fault_scan.py``) on plans whose channel names share
prefixes, where a prefix or substring match would pick up another
channel's schedule.  The parametrised cases pin every hostile value of a
plan knob, a join's ``epsilon`` and a stack's ``deadline_s`` as
``InvalidInput`` at construction.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AdHocJoinSession, quick_join
from repro.datasets.synthetic import uniform
from repro.errors import InvalidInput
from repro.network.faults import Disconnect, FaultInjector, FaultPlan, Outage

from tests.oracles.fault_scan import ScanningInjector

#: Channel names that are prefixes of one another: a shard, its replicas
#: and a tenth shard.
NAMES = ("R", "R#1", "R#1/0", "R#1/1", "R#10", "R#10/0")
LABELS = ("count-batch", "window-batch", "range-batch", "bucket-range")


@st.composite
def _plans(draw):
    # Three rates of at most 0.33 keep their sum within FaultPlan's bound of 1.
    rates = draw(
        st.lists(st.floats(0.0, 0.33, allow_nan=False), min_size=3, max_size=3)
    )
    outages = draw(
        st.lists(
            st.builds(Outage, st.sampled_from(NAMES), st.integers(0, 40), st.integers(1, 12)),
            max_size=6,
        )
    )
    disconnects = draw(
        st.lists(st.builds(Disconnect, st.sampled_from(NAMES), st.integers(0, 60)), max_size=4)
    )
    return FaultPlan(
        seed=draw(st.integers(0, 2**32)),
        drop_rate=rates[0],
        stall_rate=rates[1],
        duplicate_rate=rates[2],
        stall_latency_s=draw(st.floats(0.0, 1.0, allow_nan=False)),
        outages=tuple(outages),
        disconnects=tuple(disconnects),
    )


@settings(max_examples=120, deadline=None)
@given(
    plan=_plans(),
    labels=st.lists(st.sampled_from(LABELS), min_size=1, max_size=300),
)
def test_the_schedule_found_once_draws_what_the_per_attempt_scan_drew(plan, labels):
    for name in NAMES:
        shipped, oracle = plan.injector(name), ScanningInjector(plan, name)
        assert isinstance(shipped, FaultInjector)
        for label in labels:
            got, want = shipped.next_event(label), oracle.next_event(label)
            assert got.latency_s == want.latency_s
        assert shipped.event_tuples() == oracle.event_tuples()
        assert shipped.events == oracle.events


def test_prefix_names_do_not_share_a_schedule():
    """A fixed case the strategy may miss: every channel of the family has
    its own outage and disconnect, and each sees only its own."""
    plan = FaultPlan(
        seed=5,
        outages=(Outage("R#1", 2, 3), Outage("R#1/0", 6, 2), Outage("R#10", 0, 1)),
        disconnects=(Disconnect("R#1/1", 4), Disconnect("R#10/0", 1), Disconnect("R#1", 9)),
    )
    for name in NAMES:
        shipped, oracle = plan.injector(name), ScanningInjector(plan, name)
        for _ in range(12):
            shipped.next_event("count-batch")
            oracle.next_event("count-batch")
        assert shipped.event_tuples() == oracle.event_tuples(), name
    r1 = plan.injector("R#1")
    verdicts = [r1.next_event("x").kind.value for _ in range(11)]
    assert verdicts == ["ok"] * 2 + ["unavailable"] * 3 + ["ok"] * 4 + ["disconnect"] * 2
    r = plan.injector("R")
    assert {r.next_event("x").kind.value for _ in range(20)} == {"ok"}


# ---------------------------------------------------------------------- #
# every hostile knob is InvalidInput at construction
# ---------------------------------------------------------------------- #

HOSTILE = (float("nan"), -1, 2.5, "3")


def _tiny():
    return uniform(n=20, seed=1, name="R"), uniform(n=20, seed=2, name="S")


@pytest.mark.parametrize("value", HOSTILE, ids=repr)
def test_a_plan_seed_is_a_non_negative_integer(value):
    with pytest.raises(InvalidInput, match="seed must be >= 0 and integral"):
        FaultPlan(seed=value)


@pytest.mark.parametrize("value", HOSTILE, ids=repr)
@pytest.mark.parametrize("rate", ["drop_rate", "stall_rate", "duplicate_rate"])
def test_a_plan_rate_is_a_finite_fraction(rate, value):
    with pytest.raises(InvalidInput, match=rf"{rate} must be finite and in \[0, 1\]"):
        FaultPlan(**{rate: value})


def test_plan_rates_sum_to_at_most_one():
    with pytest.raises(InvalidInput, match="sum to at most 1"):
        FaultPlan(drop_rate=0.5, stall_rate=0.3, duplicate_rate=0.3)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Outage("R", -1, 2), "outage start must be >= 0"),
        (lambda: Outage("R", 0.5, 2), "outage start must be >= 0"),
        (lambda: Outage("R", "3", 2), "outage start must be >= 0"),
        (lambda: Outage("R", float("nan"), 2), "outage start must be >= 0"),
        (lambda: Outage("R", 0, 0), "outage length must be >= 1"),
        (lambda: Outage("R", 0, 2.5), "outage length must be >= 1"),
        (lambda: Outage("R", 0, "3"), "outage length must be >= 1"),
        (lambda: Disconnect("R", -1), "disconnect index must be >= 0"),
        (lambda: Disconnect("R", 2.5), "disconnect index must be >= 0"),
        (lambda: Disconnect("R", "3"), "disconnect index must be >= 0"),
        (lambda: Disconnect("R", float("nan")), "disconnect index must be >= 0"),
    ],
    ids=[
        "outage-start--1", "outage-start-2.5", "outage-start-'3'", "outage-start-nan",
        "outage-length-0", "outage-length-2.5", "outage-length-'3'",
        "disconnect--1", "disconnect-2.5", "disconnect-'3'", "disconnect-nan",
    ],
)
def test_outages_and_disconnects_are_typed(build, message):
    with pytest.raises(InvalidInput, match=message):
        build()


@pytest.mark.parametrize(
    "entry",
    [
        lambda r, s: quick_join(r, s, epsilon="3"),
        lambda r, s: AdHocJoinSession(r, s).run(epsilon="3"),
        lambda r, s: quick_join(r, s, epsilon=0.01, deadline_s="3"),
        lambda r, s: AdHocJoinSession(r, s, deadline_s="3"),
    ],
    ids=["quick_join-epsilon", "session.run-epsilon", "quick_join-deadline_s", "session-deadline_s"],
)
def test_string_numbers_are_invalid_input_at_the_boundary(entry):
    """``"3"`` used to reach ``math.isfinite`` / ``>=`` inside the package
    and raise ``TypeError`` there."""
    with pytest.raises(InvalidInput, match="epsilon must be finite|deadline_s must be"):
        entry(*_tiny())
