"""R/S swap: SemiJoin mirrors its pairs and its per-server bytes.

SemiJoin decides from the two sides' sizes alone: the smaller dataset
uploads, the larger one ships its level MBRs and joins.  Swapping R and S
on the default window (the union of both bounds) therefore runs the same
relay with the sides renamed: the pairs mirror, ``bytes_r`` and
``bytes_s`` trade places exactly and ``total_bytes`` holds.  The one
asymmetric rule is the tie: ``size_r <= size_s`` makes R the small side
when the sizes are equal, so a swap of equal-sized datasets uploads the
other one.  The property is a fact about the input, so the test needs no
oracle.  (Only the default window is symmetric: a join window anchors R.)
"""

from __future__ import annotations

import pytest

from repro.core.join_types import JoinSpec
from repro.core.planner import build_algorithm, build_session_stack
from repro.datasets.railway import generate_railway_like
from repro.datasets.synthetic import clustered, uniform

BUFFER = 100

#: ``(R, S, epsilon, total bytes)`` with ``|R| != |S|``; ``epsilon`` 0 is
#: an intersection join.
UNEQUAL = {
    "clustered-clustered": (
        lambda: clustered(1500, 8, seed=3), lambda: clustered(1400, 8, seed=4), 0.005, 37648
    ),
    "uniform-clustered": (
        lambda: uniform(800, seed=5), lambda: clustered(900, 3, seed=6), 0.01, 10548
    ),
    "clustered-uniform": (
        lambda: clustered(600, 4, seed=7), lambda: uniform(700, seed=8), 0.0, 25208
    ),
    "large-small": (
        lambda: clustered(2000, 16, seed=9), lambda: clustered(500, 2, seed=10), 0.02, 22088
    ),
    "railway": (
        lambda: generate_railway_like(70, seed=1, hubs=6),
        lambda: generate_railway_like(60, seed=51, hubs=5),
        0.0,
        3568,
    ),
}


def _run(r, s, epsilon):
    """SemiJoin of ``r`` and ``s`` on their default window."""
    r, s = r.rename("R"), s.rename("S")
    spec = JoinSpec.distance(epsilon) if epsilon else JoinSpec.intersection()
    _, _, device = build_session_stack(r, s, buffer_size=BUFFER)
    return build_algorithm("semijoin", device, spec).run(r.bounds().union(s.bounds()))


def _mirrored(result):
    return {(s_oid, r_oid) for r_oid, s_oid in result.pairs}


def _plan(result) -> str:
    (detail,) = [event.detail for event in result.trace if event.action == "semijoin-plan"]
    return detail


@pytest.mark.parametrize("case", sorted(UNEQUAL))
def test_a_swap_mirrors_pairs_and_bytes(case):
    make_r, make_s, epsilon, total = UNEQUAL[case]
    r, s = make_r(), make_s()
    assert len(r) != len(s)
    plain, swapped = _run(r, s, epsilon), _run(s, r, epsilon)
    assert plain.pairs == _mirrored(swapped)
    assert (plain.bytes_r, plain.bytes_s) == (swapped.bytes_s, swapped.bytes_r)
    assert plain.total_bytes == swapped.total_bytes == total


def test_equal_sizes_make_r_the_small_side():
    """The tie-break: on equal sizes R uploads, whichever dataset R is, so
    the swap moves the bytes (41,228 B, and 40,548 B swapped)."""
    r, s = clustered(1500, 8, seed=3), clustered(1500, 8, seed=4)
    plain, swapped = _run(r, s, 0.005), _run(s, r, 0.005)
    assert plain.pairs == _mirrored(swapped)
    assert _plan(plain) == _plan(swapped) == "small=R (1500 objects), large=S (1500 objects)"
    assert (plain.total_bytes, swapped.total_bytes) == (41228, 40548)
