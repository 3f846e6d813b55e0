"""Golden wire ledgers: every exchange's records, frozen as digests.

``test_golden_figures.py`` freezes byte *totals* and
``test_golden_traces.py`` the planner's decisions; this suite freezes the
per-message ledgers themselves -- direction, kind, payload, wire bytes,
packets and label of every record, in order -- so a change to how an
exchange is priced or booked cannot hide behind equal totals.  Each case
runs a small fixed join (or a direct call) on a fresh stack and digests
both connections' :meth:`ledger_fingerprint` plus every channel's
retry-lane counters and log fingerprint.

The cases cover every booker and send path of the connections:

* the six algorithms on one plain stack (SemiJoin's relay endpoints
  included), and the relay's metadata endpoints called directly;
* MobiJoin / UpJoin / SrJoin on 2 x 2 shards x 2 replicas under a
  recoverable fault plan (scatter, failover, retry lanes);
* UpJoin with bucket queries (the bucket booker);
* ``average_mbr_area`` on the plain and the sharded stack;
* SemiJoin where its relay stops early: a window the root COUNT round
  prunes, and one where the small side has no object near the large
  side's level MBRs, so nothing is uploaded for the final join;
* a windowed SemiJoin that finds pairs, once with R the small side and
  once with S the small side (with the pair count: a join window anchors
  R, so only pairs whose R object meets it count);
* one brokered four-query batch (the wave driver's bookings), and one
  wave of two SemiJoin queries and an UpJoin query on shared builds.

Regenerate (only when a change to the wire is intentional and reviewed)
with::

    PYTHONPATH=src python tests/test_golden_ledgers.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.core.base import AlgorithmParameters
from repro.core.join_types import JoinSpec
from repro.core.planner import StackConfig, build_algorithm, build_session_stack
from repro.datasets.synthetic import clustered, uniform
from repro.geometry.rect import Rect
from repro.network.faults import FaultPlan
from repro.service import JoinQuery, QueryBroker

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_ledgers.json"

BUFFER = 64
EPSILON = 0.03
PLAIN_ALGORITHMS = ("mobijoin", "upjoin", "srjoin", "semijoin", "naive", "fixedgrid")
FLEET_ALGORITHMS = ("mobijoin", "upjoin", "srjoin")
FLEET = dict(shards_r=2, shards_s=2, replicas=2)
RECOVERABLE_PLAN = FaultPlan(seed=3, drop_rate=0.10, stall_rate=0.08, duplicate_rate=0.08)
#: Windows of the direct ``average_mbr_area`` calls: inside, across and
#: outside the data.
AREA_WINDOWS = (
    Rect(0.0, 0.0, 1.0, 1.0),
    Rect(0.2, 0.3, 0.55, 0.6),
    Rect(0.7, 0.05, 0.72, 0.07),
    Rect(5.0, 5.0, 6.0, 6.0),
)
#: A window only S has objects in: SemiJoin's root COUNT round prunes it.
EMPTY_SIDE_WINDOW = Rect(0.7, 0.1, 0.99, 0.39)
#: Both root counts are positive here, yet no R object (the small side)
#: lies within epsilon of S's second-to-last-level MBRs: SemiJoin's relay
#: collects nothing and stops before the final join.
NO_SMALL_OBJECTS_WINDOW = Rect(0.29, 0.72, 0.57, 0.98)
#: A window whose SemiJoin reaches the final join, beside the whole one.
SEMIJOIN_PART_WINDOW = Rect(0.1, 0.0, 0.5, 0.5)
#: Thin windows of the windowed SemiJoin cases, over a uniform and a
#: clustered dataset: the first meets the uniform one only (the small R),
#: the second both (the clustered R is larger than the uniform S).
SMALL_R_WINDOW = Rect(0.1, 0.3, 0.5, 0.35)
SMALL_S_WINDOW = Rect(0.3, 0.4, 0.7, 0.45)


def _datasets():
    return (
        clustered(n=80, clusters=3, seed=11, name="R"),
        clustered(n=600, clusters=4, seed=12, std=0.04, name="S"),
    )


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _stack_ledgers(device) -> Dict[str, object]:
    """Both connections' primary fingerprints and every channel's retry lane."""
    servers = device.servers
    retry = [
        (
            c.name,
            c.retry_uplink_bytes,
            c.retry_downlink_bytes,
            c.retry_uplink_packets,
            c.retry_downlink_packets,
            c.retry_messages_up,
            c.retry_messages_down,
            c.retry_log.fingerprint(),
        )
        for proxy in (servers.r, servers.s)
        for c in proxy.channels
    ]
    primary = (servers.r.ledger_fingerprint(), servers.s.ledger_fingerprint())
    return {
        "primary": _digest(primary),
        "retry": _digest(retry),
        "wire_bytes": servers.total_bytes(),
        "retry_bytes": sum(entry[1] + entry[2] for entry in retry),
    }


def _join(algorithm: str, stack: StackConfig = StackConfig(), params=None, window=None):
    r, s = _datasets()
    _, _, device = build_session_stack(r, s, buffer_size=BUFFER, stack=stack)
    algo = build_algorithm(algorithm, device, JoinSpec.distance(EPSILON), params)
    algo.run(window or r.bounds().union(s.bounds()))
    return device


def _windowed_semijoin(small: str) -> Dict[str, object]:
    """SemiJoin over a thin window with ``small`` the small side."""
    few, many = uniform(800, seed=5), clustered(900, 3, seed=6)
    r, s, window = (few, many, SMALL_R_WINDOW) if small == "R" else (many, few, SMALL_S_WINDOW)
    _, _, device = build_session_stack(r, s, buffer_size=100)
    algo = build_algorithm("semijoin", device, JoinSpec.distance(0.05))
    result = algo.run(window)
    return {**_stack_ledgers(device), "pairs": len(result.pairs)}


def _average_areas(stack: StackConfig):
    r, s = _datasets()
    _, _, device = build_session_stack(r, s, buffer_size=BUFFER, stack=stack)
    for window in AREA_WINDOWS:
        device.servers.r.average_mbr_area(window)
        device.servers.s.average_mbr_area(window)
    return device


def _relay_metadata():
    r, s = _datasets()
    _, _, device = build_session_stack(r, s, buffer_size=BUFFER)
    for proxy in (device.servers.r, device.servers.s):
        proxy.tree_height()
        proxy.object_count()
        proxy.level_mbrs()
    return device


def _brokered_batch() -> Dict[str, object]:
    r, s = _datasets()
    spec = JoinSpec.distance(EPSILON)
    queries = [
        JoinQuery(r, s, spec, algorithm=name, buffer_size=BUFFER)
        for name in ("upjoin", "srjoin", "mobijoin", "naive")
    ]
    outcomes = QueryBroker().run_batch(queries)
    assert all(o.status == "ok" and o.ledger_fingerprints is not None for o in outcomes)
    return {
        "primary": _digest([o.ledger_fingerprints for o in outcomes]),
        "wire_bytes": sum(o.result.total_bytes for o in outcomes),
    }


def _brokered_semijoins() -> Dict[str, object]:
    """One wave: two SemiJoin queries and an UpJoin query on shared builds."""
    r, s = _datasets()
    spec = JoinSpec.distance(EPSILON)
    queries = [
        JoinQuery(r, s, spec, algorithm=name, buffer_size=BUFFER, window=window)
        for name, window in (
            ("semijoin", None),
            ("upjoin", None),
            ("semijoin", SEMIJOIN_PART_WINDOW),
        )
    ]
    outcomes = QueryBroker().run_batch(queries)
    assert all(o.status == "ok" and o.wave == 0 for o in outcomes)
    return {
        "primary": _digest([o.ledger_fingerprints for o in outcomes]),
        "wire_bytes": sum(o.result.total_bytes for o in outcomes),
    }


CASES: Dict[str, Callable[[], Dict[str, object]]] = {
    **{
        f"plain/{name}": (lambda name=name: _stack_ledgers(_join(name)))
        for name in PLAIN_ALGORITHMS
    },
    **{
        f"fleet_faults/{name}": (
            lambda name=name: _stack_ledgers(
                _join(name, StackConfig(**FLEET, faults=RECOVERABLE_PLAN))
            )
        )
        for name in FLEET_ALGORITHMS
    },
    "bucket/upjoin": lambda: _stack_ledgers(
        _join("upjoin", params=AlgorithmParameters(bucket_queries=True))
    ),
    "relay/metadata": lambda: _stack_ledgers(_relay_metadata()),
    "average_mbr_area/plain": lambda: _stack_ledgers(_average_areas(StackConfig())),
    "average_mbr_area/fleet": lambda: _stack_ledgers(_average_areas(StackConfig(**FLEET))),
    "semijoin/empty-side": lambda: _stack_ledgers(_join("semijoin", window=EMPTY_SIDE_WINDOW)),
    "semijoin/no-small-objects": lambda: _stack_ledgers(
        _join("semijoin", window=NO_SMALL_OBJECTS_WINDOW)
    ),
    "semijoin/window-small-r": lambda: _windowed_semijoin("R"),
    "semijoin/window-small-s": lambda: _windowed_semijoin("S"),
    "broker/batch4": _brokered_batch,
    "broker/semijoin": _brokered_semijoins,
}


def _labels(device):
    return {
        record[-1]
        for proxy in (device.servers.r, device.servers.s)
        for channel in proxy.channels
        for record in channel.log.fingerprint()
    }


def test_cases_reach_every_booker():
    """The fixture is only as strong as its cases: the plain joins book
    every per-request kind, the bucket case bucket exchanges, the SemiJoin
    case its relay endpoints, and the fleet case spends retry traffic."""
    assert {"count", "window", "range"} <= _labels(_join("upjoin"))
    assert "bucket-range" in _labels(
        _join("upjoin", params=AlgorithmParameters(bucket_queries=True))
    )
    assert {"size", "level-mbrs", "semijoin-windows", "semijoin-upload"} <= (
        _labels(_join("semijoin"))
    )
    assert {"tree-height", "size", "level-mbrs"} <= _labels(_relay_metadata())
    assert _stack_ledgers(_join("upjoin", StackConfig(**FLEET, faults=RECOVERABLE_PLAN)))[
        "retry_bytes"
    ] > 0


def test_semijoin_cases_stop_where_they_say():
    """The empty-side window is pruned by the root COUNT round alone; the
    no-small-objects window collects from the small side and uploads
    nothing; the brokered SemiJoin on its part window reaches the join."""
    assert _labels(_join("semijoin", window=EMPTY_SIDE_WINDOW)) == {"count", "count-result"}
    stopped = _labels(_join("semijoin", window=NO_SMALL_OBJECTS_WINDOW))
    assert {"level-mbrs", "semijoin-windows", "semijoin-objects"} <= stopped
    assert "semijoin-upload" not in stopped
    assert "semijoin-upload" in _labels(_join("semijoin", window=SEMIJOIN_PART_WINDOW))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_ledgers_reproduce_fixture(case):
    assert FIXTURE_PATH.exists(), (
        "golden ledger fixture missing; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_ledgers.py --regen`"
    )
    golden = json.loads(FIXTURE_PATH.read_text())
    assert sorted(golden) == sorted(CASES)
    assert CASES[case]() == golden[case], f"{case}: the wire ledger drifted"


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("pass --regen to overwrite the golden ledger fixture")
    FIXTURE_PATH.parent.mkdir(exist_ok=True)
    FIXTURE_PATH.write_text(
        json.dumps({case: run() for case, run in sorted(CASES.items())}, indent=2, sort_keys=True)
        + "\n"
    )
    print(f"wrote {FIXTURE_PATH}")
