"""Every numeric knob of the public entry points is typed at the boundary.

The sweep finds each entry point's numeric parameters by signature and
default -- a real-valued default, or an ``int`` / ``float`` annotation --
and feeds each one NaN, inf, -1, 2.5 and ``"3"`` on top of an otherwise
legal call.  Each value must raise :class:`~repro.errors.InvalidInput`, or
be a legal value listed in :data:`LEGAL` with its reason.  A bare
``ValueError`` / ``TypeError`` from inside the package, a failure only
when the join runs, or a hostile value silently accepted fails the sweep.
A knob added later is swept without touching this file.
"""

from __future__ import annotations

import inspect
import math
import numbers

import pytest

from repro.api import (
    AdHocJoinSession,
    FaultPlan,
    JoinQuery,
    QueryBroker,
    RetryPolicy,
    ShardedSpatialServer,
    StackConfig,
    partition_dataset,
    quick_join,
)
from repro.core.base import AlgorithmParameters
from repro.core.join_types import JoinSpec
from repro.datasets.railway import generate_railway_like
from repro.datasets.synthetic import clustered, gaussian_mixture, uniform
from repro.datasets.workloads import WorkloadSpec, random_query_windows
from repro.errors import InvalidInput
from repro.network.config import NetworkConfig
from repro.network.faults import Disconnect, Outage

from tests.conftest import build_datasets

HOSTILE = (math.nan, math.inf, -1, 2.5, "3")

#: Hostile values that are legal for the knob they are given to.
LEGAL = {
    ("epsilon", 2.5): "a legal distance: any positive finite epsilon",
    ("rho", 2.5): "a density threshold may be any positive multiple of the average",
    ("deadline_s", math.inf): "an infinite budget means no deadline",
    ("deadline_s", 2.5): "a legal deadline in simulated seconds",
    ("stall_latency_s", 2.5): "a legal stall latency",
    ("base_backoff_s", 2.5): "a legal backoff",
    ("max_backoff_s", 2.5): "a legal backoff cap",
    ("backoff_factor", 2.5): "a legal backoff growth factor (>= 1)",
    ("tariff_r", 2.5): "a legal per-byte tariff",
    ("tariff_s", 2.5): "a legal per-byte tariff",
    ("std", 2.5): "a legal cluster spread: wide clusters are re-drawn into the bounds",
    ("jitter", 2.5): "a legal corridor bend: segments are clipped to the bounds",
}

R = uniform(n=40, seed=1, name="R")
S = clustered(n=40, clusters=2, seed=7, std=0.06, name="S")
SPEC = JoinSpec.distance(0.03)


def _query(**knobs):
    return JoinQuery(R, S, SPEC, **{"buffer_size": 64, **knobs})


def _all_ok(outcomes):
    # The broker isolates a typed error into a failed outcome.
    assert [o.error for o in outcomes if o.status != "ok"] == []


def _join(**knobs):
    return quick_join(R, S, epsilon=0.03, **knobs)


#: Entry point -> (the callable whose signature names its knobs, a legal
#: construction taking the swept knob as a keyword, what then uses the
#: constructed object).  A hostile value must be refused by the
#: construction; a legal one must then also run.
TARGETS = {
    "quick_join": (quick_join, lambda **k: quick_join(R, S, **{"epsilon": 0.03, **k}), None),
    "AdHocJoinSession": (
        AdHocJoinSession,
        lambda **k: AdHocJoinSession(R, S, **k),
        lambda session: session.run(epsilon=0.03),
    ),
    "AdHocJoinSession.run": (
        AdHocJoinSession.run,
        lambda **k: AdHocJoinSession(R, S).run(**{"epsilon": 0.03, **k}),
        None,
    ),
    "FaultPlan": (FaultPlan, FaultPlan, lambda plan: _join(faults=plan)),
    "RetryPolicy": (RetryPolicy, RetryPolicy, lambda policy: _join(retry=policy)),
    "NetworkConfig": (NetworkConfig, NetworkConfig, lambda config: _join(config=config)),
    "StackConfig": (
        StackConfig,
        StackConfig,
        lambda stack: _all_ok(QueryBroker().run_batch([_query(stack=stack)])),
    ),
    "JoinQuery": (JoinQuery, _query, lambda query: _all_ok(QueryBroker().run_batch([query]))),
    # ``grid_k`` and ``bucket_queries`` key the broker's planning groups.
    "AlgorithmParameters": (
        AlgorithmParameters,
        AlgorithmParameters,
        lambda params: _all_ok(QueryBroker().run_batch([_query(params=params)])),
    ),
    "partition_dataset": (
        partition_dataset, lambda **k: partition_dataset(R, **{"shards": 2, **k}), None
    ),
    "ShardedSpatialServer": (ShardedSpatialServer, lambda **k: ShardedSpatialServer(R, **k), None),
    "clustered": (clustered, lambda **k: clustered(**{"n": 20, **k}), None),
    "uniform": (uniform, lambda **k: uniform(**{"n": 20, **k}), None),
    "gaussian_mixture": (
        gaussian_mixture,
        lambda **k: gaussian_mixture(**{"n": 20, "centers": [(0.5, 0.5)], **k}),
        None,
    ),
    "generate_railway_like": (
        generate_railway_like,
        lambda **k: generate_railway_like(**{"n_segments": 50, "hubs": 4, **k}),
        None,
    ),
    "random_query_windows": (
        random_query_windows, lambda **k: random_query_windows(**{"count": 3, **k}), None
    ),
    "WorkloadSpec": (WorkloadSpec, WorkloadSpec, build_datasets),
    "Outage": (
        Outage,
        lambda **k: Outage(**{"server": "R", "start": 0, "length": 1, **k}),
        lambda outage: _join(faults=FaultPlan(outages=(outage,))),
    ),
    "Disconnect": (
        Disconnect,
        lambda **k: Disconnect(**{"server": "R", "at": 10**6, **k}),
        lambda disconnect: _join(faults=FaultPlan(disconnects=(disconnect,))),
    ),
}


def _numeric(parameter: inspect.Parameter) -> bool:
    if parameter.kind in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD):
        return False
    default = parameter.default
    if isinstance(default, numbers.Real) and not isinstance(default, bool):
        return True
    return parameter.annotation in ("int", "float", "Optional[int]", "Optional[float]")


def _knobs(name: str):
    owner = TARGETS[name][0]
    return [p.name for p in inspect.signature(owner).parameters.values() if _numeric(p)]


def _accepted(name: str, knobs) -> bool:
    """False when the construction refuses ``knobs`` with InvalidInput;
    any other exception, here or when the result is used, propagates."""
    _, build, use = TARGETS[name]
    try:
        built = build(**knobs)
    except InvalidInput:
        return False
    if use is not None:
        use(built)
    return True


def test_the_sweep_covers_every_entry_point():
    swept = {name: _knobs(name) for name in TARGETS}
    assert all(swept.values()), swept
    assert sum(map(len, swept.values())) >= 50
    assert "seed" in swept["AdHocJoinSession.run"]
    assert swept["partition_dataset"] == ["shards"]


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_every_hostile_value_is_invalid_input_or_legal(name):
    assert _accepted(name, {})
    offenders = [
        (knob, value)
        for knob in _knobs(name)
        for value in HOSTILE
        if _accepted(name, {knob: value}) != ((knob, value) in LEGAL)
    ]
    assert offenders == []


#: Hostile values for a string knob: no string, a number, the empty name
#: and a name in bytes.
HOSTILE_STRINGS = (None, 3, "", b"upjoin")

#: String knob -> entry point -> a call that takes the knob's value.  The
#: shard scheme is ``scheme`` where a dataset is partitioned directly.
STRING_KNOBS = {
    "algorithm": {
        "quick_join": lambda v: _join(algorithm=v),
        "AdHocJoinSession.run": lambda v: AdHocJoinSession(R, S).run(algorithm=v, epsilon=0.03),
        "JoinQuery": lambda v: _query(algorithm=v),
    },
    "kind": {
        "quick_join": lambda v: _join(kind=v),
        "AdHocJoinSession.run": lambda v: AdHocJoinSession(R, S).run(kind=v, epsilon=0.03),
    },
    "shard_scheme": {
        "quick_join": lambda v: _join(shard_scheme=v, shards_r=2),
        "AdHocJoinSession": lambda v: AdHocJoinSession(R, S, shard_scheme=v, shards_r=2),
        "StackConfig": lambda v: StackConfig(shard_scheme=v),
        "JoinQuery": lambda v: _query(stack=StackConfig(shard_scheme=v)),
        "partition_dataset": lambda v: partition_dataset(R, shards=2, scheme=v),
        "ShardedSpatialServer": lambda v: ShardedSpatialServer(R, shards=2, scheme=v),
    },
}

#: Hostile string values that are legal for the entry point given them.
LEGAL_STRINGS = {
    ("algorithm", "JoinQuery", None): "no algorithm: the broker picks one",
}


@pytest.mark.parametrize(
    "knob, entry",
    [(knob, entry) for knob, entries in sorted(STRING_KNOBS.items()) for entry in sorted(entries)],
)
def test_every_hostile_string_is_invalid_input_or_legal(knob, entry):
    call = STRING_KNOBS[knob][entry]
    offenders = []
    for value in HOSTILE_STRINGS:
        try:
            call(value)
            refused = False
        except InvalidInput:
            refused = True
        if refused == ((knob, entry, value) in LEGAL_STRINGS):
            offenders.append(value)
    assert offenders == []
