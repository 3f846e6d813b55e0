"""One descent per wave step: the broker's fused evaluations equal standalone runs.

A brokered query is a step generator (``repro.device.steps``): it offers
every server evaluation it needs and the wave driver answers the steps of
all in-flight queries together -- one stat-free descent per (backing build,
query kind) and wave round -- after which each query books its own share on
its own connections.  This suite holds the two halves of that contract:

* **fusion** -- ``index.query.calls_per_op`` of ``BENCHMARK.json``'s
  ``broker_waves`` workload, a count that repeats exactly, held in tier-1:
  no ``FlatRTree`` batch call happens inside a query's advance, and a wave
  round makes at most one per build and kind, whatever the wave width;
* **attribution** -- everything a query can observe (pairs, bytes, operator
  counters, per-shard / per-replica server statistics, both ledger lanes
  of every channel, fault and failover events, the decision trace) equals
  its standalone run, over plain, sharded and replicated builds, with and
  without faults, per-probe and bucket NLSJ; an unrecoverable fault while
  booking a download fails that query alone, at the same exchange.
"""

from __future__ import annotations

import functools
from typing import Dict, List

import numpy as np
import pytest

from repro.core.base import AlgorithmParameters
from repro.core.join_types import JoinSpec
from repro.core.planner import StackConfig, build_algorithm, build_session_stack
from repro.datasets.synthetic import clustered
from repro.device.steps import run_steps
from repro.errors import ChannelFault, ReproError
from repro.geometry.rect import Rect
from repro.index.flat import FlatRTree
from repro.network.faults import Disconnect, FaultPlan, replica_outages
from repro.obs import Tracer
from repro.service import JoinQuery, QueryBroker
from repro.service import broker as service_broker

BUFFER = 60
SPEC = JoinSpec.distance(0.015)
ALGORITHMS = ("upjoin", "srjoin", "mobijoin")
DESCENTS = ("count_batch", "window_batch_flat", "range_batch_flat")

TOPOLOGIES = {
    "plain": {},
    "sharded": dict(shards_r=4, shards_s=4, shard_scheme="str"),
    "replicated": dict(shards_r=4, shards_s=4, shard_scheme="str", replicas=2),
}


@functools.lru_cache(maxsize=None)
def _datasets():
    """Large enough for every algorithm to finish windows with both operators."""
    return (
        clustered(n=600, clusters=8, seed=11, name="R"),
        clustered(n=600, clusters=9, seed=12, std=0.05, name="S"),
    )


def _windows() -> List[Rect]:
    r, s = _datasets()
    whole = r.bounds().union(s.bounds())
    x, y = whole.xmin, whole.ymin
    w, h = whole.width, whole.height
    return [
        whole,
        Rect(x, y, x + 0.6 * w, y + 0.7 * h),
        Rect(x + 0.3 * w, y + 0.2 * h, x + w, y + h),
        Rect(x + 0.2 * w, y, x + 0.8 * w, y + 0.5 * h),
    ]


def _faults(topology: str):
    """A recoverable plan: every retryable kind and, where a sibling can
    take over, one replica of a shard dead for the whole query."""
    rates = dict(seed=5, drop_rate=0.10, stall_rate=0.08, duplicate_rate=0.08)
    if topology == "replicated":
        return FaultPlan(outages=replica_outages("S#1", 2, 0, 10**9, indices=[0]), **rates)
    return FaultPlan(**rates)


def _queries(topology: str, faults, bucket: bool, windows=None) -> List[JoinQuery]:
    r, s = _datasets()
    params = AlgorithmParameters(bucket_queries=bucket)
    return [
        JoinQuery(
            r, s, SPEC, algorithm=algorithm, buffer_size=BUFFER, params=params,
            window=window, stack=StackConfig(faults=faults, **TOPOLOGIES[topology]),
        )
        for window in (windows or _windows()[:2])
        for algorithm in ALGORITHMS
    ]


def _observables(device) -> Dict[str, object]:
    """Everything the execution left on a query's own stack."""
    out: Dict[str, object] = {
        "counts": device.counts.as_dict(),
        "buffer": device.buffer.high_water_mark,
    }
    res = device.resilience
    if res is not None:
        out["resilience"] = res.summary()
    for side, proxy in (("R", device.servers.r), ("S", device.servers.s)):
        out[side] = {
            "ledger": proxy.ledger_fingerprint(),
            "snapshot": proxy.channel_snapshot(),
            "channels": [
                (c.name, c.ledger_fingerprint(), c.retry_bytes, c.retry_log.fingerprint())
                for c in proxy.channels
            ],
            "stats": proxy.replica_stats(),
            "failovers": proxy.failover_events(),
        }
    return out


def _result_facts(result) -> Dict[str, object]:
    return {
        "pairs": result.sorted_pairs(),
        "bytes": (result.total_bytes, result.bytes_r, result.bytes_s, result.total_cost),
        "time": result.estimated_time_s,
        "operator_counts": result.operator_counts,
        "server_stats": result.server_stats,
        "channel_stats": result.channel_stats,
        "buffer": result.buffer_high_water_mark,
        "resilience": result.resilience,
        "trace": [
            (e.depth, e.action, e.detail, e.count_r, e.count_s, e.window.as_tuple())
            for e in result.trace
        ],
    }


def _standalone(query: JoinQuery):
    """The query alone on a fresh stack: ``(result or error, its device)``."""
    _, _, device = build_session_stack(
        query.dataset_r, query.dataset_s, buffer_size=query.buffer_size,
        stack=query.stack,
    )
    algo = build_algorithm(query.algorithm, device, query.spec, query.resolved_params())
    try:
        return algo.run(query.resolved_window()), device
    except ChannelFault as error:
        return error, device


@pytest.fixture
def devices(monkeypatch) -> Dict[int, object]:
    """The per-query devices of brokered runs, by ticket (the broker drops them)."""
    captured: Dict[int, object] = {}
    build = QueryBroker._build_stack

    def capturing(self, entry):
        build(self, entry)
        captured[entry.index] = entry.device

    monkeypatch.setattr(QueryBroker, "_build_stack", capturing)
    return captured


# --------------------------------------------------------------------------- #
# fusion: where the descents happen, and how many
# --------------------------------------------------------------------------- #


@pytest.fixture
def descents(monkeypatch) -> List[tuple]:
    """A log of ``("descent", method, tree id)`` and ``("advance", +1 / -1)``
    events: every ``FlatRTree`` batch call, and when the driver is inside
    the phase that books and advances the queries of a wave (a query's
    ``book_step``, a unit's advance)."""
    from repro.device import steps

    log: List[tuple] = []
    for name in DESCENTS:
        original = getattr(FlatRTree, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            log.append(("descent", _name, id(self)))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(FlatRTree, name, counted)
    for name in ("book_step", "_advance"):

        def bracketed(*args, _original=getattr(steps, name)):
            log.append(("advance", +1))
            try:
                return _original(*args)
            finally:
                log.append(("advance", -1))

        monkeypatch.setattr(steps, name, bracketed)
    return log


class TestOneDescentPerWaveStep:
    @pytest.mark.parametrize("topology", ["plain", "replicated"])
    @pytest.mark.parametrize("max_wave", [1, 3, 16])
    def test_no_descent_inside_an_advance_and_one_per_build_and_kind(
        self, descents, topology, max_wave, monkeypatch
    ):
        queries = _queries(topology, None, bucket=False, windows=_windows())
        assert len(queries) == 12
        monkeypatch.setattr(service_broker, "MAX_WAVE", max_wave)
        broker = QueryBroker(cache=False)
        broker.run_batch(queries[:1])  # builds the servers
        descents.clear()
        before = broker.stats.as_dict()
        outcomes = broker.run_batch(queries)
        assert [o.status for o in outcomes] == ["ok"] * 12
        coalesced, standalone = (
            broker.stats.as_dict()[key] - before[key]
            for key in ("coalesced_exchanges", "standalone_exchanges")
        )

        inside = 0
        rounds: List[List[tuple]] = [[]]
        for event in descents:
            if event[0] == "advance":
                inside += event[1]
                if event[1] < 0:
                    rounds.append([])
            else:
                assert not inside, f"{event[1]} on a query's own advance"
                rounds[-1].append(event[1:])
        assert inside == 0
        for made in rounds:
            # Two builds (R, S) x three kinds at the very most.
            assert len(made) == len(set(made)) <= 6
        total = sum(len(made) for made in rounds)
        assert total == coalesced

        # The same queries on their own flush one descent per request.
        descents.clear()
        for query in queries:
            _standalone(query)
        alone = sum(1 for event in descents if event[0] == "descent")
        assert alone == standalone
        if max_wave == 1:
            assert total == alone
        else:
            assert total < alone / (1.25 if max_wave == 3 else 2)

    def test_counters_and_spans_account_every_fused_group(self):
        tracer = Tracer()
        broker = QueryBroker(cache=False, tracer=tracer)
        broker.run_batch(_queries("plain", None, bucket=False))
        (wave,) = [span for span in tracer.spans() if span.name == "wave"]
        groups = [dict(span.labels) for span in tracer.spans() if span.name == "coalesced"]
        assert all(
            span.parent_id == wave.span_id for span in tracer.spans() if span.name == "coalesced"
        )
        # One span per evaluation made, told apart by round, kind and server.
        stats = broker.stats
        assert len(groups) == stats.coalesced_exchanges
        assert len({(g["round"], g["kind"], g["server"]) for g in groups}) == len(groups)
        assert {g["kind"] for g in groups} == {"count", "window", "range"}
        # ... whose member requests are the exchanges standalone runs flush.
        assert sum(int(g["requests"]) for g in groups) == stats.standalone_exchanges
        assert stats.standalone_exchanges > stats.coalesced_exchanges
        assert stats.coalesced_count_queries == sum(
            int(g["rows"]) for g in groups if g["kind"] == "count"
        )

    def test_bucket_queries_are_fused_too(self, descents):
        queries = _queries("sharded", None, bucket=True)
        broker = QueryBroker(cache=False)
        outcomes = broker.run_batch(queries)
        assert sum(o.result.operator_counts["nlsj_invocations"] for o in outcomes) > 0
        inside = 0
        for event in descents:
            if event[0] == "advance":
                inside += event[1]
            else:
                assert not inside


class TestStandaloneIsAWaveOfOne:
    """``run_join`` answers its steps with the broker's own loop over one
    query: every step is gathered, evaluated on the backing builds -- at
    most once per (build, kind) -- and booked on the connections; no build
    endpoint that bumps statistics is ever asked."""

    ASKED = ("count_batch", "window_batch_flat", "range_batch_flat", "bucket_range")
    EVALUATED = ("evaluate_count_batch", "evaluate_window_batch", "evaluate_range_batch")

    @pytest.mark.parametrize("bucket", [False, True], ids=["per-probe", "bucket"])
    @pytest.mark.parametrize("topology", ["plain", "sharded", "replicated"])
    def test_steps_are_evaluated_on_the_builds_and_booked(self, monkeypatch, topology, bucket):
        from repro.core.planner import run_join
        from repro.device import steps
        from repro.server import ShardedSpatialServer, SpatialServer

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
            for name in self.EVALUATED:
                spy(cls, name, "evaluated")
        book_step = steps.book_step

        def booked(*args):
            log.append(("booked",))
            return book_step(*args)

        monkeypatch.setattr(steps, "book_step", booked)

        r, s = _datasets()
        params = AlgorithmParameters(bucket_queries=bucket)
        for algorithm in ("fixedgrid", "mobijoin", "naive", "srjoin"):
            run_join(
                r, s, SPEC, algorithm=algorithm, buffer_size=BUFFER, params=params,
                window=_windows()[1], stack=StackConfig(**TOPOLOGIES[topology]),
            )
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
        assert made == set(self.EVALUATED)


# --------------------------------------------------------------------------- #
# attribution: every query equals its standalone run
# --------------------------------------------------------------------------- #


class TestFusedEqualsStandalone:
    @pytest.mark.parametrize("bucket", [False, True], ids=["per-probe", "bucket"])
    @pytest.mark.parametrize("faulty", [False, True], ids=["no-faults", "recoverable"])
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_every_observable_matches(self, devices, topology, faulty, bucket):
        faults = _faults(topology) if faulty else None
        queries = _queries(topology, faults, bucket)
        outcomes = QueryBroker(cache=False).run_batch(queries)
        operators = {"hbsj_invocations": 0, "nlsj_invocations": 0}
        for ticket, (query, outcome) in enumerate(zip(queries, outcomes)):
            assert outcome.status == "ok", outcome.error
            reference, device = _standalone(query)
            assert _result_facts(outcome.result) == _result_facts(reference)
            assert _observables(devices[ticket]) == _observables(device)
            assert outcome.ledger_fingerprints == (
                device.servers.r.ledger_fingerprint(),
                device.servers.s.ledger_fingerprint(),
            )
            for name in operators:
                operators[name] += reference.operator_counts[name]
        # The wave exercised both operators, and -- when asked to -- faults
        # and a fail-over.
        assert all(operators.values())
        if faulty:
            summaries = [o.result.resilience for o in outcomes]
            assert sum(s["retries"] for s in summaries) > 0
            assert (sum(s["failovers"] for s in summaries) > 0) == (topology == "replicated")

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_unrecoverable_fault_at_a_window_booking_fails_that_query_alone(
        self, devices, topology
    ):
        queries = _queries(topology, FaultPlan(seed=0), bucket=False)
        victim_at = 1
        victim = queries[victim_at]
        # The exchange the link dies at: the victim's first download from R
        # (first routed shard / replica), found on an armed zero-rate run.
        healthy, healthy_device = _standalone(victim)
        channel, at = next(
            (name, op)
            for name, events in sorted(healthy.resilience["fault_events"].items())
            if name.startswith("R")
            for op, _, label in events
            if label == "window-batch"
        )
        doomed = JoinQuery(
            victim.dataset_r, victim.dataset_s, victim.spec, algorithm=victim.algorithm,
            buffer_size=BUFFER, window=victim.window,
            stack=StackConfig(
                faults=FaultPlan(seed=0, disconnects=(Disconnect(channel, at),)),
                **TOPOLOGIES[topology],
            ),
        )
        queries[victim_at] = doomed
        outcomes = QueryBroker(cache=False).run_batch(queries)
        error, device = _standalone(doomed)
        assert isinstance(error, ChannelFault) and not error.recoverable

        failed = outcomes[victim_at]
        assert failed.status == "failed" and failed.result is None
        assert (type(failed.error), str(failed.error)) == (type(error), str(error))
        # Booked up to the very same exchange, and not one request further:
        # the downloads S was still to answer never reached its ledger.
        assert _observables(devices[victim_at]) == _observables(device)
        downloads = [
            sum(row[-1] == "window" for fp in _flat(ledger) for row in fp[-1])
            for ledger in (
                failed.ledger_fingerprints[1],
                healthy_device.servers.s.ledger_fingerprint(),
            )
        ]
        assert downloads[0] < downloads[1]
        for ticket, (query, outcome) in enumerate(zip(queries, outcomes)):
            if ticket != victim_at:
                reference, alone = _standalone(query)
                assert outcome.status == "ok"
                assert _result_facts(outcome.result) == _result_facts(reference)
                assert _observables(devices[ticket]) == _observables(alone)

    def test_a_buffer_overrun_fails_that_query_alone(self, devices, monkeypatch):
        """An operator that overruns the buffer -- here an HBSJ request whose
        trusted counts are wrong -- raises the typed ``BufferExceededError``:
        the broker fails that query, at the download that overran, and the
        neighbours in its wave finish bit-identical to their standalone
        runs.  (As a bare ``RuntimeError`` it discarded the whole batch.)"""
        from repro.core import planner
        from repro.core.frontier import FrontierAlgorithm, LevelTable
        from repro.device.buffer import BufferExceededError

        class TrustsWrongCounts(FrontierAlgorithm):
            name = "overrun"

            class table(LevelTable):
                def start(self):
                    # The root window is one HBSJ leaf that trusts counts of 1.
                    self.int_r[:] = self.int_s[:] = 1
                    self.leaves(np.arange(1), np.ones(1, dtype=bool), True)

        monkeypatch.setitem(planner.ALGORITHMS, "overrun", TrustsWrongCounts)
        queries = _queries("plain", None, bucket=False)
        victim_at = 2
        victim = queries[victim_at]
        queries[victim_at] = doomed = JoinQuery(
            victim.dataset_r, victim.dataset_s, victim.spec, algorithm="overrun",
            buffer_size=BUFFER, window=victim.window,
        )
        outcomes = QueryBroker(cache=False).run_batch(queries)

        _, _, device = build_session_stack(
            doomed.dataset_r, doomed.dataset_s, buffer_size=BUFFER, stack=doomed.stack
        )
        algo = build_algorithm("overrun", device, doomed.spec, doomed.resolved_params())
        with pytest.raises(BufferExceededError) as alone:
            algo.run(doomed.resolved_window())
        failed = outcomes[victim_at]
        assert failed.status == "failed" and failed.result is None
        assert (type(failed.error), str(failed.error)) == (BufferExceededError, str(alone.value))
        assert _observables(devices[victim_at]) == _observables(device)
        assert device.servers.r.server_stats()["objects_returned"] > BUFFER
        for ticket, (query, outcome) in enumerate(zip(queries, outcomes)):
            if ticket != victim_at:
                reference, on_its_own = _standalone(query)
                assert outcome.status == "ok"
                assert _result_facts(outcome.result) == _result_facts(reference)
                assert _observables(devices[ticket]) == _observables(on_its_own)


def _flat(fingerprint):
    """Channel-level fingerprints of a connection fingerprint (a fleet nests them)."""
    if fingerprint and isinstance(fingerprint[0], tuple):
        return [fp for shard in fingerprint for fp in _flat(shard)]
    return [fingerprint]


# --------------------------------------------------------------------------- #
# query groups: like queries of a wave decide together
# --------------------------------------------------------------------------- #

GROUP_TOPOLOGIES = {
    "plain": {},
    "replicated": dict(shards_r=4, shards_s=4, shard_scheme="str", replicas=2),
}
GROUP_SPEC = JoinSpec.distance(0.02)
GROUP_BUFFER = 40
#: Every algorithm a wave groups: the adaptive three, the naive /
#: FixedGrid baselines (one level table at depth 0, or at depths 0 and 1)
#: and SemiJoin (its members' index relays side by side; plain stacks only).
GROUPED = (*ALGORITHMS, "naive", "fixedgrid", "semijoin")
#: Where a member of each group is lost: the first booking of this label on
#: this side's channels (SemiJoin at each exchange of its index relay;
#: R is its small side, S its large one, on the group datasets).
LOST_AT = [
    *(
        pytest.param(algorithm, topology, "R", "window-batch", id=f"{algorithm}-{topology}")
        for algorithm in GROUPED
        if algorithm != "semijoin"
        for topology in sorted(GROUP_TOPOLOGIES)
    ),
    *(
        pytest.param("semijoin", "plain", side, label, id=f"semijoin-plain-{label}")
        for side, label in (("S", "level-mbrs"), ("R", "semijoin-windows"), ("S", "semijoin-upload"))
    ),
]


def _grouped(topology: str) -> List[str]:
    """The grouped algorithms that run on ``topology`` (SemiJoin needs one index)."""
    return [a for a in GROUPED if topology == "plain" or a != "semijoin"]


@functools.lru_cache(maxsize=None)
def _group_datasets():
    """Small enough for 16-query waves, deep enough (buffer 40) for several levels."""
    return (
        clustered(n=250, clusters=5, seed=31, name="R"),
        clustered(n=250, clusters=6, seed=32, std=0.05, name="S"),
    )


@functools.lru_cache(maxsize=None)
def _group_windows() -> tuple:
    """Sixteen windows: one over a region only S has objects in, one
    outside both datasets (both pruned at the root), then deep ones."""
    r, s = _group_datasets()
    whole = r.bounds().union(s.bounds())
    margin = GROUP_SPEC.predicate().window_margin

    def inside(mbrs, box) -> bool:
        return bool(
            ((mbrs[:, 2] >= box[0]) & (mbrs[:, 0] <= box[2])
             & (mbrs[:, 3] >= box[1]) & (mbrs[:, 1] <= box[3])).any()
        )

    lonely = next(
        Rect(x - 0.01, y - 0.01, x + 0.01, y + 0.01)
        for x, y in s.mbrs[:, :2].tolist()
        if not inside(r.mbrs, (x - 0.01 - margin, y - 0.01 - margin,
                               x + 0.01 + margin, y + 0.01 + margin))
    )
    outside = Rect(whole.xmax + 1.0, whole.ymax + 1.0, whole.xmax + 2.0, whole.ymax + 2.0)
    x, y, w, h = whole.xmin, whole.ymin, whole.width, whole.height
    deep = [
        Rect(x + a * w, y + b * h, x + (a + c) * w, y + (b + c) * h)
        for a, b, c in (
            (0.0, 0.0, 1.0), (0.1, 0.0, 0.7), (0.3, 0.2, 0.7), (0.0, 0.3, 0.6),
            (0.2, 0.1, 0.5), (0.4, 0.4, 0.6), (0.05, 0.5, 0.5), (0.5, 0.0, 0.5),
            (0.25, 0.25, 0.5), (0.0, 0.0, 0.45), (0.55, 0.55, 0.45), (0.15, 0.35, 0.4),
            (0.35, 0.05, 0.55), (0.6, 0.3, 0.4),
        )
    ]
    return (lonely, outside, *deep)


def _group_queries(algorithm, windows, topology="plain", faults=None, bucket=False):
    r, s = _group_datasets()
    params = AlgorithmParameters(bucket_queries=bucket)
    return [
        JoinQuery(
            r, s, GROUP_SPEC, algorithm=algorithm, buffer_size=GROUP_BUFFER, params=params,
            window=window, stack=StackConfig(faults=faults, **GROUP_TOPOLOGIES[topology]),
        )
        for window in windows
    ]


def _span_shape(spans, root) -> tuple:
    """A span subtree by its deterministic fields, children in label order
    (span ids are left out: they name the parents above ``root``)."""
    kids = sorted(
        (_span_shape(spans, span) for span in spans if span.parent_id == root.span_id),
        key=repr,
    )
    events = tuple((name, labels, sim) for name, labels, _wall, sim in root.events)
    return (
        root.name, root.labels, tuple(sorted(root.annotations.items())),
        root.sim_start, root.sim_end, events, tuple(kids),
    )


def _alone_traced(query: JoinQuery):
    """``(result or error, device, span shape)`` of the query run on its own."""
    tracer = Tracer()
    _, _, device = build_session_stack(
        query.dataset_r, query.dataset_s, buffer_size=query.buffer_size,
        stack=query.stack, tracer=tracer,
    )
    algo = build_algorithm(query.algorithm, device, query.spec, query.resolved_params())
    run = algo.run_cooperative(query.resolved_window())
    try:
        result = run_steps(run, device.servers)
    except ReproError as error:
        # A failed run is closed where it failed, as a driver closes it.
        run.close()
        result = error
    (join,) = [span for span in tracer.spans() if span.name == "join"]
    return result, device, _span_shape(tracer.spans(), join)


def _brokered(queries, devices):
    """The queries as one batch of a traced broker (one wave unless a test
    narrows ``MAX_WAVE``): outcomes and, per ticket, the span shape of its
    "join"."""
    tracer = Tracer()
    outcomes = QueryBroker(cache=False, tracer=tracer).run_batch(queries)
    spans = tracer.spans()
    query_span = {
        dict(span.labels)["ticket"]: span.span_id for span in spans if span.name == "query"
    }
    shapes = {
        int(ticket): _span_shape(spans, join)
        for ticket, parent in query_span.items()
        for join in spans
        if join.name == "join" and join.parent_id == parent
    }
    return outcomes, shapes


def _assert_like_alone(query, outcome, device, shape):
    reference, alone, alone_shape = _alone_traced(query)
    if isinstance(reference, ReproError):
        assert outcome.status != "ok" and outcome.result is None
        assert (type(outcome.error), str(outcome.error)) == (type(reference), str(reference))
    else:
        assert outcome.status == "ok", outcome.error
        assert _result_facts(outcome.result) == _result_facts(reference)
    assert _observables(device) == _observables(alone)
    assert outcome.ledger_fingerprints == (
        alone.servers.r.ledger_fingerprint(), alone.servers.s.ledger_fingerprint()
    )
    assert shape == alone_shape
    return reference


class TestLikeQueriesDecideTogether:
    """Like engine queries of a wave -- same builds, algorithm, spec,
    parameters, configuration and buffer -- run as one step generator:
    one level table per depth and one leaf batch per level for all of
    them, while each query's pairs, bytes, ledgers, counters, statistics,
    buffer, trace and spans stay those of its standalone run."""

    @pytest.mark.parametrize("width", [1, 3, 16])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_a_group_of_any_width_equals_its_standalone_runs(self, devices, algorithm, width):
        queries = _group_queries(algorithm, _group_windows()[:width])
        outcomes, shapes = _brokered(queries, devices)
        starts = []
        for ticket, (query, outcome) in enumerate(zip(queries, outcomes)):
            reference = _assert_like_alone(query, outcome, devices[ticket], shapes[ticket])
            starts.append(next(e for e in reference.trace if e.action == "start"))
        if width > 1:
            # The first window is pruned for an empty R, the second for both.
            assert (starts[0].count_r, starts[1].count_r, starts[1].count_s) == (0, 0, 0)
            assert starts[0].count_s > 0
            assert max(e.depth for o in outcomes for e in o.result.trace) >= 2

    #: ``MAX_WAVE`` 2 cuts each like group of three windows across waves,
    #: so a wave holds members of two groups side by side.
    @pytest.mark.parametrize("width", [16, 2], ids=["one-wave", "cut-waves"])
    @pytest.mark.parametrize("bucket", [False, True], ids=["per-probe", "bucket"])
    @pytest.mark.parametrize("faulty", [False, True], ids=["no-faults", "recoverable"])
    @pytest.mark.parametrize("topology", sorted(GROUP_TOPOLOGIES))
    def test_every_stack_and_option(self, devices, topology, faulty, bucket, width, monkeypatch):
        monkeypatch.setattr(service_broker, "MAX_WAVE", width)
        if width < 16:
            # Replica failures booked in one wave open a breaker that routes
            # the next wave around that replica, by design; no breaker opens
            # here so that a later wave's query still equals its lone run.
            monkeypatch.setattr(service_broker, "BREAKER_THRESHOLD", 10**6)
        faults = _faults(topology) if faulty else None
        windows = _group_windows()[2:5]
        queries = [
            query
            for algorithm in _grouped(topology)
            for query in _group_queries(algorithm, windows, topology, faults, bucket)
        ]
        outcomes, shapes = _brokered(queries, devices)
        for ticket, (query, outcome) in enumerate(zip(queries, outcomes)):
            _assert_like_alone(query, outcome, devices[ticket], shapes[ticket])
        if faulty:
            assert sum(o.result.resilience["retries"] for o in outcomes) > 0

    @pytest.mark.parametrize("algorithm, topology, side, label", LOST_AT)
    def test_a_member_lost_at_its_window_booking_fails_alone(
        self, devices, algorithm, topology, side, label
    ):
        queries = _group_queries(algorithm, _group_windows()[2:5], topology, FaultPlan(seed=0))
        victim = queries[1]
        healthy, _, _ = _alone_traced(victim)
        channel, at = next(
            (name, op)
            for name, events in sorted(healthy.resilience["fault_events"].items())
            if name.startswith(side)
            for op, _, booked in events
            if booked == label
        )
        queries[1] = JoinQuery(
            victim.dataset_r, victim.dataset_s, victim.spec, algorithm=algorithm,
            buffer_size=GROUP_BUFFER, params=victim.params, window=victim.window,
            stack=StackConfig(
                faults=FaultPlan(seed=0, disconnects=(Disconnect(channel, at),)),
                **GROUP_TOPOLOGIES[topology],
            ),
        )
        outcomes, shapes = _brokered(queries, devices)
        assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
        assert isinstance(outcomes[1].error, ChannelFault)
        for ticket, (query, outcome) in enumerate(zip(queries, outcomes)):
            _assert_like_alone(query, outcome, devices[ticket], shapes[ticket])

    @pytest.mark.parametrize("algorithm", (*ALGORITHMS, "semijoin"))
    def test_a_member_past_its_deadline_fails_alone(self, devices, algorithm):
        queries = _group_queries(algorithm, _group_windows()[2:5])
        victim = queries[0]
        queries[0] = JoinQuery(
            victim.dataset_r, victim.dataset_s, victim.spec, algorithm=algorithm,
            buffer_size=GROUP_BUFFER, params=victim.params, window=victim.window,
            stack=StackConfig(
                faults=FaultPlan(seed=4, stall_rate=1.0, stall_latency_s=1.0), deadline_s=6.5
            ),
        )
        outcomes, shapes = _brokered(queries, devices)
        assert [o.status for o in outcomes] == ["timeout", "ok", "ok"]
        for ticket, (query, outcome) in enumerate(zip(queries, outcomes)):
            _assert_like_alone(query, outcome, devices[ticket], shapes[ticket])

    def test_one_level_table_per_group_and_depth(self, monkeypatch):
        """Three like queries build one table per depth, not one per query
        and depth (and one leaf batch per level)."""
        from repro.core import frontier

        built: List[tuple] = []
        init = frontier.LevelTable.__init__

        def counted(self, algo, level, *args):
            built.append((level.depth, len(level)))
            init(self, algo, level, *args)

        monkeypatch.setattr(frontier.LevelTable, "__init__", counted)
        queries = _group_queries("mobijoin", _group_windows()[2:5])
        outcomes = QueryBroker(cache=False).run_batch(queries)
        assert all(o.status == "ok" for o in outcomes)
        depths = [depth for depth, _ in built]
        deepest = max(e.depth for o in outcomes for e in o.result.trace)
        assert deepest >= 3
        assert depths == sorted(set(depths)) == list(range(deepest + 1))

    @pytest.mark.parametrize("algorithm, deepest", [("naive", 0), ("fixedgrid", 1)])
    def test_the_baselines_build_one_level_table_per_group_and_depth(
        self, monkeypatch, algorithm, deepest
    ):
        """Three like baseline queries build one table per depth too: the
        naive join its root level, FixedGrid its root and its cells."""
        from repro.core import frontier

        built: List[tuple] = []
        init = frontier.LevelTable.__init__

        def counted(self, algo, level, *args):
            built.append((level.depth, len(level)))
            init(self, algo, level, *args)

        monkeypatch.setattr(frontier.LevelTable, "__init__", counted)
        queries = _group_queries(algorithm, _group_windows()[2:5])
        outcomes = QueryBroker(cache=False).run_batch(queries)
        assert all(o.status == "ok" for o in outcomes)
        assert max(e.depth for o in outcomes for e in o.result.trace) == deepest
        assert [depth for depth, _ in built] == list(range(deepest + 1))
        assert built[0] == (0, 3)
