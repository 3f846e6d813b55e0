"""Chaos property suite: fault injection never changes what a query measures.

The resilience pinning invariant of PR 7, exercised end to end:

* **Bit-identity under recoverable faults.**  For any seeded
  :class:`~repro.network.faults.FaultPlan` whose operations eventually
  succeed, every algorithm's result -- pairs, primary-lane bytes, costs,
  statistics, traces -- is bit-identical to the fault-free run.  Retry and
  duplicate traffic lands exclusively on the channel's separate retry
  ledger lane and never contaminates the paper's transfer figures.
* **Determinism.**  The fault event sequence each server draws is a pure
  function of ``(plan seed, server name, exchange sequence)`` --
  independent of broker wave width and submission order.
* **Graceful degradation.**  Unrecoverable faults (mid-query disconnects,
  unavailability windows outlasting the retry budget, deadline overruns)
  surface typed errors; in a broker wave the failed query is isolated and
  its neighbours complete bit-identically.
* **Circuit breaker.**  Repeated ``ServerUnavailable`` verdicts open a
  per-backing-server breaker that sheds queries fast, goes half-open
  after its cooldown, and closes again on a successful probe.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List

import pytest

from repro.core.join_types import JoinSpec
from repro.core.planner import (
    ALGORITHMS,
    StackConfig,
    build_algorithm,
    build_session_stack,
    run_join,
)
from repro.datasets.synthetic import clustered, uniform
from repro.device.steps import run_steps
from repro.errors import (
    ChannelFault,
    InvalidInput,
    QueryTimeout,
    RetryExhausted,
    ServerUnavailable,
)
from repro.network.faults import (
    Disconnect,
    FaultKind,
    FaultPlan,
    Outage,
    RetryPolicy,
)
from repro.obs import Tracer
from repro.service import JoinQuery, QueryBroker
from repro.service import broker as service_broker
from repro.service.cache import ResultCache

pytestmark = pytest.mark.chaos

BUFFER = 96

#: Recoverable chaos: every fault kind that retries can absorb, at rates
#: where the default retry budget (6 attempts) never plausibly exhausts.
RECOVERABLE_PLANS = [
    FaultPlan(seed=3, drop_rate=0.10, stall_rate=0.08, duplicate_rate=0.08),
    FaultPlan(seed=9, drop_rate=0.12, duplicate_rate=0.05, stall_rate=0.05),
    # Armed but zero-rate: the resilience stack attached, no fault drawn.
    FaultPlan(seed=0),
]


def _datasets():
    return (
        clustered(n=110, clusters=3, seed=11, name="R"),
        clustered(n=110, clusters=4, seed=12, std=0.04, name="S"),
    )


def _trace_tuples(result) -> List[tuple]:
    return [
        (e.depth, e.action, e.detail, e.count_r, e.count_s, e.window.as_tuple())
        for e in result.trace
    ]


def _assert_identical(result, reference) -> None:
    """Everything the paper measures, bit for bit (resilience summary
    excluded -- that is exactly the part a fault plan is allowed to
    change)."""
    assert result.sorted_pairs() == reference.sorted_pairs()
    assert result.objects == reference.objects
    assert result.total_bytes == reference.total_bytes
    assert result.bytes_r == reference.bytes_r
    assert result.bytes_s == reference.bytes_s
    assert result.total_cost == reference.total_cost
    assert result.estimated_time_s == reference.estimated_time_s
    assert result.operator_counts == reference.operator_counts
    assert result.server_stats == reference.server_stats
    assert result.channel_stats == reference.channel_stats
    assert result.buffer_high_water_mark == reference.buffer_high_water_mark
    assert _trace_tuples(result) == _trace_tuples(reference)


def _faults_fired(summary: Dict) -> int:
    """Fault occurrences that produce retry-lane traffic."""
    return summary["drops"] + summary["unavailable"] + summary["duplicates_discarded"]


# --------------------------------------------------------------------------- #
# determinism of the fault streams
# --------------------------------------------------------------------------- #


class TestFaultPlanDeterminism:
    def test_same_seed_same_stream(self):
        plan = FaultPlan(seed=42, drop_rate=0.2, stall_rate=0.2, duplicate_rate=0.2)
        a, b = plan.injector("R"), plan.injector("R")
        events_a = [a.next_event("count").as_tuple() for _ in range(64)]
        events_b = [b.next_event("count").as_tuple() for _ in range(64)]
        assert events_a == events_b
        # Distinct servers draw independent substreams of the same seed.
        c = plan.injector("S")
        assert [c.next_event("count").as_tuple() for _ in range(64)] != events_a

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=0.7, stall_rate=0.4)
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=-0.1)

    def test_recoverable_property(self):
        assert FaultPlan(drop_rate=0.3).recoverable
        assert not FaultPlan(disconnects=(Disconnect("R", 3),)).recoverable

    def test_priority_outage_over_rates(self):
        plan = FaultPlan(seed=1, outages=(Outage("R", 0, 4),))
        injector = plan.injector("R")
        kinds = [injector.next_event("count").kind for _ in range(6)]
        assert kinds[:4] == [FaultKind.UNAVAILABLE] * 4
        assert all(k is FaultKind.OK for k in kinds[4:])

    @pytest.mark.parametrize("plan", RECOVERABLE_PLANS)
    def test_events_independent_of_scheduling(self, plan, monkeypatch):
        """Per-server drawn fault sequences depend only on the plan seed
        and the query's own exchange sequence -- never on wave width or
        submission order."""
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        names = sorted(ALGORITHMS)

        reference = {
            name: run_join(
                r, s, spec, algorithm=name, buffer_size=BUFFER,
                stack=StackConfig(faults=plan),
            ).resilience["fault_events"]
            for name in names
        }
        for max_wave, order_seed in [(16, None), (1, 0), (16, 1)]:
            queries = [
                JoinQuery(
                    r, s, spec, algorithm=name, buffer_size=BUFFER,
                    stack=StackConfig(faults=plan),
                )
                for name in names
            ]
            if order_seed is not None:
                random.Random(order_seed).shuffle(queries)
            monkeypatch.setattr(service_broker, "MAX_WAVE", max_wave)
            outcomes = QueryBroker(cache=False).run_batch(queries)
            for outcome in outcomes:
                assert outcome.status == "ok"
                assert (
                    outcome.result.resilience["fault_events"]
                    == reference[outcome.query.algorithm]
                )


# --------------------------------------------------------------------------- #
# bit-identity under recoverable chaos
# --------------------------------------------------------------------------- #


class TestRecoverableChaosEquivalence:
    @pytest.mark.parametrize("plan", RECOVERABLE_PLANS)
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_standalone_bit_identity(self, plan, algorithm):
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        clean = run_join(r, s, spec, algorithm=algorithm, buffer_size=BUFFER)
        faulty = run_join(
            r, s, spec, algorithm=algorithm, buffer_size=BUFFER,
            stack=StackConfig(faults=plan),
        )
        assert clean.resilience is None
        _assert_identical(faulty, clean)
        summary = faulty.resilience
        retry_total = sum(summary["retry_bytes"].values())
        # Retry traffic exists exactly when a byte-burning fault fired,
        # and it never leaks into the primary-lane figures asserted above.
        assert (retry_total > 0) == (_faults_fired(summary) > 0)

    @pytest.mark.parametrize("plan", RECOVERABLE_PLANS)
    def test_broker_wave_bit_identity(self, plan):
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        queries = [
            JoinQuery(
                r, s, spec, algorithm=name, buffer_size=BUFFER,
                stack=StackConfig(faults=plan),
            )
            for name in sorted(ALGORITHMS)
        ]
        outcomes = QueryBroker().run_batch(queries)
        for outcome in outcomes:
            assert outcome.status == "ok" and outcome.error is None
            clean = run_join(
                outcome.query.dataset_r,
                outcome.query.dataset_s,
                outcome.query.spec,
                algorithm=outcome.algorithm,
                buffer_size=outcome.query.buffer_size,
            )
            _assert_identical(outcome.result, clean)

    def test_primary_ledger_fingerprints_survive_faults(self):
        """The broker-captured per-message ledgers of a fault-injected
        execution match a fault-free standalone stack record for record."""
        r, s = _datasets()
        plan = RECOVERABLE_PLANS[0]
        query = JoinQuery(
            r, s, JoinSpec.intersection(), algorithm="upjoin", buffer_size=BUFFER,
            stack=StackConfig(faults=plan),
        )
        (outcome,) = QueryBroker().run_batch([query])
        assert outcome.status == "ok"
        _, _, device = build_session_stack(r, s, buffer_size=BUFFER)
        build_algorithm("upjoin", device, query.spec).run(query.resolved_window())
        assert outcome.ledger_fingerprints == (
            device.servers.r.channel.ledger_fingerprint(),
            device.servers.s.channel.ledger_fingerprint(),
        )

    def test_custom_retry_policy_still_bit_identical(self):
        r, s = _datasets()
        plan = FaultPlan(seed=5, drop_rate=0.25)
        patient = RetryPolicy(max_attempts=12, base_backoff_s=0.01)
        clean = run_join(r, s, JoinSpec.distance(0.03), algorithm="srjoin",
                         buffer_size=BUFFER)
        faulty = run_join(
            r, s, JoinSpec.distance(0.03), algorithm="srjoin", buffer_size=BUFFER,
            stack=StackConfig(faults=plan, retry=patient),
        )
        _assert_identical(faulty, clean)


# --------------------------------------------------------------------------- #
# unrecoverable faults surface typed errors; waves degrade gracefully
# --------------------------------------------------------------------------- #


class TestUnrecoverableFaults:
    def test_disconnect_raises_typed_channel_fault(self):
        r, s = _datasets()
        plan = FaultPlan(seed=2, disconnects=(Disconnect("R", 2),))
        with pytest.raises(ChannelFault) as exc:
            run_join(
                r, s, JoinSpec.distance(0.03), algorithm="mobijoin", buffer_size=BUFFER,
                stack=StackConfig(faults=plan),
            )
        assert exc.value.kind == "disconnect"
        assert not exc.value.recoverable

    def test_long_outage_exhausts_into_server_unavailable(self):
        r, s = _datasets()
        plan = FaultPlan(seed=2, outages=(Outage("S", 0, 10_000),))
        with pytest.raises(ServerUnavailable) as exc:
            run_join(
                r, s, JoinSpec.distance(0.03), algorithm="naive", buffer_size=BUFFER,
                stack=StackConfig(faults=plan),
            )
        assert exc.value.server == "S"
        assert exc.value.kind == "unavailable"

    def test_pure_drop_storm_exhausts_into_retry_exhausted(self):
        r, s = _datasets()
        plan = FaultPlan(seed=2, drop_rate=1.0)
        with pytest.raises(RetryExhausted) as exc:
            run_join(
                r, s, JoinSpec.distance(0.03), algorithm="srjoin", buffer_size=BUFFER,
                stack=StackConfig(faults=plan),
            )
        assert exc.value.last_fault.kind == "drop"

    def test_failed_query_is_isolated_from_its_wave(self):
        r, s = _datasets()
        bad_plan = FaultPlan(seed=2, disconnects=(Disconnect("R", 1),))
        spec = JoinSpec.distance(0.03)
        queries = [
            JoinQuery(r, s, spec, algorithm="upjoin", buffer_size=BUFFER),
            JoinQuery(
                r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
                stack=StackConfig(faults=bad_plan),
            ),
            JoinQuery(r, s, spec, algorithm="mobijoin", buffer_size=BUFFER),
        ]
        broker = QueryBroker()
        outcomes = broker.run_batch(queries)
        assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
        failed = outcomes[1]
        assert failed.result is None
        assert isinstance(failed.error, ChannelFault)
        assert broker.stats.queries_failed == 1
        for outcome in (outcomes[0], outcomes[2]):
            clean = run_join(r, s, spec, algorithm=outcome.algorithm,
                             buffer_size=BUFFER)
            _assert_identical(outcome.result, clean)

    def test_failed_outcome_is_never_cached(self):
        r, s = _datasets()
        plan = FaultPlan(seed=2, disconnects=(Disconnect("R", 1),))
        query = JoinQuery(
            r, s, JoinSpec.distance(0.03), algorithm="srjoin", buffer_size=BUFFER,
            stack=StackConfig(faults=plan),
        )
        broker = QueryBroker()
        first = broker.run_batch([query])[0]
        second = broker.run_batch([query])[0]
        assert first.status == second.status == "failed"
        assert not second.cached
        assert broker.cache.hits == 0


class TestDeadlineBudget:
    STALL_PLAN = FaultPlan(seed=4, stall_rate=1.0, stall_latency_s=1.0)

    def test_standalone_timeout_is_typed(self):
        r, s = _datasets()
        with pytest.raises(QueryTimeout) as exc:
            run_join(
                r, s, JoinSpec.distance(0.03), algorithm="upjoin", buffer_size=BUFFER,
                stack=StackConfig(faults=self.STALL_PLAN, deadline_s=2.5),
            )
        # Back-compat: the typed error still is a stdlib TimeoutError.
        assert isinstance(exc.value, TimeoutError)

    def test_broker_reports_timeout_status(self):
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        queries = [
            JoinQuery(
                r, s, spec, algorithm="upjoin", buffer_size=BUFFER,
                stack=StackConfig(faults=self.STALL_PLAN, deadline_s=2.5),
            ),
            JoinQuery(r, s, spec, algorithm="srjoin", buffer_size=BUFFER),
        ]
        outcomes = QueryBroker().run_batch(queries)
        assert outcomes[0].status == "timeout"
        assert isinstance(outcomes[0].error, QueryTimeout)
        assert outcomes[1].status == "ok"
        _assert_identical(
            outcomes[1].result,
            run_join(r, s, spec, algorithm="srjoin", buffer_size=BUFFER),
        )

    def test_generous_deadline_changes_nothing(self):
        r, s = _datasets()
        clean = run_join(r, s, JoinSpec.distance(0.03), algorithm="srjoin",
                         buffer_size=BUFFER)
        bounded = run_join(
            r, s, JoinSpec.distance(0.03), algorithm="srjoin", buffer_size=BUFFER,
            stack=StackConfig(faults=RECOVERABLE_PLANS[0], deadline_s=10_000.0),
        )
        _assert_identical(bounded, clean)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "make, field",
        [
            (RetryPolicy, "base_backoff_s"),
            (RetryPolicy, "max_backoff_s"),
            (RetryPolicy, "backoff_factor"),
            (FaultPlan, "stall_latency_s"),
        ],
    )
    def test_a_non_finite_duration_is_refused(self, make, field, bad):
        """A NaN backoff or stall made the simulated clock NaN, and a NaN
        clock never crosses a deadline: the budget silently turned off
        (``backoff_factor=nan`` even passed its ``< 1`` check)."""
        with pytest.raises(InvalidInput, match=f"{field} must be finite"):
            make(**{field: bad})

    @pytest.mark.parametrize("bad", [2.5, 0, math.nan, "3"])
    def test_max_attempts_is_a_count(self, bad):
        with pytest.raises(InvalidInput, match="max_attempts must be >= 1 and integral"):
            RetryPolicy(max_attempts=bad)

    def test_a_finite_policy_still_times_out(self):
        r, s = _datasets()
        with pytest.raises(QueryTimeout):
            run_join(
                r, s, JoinSpec.distance(0.03), algorithm="upjoin", buffer_size=BUFFER,
                stack=StackConfig(
                    faults=FaultPlan(seed=2, drop_rate=0.5),
                    retry=RetryPolicy(max_attempts=50, base_backoff_s=0.01),
                    deadline_s=0.01,
                ),
            )


# --------------------------------------------------------------------------- #
# circuit breaker
# --------------------------------------------------------------------------- #


class TestCircuitBreaker:
    OUTAGE = FaultPlan(seed=6, outages=(Outage("R", 0, 10_000),))

    def _queries(self, r, s, *specs_and_plans):
        return [
            JoinQuery(
                r, s, spec, algorithm="naive", buffer_size=BUFFER,
                stack=StackConfig(faults=plan),
            )
            for spec, plan in specs_and_plans
        ]

    def test_open_shed_halfopen_close_cycle(self, monkeypatch):
        r, s = _datasets()
        monkeypatch.setattr(service_broker, "MAX_WAVE", 1)
        monkeypatch.setattr(service_broker, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(service_broker, "BREAKER_COOLDOWN_WAVES", 1)
        broker = QueryBroker(cache=False)
        # Wave 1 fails genuinely -> breaker opens.  Wave 2 is shed without
        # executing.  Wave 3 is the half-open probe; it fails too (same
        # outage plan) -> re-open.
        first = broker.run_batch(self._queries(
            r, s,
            (JoinSpec.distance(0.030), self.OUTAGE),
            (JoinSpec.distance(0.031), self.OUTAGE),
            (JoinSpec.distance(0.032), self.OUTAGE),
        ))
        assert [o.status for o in first] == ["failed"] * 3
        assert isinstance(first[0].error, ServerUnavailable)
        assert first[0].error.kind == "unavailable"
        assert first[1].error.kind == "breaker"
        assert first[2].error.kind == "unavailable"  # the probe executed
        assert broker.stats.breaker_rejections == 1
        # Wave 4: still open (re-opened by the failed probe) -> shed even
        # though the network recovered.  Wave 5: half-open probe succeeds
        # -> breaker closes.  Wave 6: back to normal service.
        second = broker.run_batch(self._queries(
            r, s,
            (JoinSpec.distance(0.033), None),
            (JoinSpec.distance(0.034), None),
            (JoinSpec.distance(0.035), None),
        ))
        assert [o.status for o in second] == ["failed", "ok", "ok"]
        assert second[0].error.kind == "breaker"
        assert broker.stats.breaker_rejections == 2
        clean = run_join(r, s, JoinSpec.distance(0.035), algorithm="naive",
                         buffer_size=BUFFER)
        _assert_identical(second[2].result, clean)

    def test_breaker_fast_fail_does_not_count_as_server_failure(self, monkeypatch):
        """Shed queries must not extend the outage window themselves."""
        r, s = _datasets()
        monkeypatch.setattr(service_broker, "MAX_WAVE", 1)
        monkeypatch.setattr(service_broker, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(service_broker, "BREAKER_COOLDOWN_WAVES", 3)
        broker = QueryBroker(cache=False)
        outcomes = broker.run_batch(self._queries(
            r, s,
            (JoinSpec.distance(0.030), self.OUTAGE),
            (JoinSpec.distance(0.031), None),
            (JoinSpec.distance(0.032), None),
            (JoinSpec.distance(0.033), None),
            (JoinSpec.distance(0.034), None),
        ))
        # Waves 2..4 shed; wave 5 probes (cooldown over) and closes.
        assert [o.status for o in outcomes] == [
            "failed", "failed", "failed", "failed", "ok"
        ]
        assert all(o.error.kind == "breaker" for o in outcomes[1:4])
        assert broker.stats.breaker_rejections == 3

    @pytest.mark.parametrize("threshold", [1, 2, 3, 4])
    def test_the_breaker_opens_at_its_threshold(self, threshold, monkeypatch):
        """``BREAKER_THRESHOLD`` is read when a failure is booked: exactly
        that many queries fail against the server before it is shed."""
        r, s = _datasets()
        monkeypatch.setattr(service_broker, "MAX_WAVE", 1)
        monkeypatch.setattr(service_broker, "BREAKER_THRESHOLD", threshold)
        monkeypatch.setattr(service_broker, "BREAKER_COOLDOWN_WAVES", 10)
        broker = QueryBroker(cache=False)
        outcomes = broker.run_batch(self._queries(
            r, s,
            *((JoinSpec.distance(0.030 + 0.001 * i), self.OUTAGE) for i in range(threshold + 2)),
        ))
        assert [o.error.kind for o in outcomes] == (
            ["unavailable"] * threshold + ["breaker"] * 2
        )
        assert broker.stats.breaker_rejections == 2

    @pytest.mark.parametrize("cooldown", [1, 2, 3, 4])
    def test_an_open_breaker_sheds_for_its_cooldown(self, cooldown, monkeypatch):
        """``BREAKER_COOLDOWN_WAVES`` is read when the breaker opens: that
        many waves are shed, and the next one probes and closes it."""
        r, s = _datasets()
        monkeypatch.setattr(service_broker, "MAX_WAVE", 1)
        monkeypatch.setattr(service_broker, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(service_broker, "BREAKER_COOLDOWN_WAVES", cooldown)
        broker = QueryBroker(cache=False)
        outcomes = broker.run_batch(self._queries(
            r, s,
            (JoinSpec.distance(0.030), self.OUTAGE),
            *((JoinSpec.distance(0.031 + 0.001 * i), None) for i in range(cooldown + 1)),
        ))
        assert [o.status for o in outcomes] == ["failed"] * (cooldown + 1) + ["ok"]
        assert [o.error.kind for o in outcomes[1:-1]] == ["breaker"] * cooldown
        assert broker.stats.breaker_rejections == cooldown

    @pytest.mark.parametrize("knob", ["max_entries", "max_bytes"])
    @pytest.mark.parametrize("bad", [2.5, 1.5, 0, math.nan, math.inf, "2"])
    def test_cache_counts_are_checked_at_construction(self, knob, bad):
        """A result cache's bounds are counts or ``None`` (unbounded)."""
        with pytest.raises(InvalidInput, match=f"{knob} must be >= 1"):
            ResultCache(**{knob: bad})
        assert ResultCache(**{knob: 2}) is not None
        ResultCache(**{knob: None})


class TestBrokerBounds:
    """The broker's admission width and result-cache entry cap are module
    constants, read when a batch runs or a broker is built."""

    SPECS = tuple(JoinSpec.distance(0.030 + 0.001 * i) for i in range(6))

    def _queries(self, r, s, specs):
        return [JoinQuery(r, s, spec, algorithm="naive", buffer_size=BUFFER) for spec in specs]

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 6, 16])
    def test_a_batch_runs_in_waves_of_the_admission_width(self, width, monkeypatch):
        r, s = _datasets()
        monkeypatch.setattr(service_broker, "MAX_WAVE", width)
        broker = QueryBroker(cache=False)
        outcomes = broker.run_batch(self._queries(r, s, self.SPECS))
        assert broker.stats.waves == math.ceil(len(self.SPECS) / width)
        for spec, outcome in zip(self.SPECS, outcomes):
            assert outcome.status == "ok", outcome.error
            _assert_identical(
                outcome.result,
                run_join(r, s, spec, algorithm="naive", buffer_size=BUFFER),
            )

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_the_result_cache_keeps_its_entry_cap(self, cap, monkeypatch):
        r, s = _datasets()
        monkeypatch.setattr(service_broker, "CACHE_MAX_ENTRIES", cap)
        broker = QueryBroker()
        specs = self.SPECS[:4]
        broker.run_batch(self._queries(r, s, specs))
        assert broker.cache.max_entries == cap
        assert len(broker.cache) == cap
        # The newest ``cap`` results are served warm; the oldest was evicted
        # and executes again.
        executed = broker.stats.queries_executed
        broker.run_batch(self._queries(r, s, specs[-cap:]))
        assert broker.stats.queries_executed == executed
        assert broker.stats.cache_hits == cap
        broker.run_batch(self._queries(r, s, specs[:1]))
        assert broker.stats.queries_executed == executed + 1


# --------------------------------------------------------------------------- #
# suspended runs (a driver that stops sending closes the generator)
# --------------------------------------------------------------------------- #


class TestResumableRounds:
    """A cooperative run suspended at a step is left by closing it: ``close()``
    reaches the innermost step generator through every ``yield from``."""

    def test_closing_a_suspended_run_closes_its_spans(self):
        """The broker isolates a failed query by closing its generator: the
        "join" span must close with it, not at garbage collection."""
        r, s = _datasets()
        tracer = Tracer()
        _, _, device = build_session_stack(r, s, buffer_size=BUFFER, tracer=tracer)
        algo = build_algorithm("upjoin", device, JoinSpec.distance(0.03))
        gen = algo.run_cooperative(r.bounds().union(s.bounds()))

        def first_step_only():
            gen.send((yield next(gen)))

        run_steps(first_step_only(), device.servers)
        gen.close()
        assert tracer.spans() and all(span.wall_end is not None for span in tracer.spans())

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_a_failed_standalone_run_closes_its_spans_before_it_raises(self, algorithm):
        """Every exchange stalls past the deadline: ``run`` raises
        :class:`QueryTimeout` with the run's generator already closed, so no
        span stays open while the caller holds the error, whose traceback
        reaches the driver's frames."""
        from repro.api import AdHocJoinSession

        tracer = Tracer()
        session = AdHocJoinSession(
            uniform(2000, seed=1),
            clustered(2000, 8, seed=2),
            buffer_size=100,
            faults=FaultPlan(seed=4, stall_rate=1.0, stall_latency_s=1.0),
            deadline_s=2.5,
            tracer=tracer,
        )
        with pytest.raises(QueryTimeout) as raised:
            session.run(algorithm=algorithm, epsilon=0.005)
        assert raised.value is not None  # still held
        spans = tracer.spans()
        assert "join" in {span.name for span in spans}
        assert [span.name for span in spans if span.wall_end is None] == []


# --------------------------------------------------------------------------- #
# session reuse
# --------------------------------------------------------------------------- #


class TestSessionReuse:
    """A reused :class:`AdHocJoinSession` must be indistinguishable from a
    fresh one: :meth:`AdHocJoinSession.run` resets the resilience
    controller, so every run re-instantiates the fault plan from its seed
    and draws the very same deterministic fault streams."""

    def test_reused_session_replays_identical_fault_streams(self):
        from repro.api import AdHocJoinSession

        r, s = _datasets()
        plan = RECOVERABLE_PLANS[0]
        session = AdHocJoinSession(r, s, buffer_size=BUFFER, faults=plan)
        first = session.run("upjoin", epsilon=0.03)
        reused = session.run("upjoin", epsilon=0.03)
        fresh = AdHocJoinSession(r, s, buffer_size=BUFFER, faults=plan).run(
            "upjoin", epsilon=0.03
        )
        _assert_identical(reused, first)
        _assert_identical(fresh, first)
        # The fault *streams* replay too, not just the primary-lane
        # metering: same events, same retry-lane bytes, run after run.
        assert reused.resilience["fault_events"] == first.resilience["fault_events"]
        assert reused.resilience["retry_bytes"] == first.resilience["retry_bytes"]
        assert fresh.resilience["fault_events"] == first.resilience["fault_events"]
        assert _faults_fired(first.resilience) > 0

    def test_reused_session_interleaves_algorithms_without_bleed(self):
        from repro.api import AdHocJoinSession

        r, s = _datasets()
        plan = RECOVERABLE_PLANS[1]
        session = AdHocJoinSession(
            r, s, buffer_size=BUFFER, faults=plan,
            shards_r=2, shards_s=3,
        )
        before = session.run("srjoin", epsilon=0.03)
        session.run("mobijoin", epsilon=0.03)  # perturbs all counters
        after = session.run("srjoin", epsilon=0.03)
        _assert_identical(after, before)
        assert after.resilience["fault_events"] == before.resilience["fault_events"]
