"""Replicated shard fleets: routing, mid-query failover, breaker hygiene.

The replication invariant of PR 9, exercised end to end:

* **Bit-identity.**  Publishing every shard on R replicas -- and failing
  lost exchanges over to sibling replicas mid-query -- never changes what
  a query measures.  Under any recoverable fault plan, pairs,
  primary-lane bytes, statistics, decision traces and the merged
  shard-level ledger fingerprints are bit-identical to the fault-free
  unreplicated run, standalone and brokered.
* **One replica order.**  A replicated shard tries its replicas probe
  first, then healthy, then failed this query, then down, by index within
  a rank; the backing evaluation runs on the head of that order.
* **Graceful degradation.**  Only when *every* replica of a shard is
  unavailable does the query surface a typed
  :class:`~repro.errors.ServerUnavailable`; in a broker wave the failed
  query is isolated and its neighbours complete untouched.
* **Breaker-per-replica.**  Failovers charge the losing replica's
  breaker; a cooling replica is routed around without shedding the
  query, the half-open probe is routed *to* the recovering replica, and
  only a shard whose replicas are all cooling sheds.
* **Satellites.**  The device's response-time estimate sums over replica
  channels, and the result cache's byte budget evicts by size.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core.join_types import JoinSpec
from repro.core.planner import (
    StackConfig,
    build_algorithm,
    build_session_stack,
    run_join,
)
from repro.core.result import JoinResult
from repro.datasets.synthetic import clustered
from repro.errors import QueryTimeout, ServerUnavailable
from repro.geometry.rect import Rect
from repro.network.channel import Channel
from repro.network.config import NetworkConfig
from repro.network.faults import FaultPlan, Outage, replica_outages
from repro.server import ShardedSpatialServer, SpatialServer
from repro.server.remote import RemoteServer, ResilienceController, ServerPair
from repro.service import JoinQuery, QueryBroker
from repro.service import broker as service_broker
from repro.service.cache import ResultCache, result_weight

pytestmark = pytest.mark.chaos

BUFFER = 96
EPSILON = 0.03

#: Recoverable chaos at rates the default retry budget absorbs (mirrors
#: the chaos suite's plans).
RECOVERABLE_PLAN = FaultPlan(
    seed=3, drop_rate=0.10, stall_rate=0.08, duplicate_rate=0.08
)

#: Non-indexed algorithms that support fleets (semijoin must stay plain).
FLEET_ALGORITHMS = ["upjoin", "srjoin", "mobijoin"]


def _datasets(n: int = 110):
    return (
        clustered(n=n, clusters=3, seed=11, name="R"),
        clustered(n=n, clusters=4, seed=12, std=0.04, name="S"),
    )


def _trace_tuples(result) -> List[tuple]:
    return [
        (e.depth, e.action, e.detail, e.count_r, e.count_s, e.window.as_tuple())
        for e in result.trace
    ]


def _strip_replicas(snapshot):
    """Channel stats minus the per-replica detail lists.

    The split of one shard's primary traffic across its replicas is
    exactly the part failover is allowed to move; everything else --
    shard-level sums, names, costs -- must stay bit-identical to the
    unreplicated run.
    """
    if isinstance(snapshot, dict):
        return {
            key: _strip_replicas(value)
            for key, value in snapshot.items()
            if key != "replicas"
        }
    if isinstance(snapshot, (list, tuple)):
        return [_strip_replicas(item) for item in snapshot]
    return snapshot


def _assert_identical(result, reference) -> None:
    """Everything the paper measures, bit for bit (resilience summary and
    per-replica traffic split excluded -- those are exactly what faults
    and failover are allowed to change)."""
    assert result.sorted_pairs() == reference.sorted_pairs()
    assert result.objects == reference.objects
    assert result.total_bytes == reference.total_bytes
    assert result.bytes_r == reference.bytes_r
    assert result.bytes_s == reference.bytes_s
    assert result.total_cost == reference.total_cost
    # Record-additive, but accumulated per channel: splitting one shard's
    # traffic across replica channels reorders the float summation.
    assert result.estimated_time_s == pytest.approx(
        reference.estimated_time_s, rel=1e-9
    )
    assert result.operator_counts == reference.operator_counts
    assert result.server_stats == reference.server_stats
    assert _strip_replicas(result.channel_stats) == _strip_replicas(
        reference.channel_stats
    )
    assert result.buffer_high_water_mark == reference.buffer_high_water_mark
    assert _trace_tuples(result) == _trace_tuples(reference)


def _fingerprints(device):
    return (
        device.servers.r.ledger_fingerprint(),
        device.servers.s.ledger_fingerprint(),
    )


def _run_stack(r, s, algorithm, **stack_kwargs):
    """Run one algorithm over a fresh session stack; returns
    ``(result, device)`` so tests can read fingerprints off the
    connections."""
    _, _, device = build_session_stack(
        r, s, buffer_size=BUFFER, stack=StackConfig(**stack_kwargs)
    )
    algo = build_algorithm(algorithm, device, JoinSpec.distance(EPSILON))
    window = r.bounds().union(s.bounds())
    return algo.run(window), device


# --------------------------------------------------------------------------- #
# fleet construction invariants
# --------------------------------------------------------------------------- #


class TestReplicatedFleetConstruction:
    def test_replica_naming_and_groups(self):
        r, _ = _datasets()
        fleet = ShardedSpatialServer(r, name="R", shards=3, replicas=2)
        assert fleet.shard_names == ("R#0", "R#1", "R#2")
        assert [
            [rep.name for rep in group] for group in fleet.replica_groups
        ] == [["R#0/0", "R#0/1"], ["R#1/0", "R#1/1"], ["R#2/0", "R#2/1"]]
        # The primaries drive bounds routing and batch evaluation.
        assert tuple(group[0] for group in fleet.replica_groups) == fleet.shards
        assert "replicas=2" in repr(fleet)

    def test_replicas_share_one_dataset_build(self):
        r, _ = _datasets()
        fleet = ShardedSpatialServer(r, name="R", shards=2, replicas=3)
        for group in fleet.replica_groups:
            primary = group[0]
            for sibling in group[1:]:
                # One immutable shard build, shared by identity: a replica
                # is, like every server, its name and its index.
                assert set(vars(sibling)) == set(vars(primary)) == {"name", "index"}
                assert sibling.index is primary.index

    def test_replicas_are_distinct_breaker_units(self):
        r, _ = _datasets()
        fleet = ShardedSpatialServer(r, name="R", shards=2, replicas=2)
        units = fleet.breaker_units()
        assert len({id(unit) for unit in units}) == len(units) == 4
        assert fleet.breaker_groups() == fleet.replica_groups

    def test_unreplicated_fleet_keeps_plain_shard_names(self):
        r, _ = _datasets()
        fleet = ShardedSpatialServer(r, name="R", shards=2, replicas=1)
        assert [rep.name for group in fleet.replica_groups for rep in group] == [
            "R#0", "R#1"
        ]

    def test_connections_count_per_replica_and_share_the_build(self):
        """Two connections to one fleet keep their own per-replica
        statistics; the fleet and its replicas are shared as they are."""
        r, _ = _datasets()
        fleet = ShardedSpatialServer(r, name="R", shards=2, replicas=2)
        pair = ServerPair.connect(fleet, fleet)
        first, second = pair.r, pair.s
        assert first.backing_server is second.backing_server is fleet
        first.count_batch([fleet.dataset.bounds()])
        names = [unit.name for unit in fleet.breaker_units()]
        assert list(first.replica_stats()) == list(second.replica_stats()) == names
        assert first.server_stats()["count_queries"] == 2  # one per shard
        assert not any(second.server_stats().values())

    def test_validation(self):
        r, _ = _datasets(n=10)
        with pytest.raises(ValueError):
            ShardedSpatialServer(r, name="R", shards=2, replicas=0)
        with pytest.raises(ValueError):
            JoinQuery(r, r, JoinSpec.distance(EPSILON), stack=StackConfig(replicas=0))

    def test_replica_outages_helper(self):
        outs = replica_outages("R#0", 3, 5, 100)
        assert [o.server for o in outs] == ["R#0/0", "R#0/1", "R#0/2"]
        assert all((o.start, o.length) == (5, 100) for o in outs)
        picked = replica_outages("R#0", 3, 0, 10, indices=[2])
        assert [o.server for o in picked] == ["R#0/2"]
        with pytest.raises(ValueError):
            replica_outages("R#0", 0, 0, 10)
        with pytest.raises(ValueError):
            replica_outages("R#0", 2, 0, 10, indices=[2])

    def test_semijoin_rejects_replication(self):
        r, s = _datasets(n=30)
        spec = JoinSpec.distance(EPSILON)
        with pytest.raises(ValueError):
            run_join(
                r, s, spec, algorithm="semijoin", buffer_size=BUFFER,
                stack=StackConfig(replicas=2),
            )
        with pytest.raises(ValueError):  # unconstructible, so never submitted
            JoinQuery(
                r, s, spec, algorithm="semijoin", buffer_size=BUFFER,
                stack=StackConfig(replicas=2),
            )


# --------------------------------------------------------------------------- #
# bit-identity: replicated == unreplicated, fault-free and under chaos
# --------------------------------------------------------------------------- #


class TestReplicationBitIdentity:
    @pytest.mark.parametrize("algorithm", FLEET_ALGORITHMS)
    def test_fault_free_replication_is_invisible(self, algorithm):
        r, s = _datasets()
        spec = JoinSpec.distance(EPSILON)
        plain = run_join(
            r, s, spec, algorithm=algorithm, buffer_size=BUFFER,
            stack=StackConfig(shards_r=2, shards_s=2),
        )
        replicated = run_join(
            r, s, spec, algorithm=algorithm, buffer_size=BUFFER,
            stack=StackConfig(shards_r=2, shards_s=2, replicas=2),
        )
        _assert_identical(replicated, plain)

    @pytest.mark.parametrize("algorithm", FLEET_ALGORITHMS)
    def test_recoverable_chaos_pins_to_unreplicated_fault_free(self, algorithm):
        """The acceptance invariant: R >= 2 under a recoverable plan ==
        the fault-free unreplicated run, merged fingerprints included."""
        r, s = _datasets()
        clean, clean_dev = _run_stack(r, s, algorithm, shards_r=2, shards_s=2)
        stormy, stormy_dev = _run_stack(
            r, s, algorithm, shards_r=2, shards_s=2, replicas=2,
            faults=RECOVERABLE_PLAN,
        )
        _assert_identical(stormy, clean)
        # The merged shard-level fingerprints splice each exchange's
        # primary records back into issue order, so they are replica- and
        # failover-agnostic: record for record the unreplicated ledger.
        assert _fingerprints(stormy_dev) == _fingerprints(clean_dev)
        assert stormy.resilience is not None

    def test_three_replicas_under_chaos_are_bit_identical(self):
        r, s = _datasets()
        clean, clean_dev = _run_stack(r, s, "srjoin", shards_r=2, shards_s=2)
        routed, routed_dev = _run_stack(
            r, s, "srjoin", shards_r=2, shards_s=2, replicas=3,
            faults=RECOVERABLE_PLAN,
        )
        _assert_identical(routed, clean)
        assert _fingerprints(routed_dev) == _fingerprints(clean_dev)

    def test_brokered_replication_bit_identity(self):
        r, s = _datasets()
        spec = JoinSpec.distance(EPSILON)
        (ref,) = QueryBroker(cache=False).run_batch([
            JoinQuery(
                r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
                stack=StackConfig(shards_r=2, shards_s=2),
            )
        ])
        queries = [
            JoinQuery(
                r, s, JoinSpec.distance(EPSILON), algorithm=name, buffer_size=BUFFER,
                stack=StackConfig(
                    shards_r=2, shards_s=2, replicas=2, faults=RECOVERABLE_PLAN
                ),
            )
            for name in FLEET_ALGORITHMS
        ]
        outcomes = QueryBroker(cache=False).run_batch(queries)
        assert [o.status for o in outcomes] == ["ok"] * len(queries)
        srjoin = next(o for o in outcomes
                      if o.query.algorithm == "srjoin")
        _assert_identical(srjoin.result, ref.result)
        assert srjoin.ledger_fingerprints == ref.ledger_fingerprints

    def test_replication_keys_the_result_cache(self):
        """The replication factor is part of the cache key: per-replica
        ledger detail differs, so runs must not share entries."""
        r, s = _datasets()
        spec = JoinSpec.distance(EPSILON)
        broker = QueryBroker(cache=True)
        first = broker.run_batch([
            JoinQuery(
                r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
                stack=StackConfig(shards_r=2, shards_s=2),
            )
        ])[0]
        again, replicated = broker.run_batch([
            JoinQuery(
                r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
                stack=StackConfig(shards_r=2, shards_s=2),
            ),
            JoinQuery(
                r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
                stack=StackConfig(shards_r=2, shards_s=2, replicas=2),
            ),
        ])
        assert again.cached and first.result is again.result
        assert not replicated.cached
        assert replicated.result.sorted_pairs() == first.result.sorted_pairs()


# --------------------------------------------------------------------------- #
# the one replica order
# --------------------------------------------------------------------------- #


class TestReplicaOrder:
    """Probe < healthy < failed this query < down, by index within a rank."""

    NAMES = ("R#0/0", "R#0/1", "R#0/2")
    WINDOW = Rect(0.0, 0.0, 1.0, 1.0)

    def _proxy(self, dead=(), brief=()):
        """A shard on three replicas; the replicas in ``dead`` never answer,
        those in ``brief`` miss their first exchange only."""
        r, _ = _datasets(n=40)
        primary = SpatialServer(r, name=self.NAMES[0])
        replicas = [primary] + [primary.replica_view(name) for name in self.NAMES[1:]]
        attempts = ResilienceController().retry.max_attempts
        plan = FaultPlan(
            seed=3,
            outages=tuple(Outage(self.NAMES[i], 0, 10**9) for i in dead)
            + tuple(Outage(self.NAMES[i], 0, attempts) for i in brief),
        )
        resilience = ResilienceController(plan)
        channels = [Channel(NetworkConfig(), name=name) for name in self.NAMES]
        proxy = RemoteServer(replicas, channels, resilience=resilience, name="R#0")
        return proxy, replicas

    @staticmethod
    def _head_evaluates(proxy, replicas) -> None:
        """The backing evaluation runs on the head of the order."""
        head = list(proxy._tried)[0]
        assert proxy.backing_server is replicas[head]
        before = [stats["count_queries"] for stats in proxy.replica_stats().values()]
        proxy.count_batch([TestReplicaOrder.WINDOW])
        after = [stats["count_queries"] for stats in proxy.replica_stats().values()]
        assert [b - a for a, b in zip(before, after)] == [int(i == head) for i in range(3)]

    def test_nothing_marked_keeps_index_order(self):
        proxy, replicas = self._proxy()
        assert list(proxy._tried) == [0, 1, 2]
        self._head_evaluates(proxy, replicas)
        # A verdict for a replica of another shard changes nothing.
        proxy.apply_health({"R#1/0": "down", "S#0/2": "probe"})
        assert list(proxy._tried) == [0, 1, 2]

    def test_probe_comes_first_and_down_comes_last(self):
        proxy, replicas = self._proxy()
        proxy.apply_health({"R#0/0": "down", "R#0/2": "probe"})
        assert list(proxy._tried) == [2, 1, 0]
        self._head_evaluates(proxy, replicas)
        # A later verdict replaces an earlier one.
        proxy.apply_health({"R#0/0": "probe", "R#0/2": "down"})
        assert list(proxy._tried) == [0, 1, 2]

    def test_a_failed_replica_sinks_below_the_healthy_ones(self):
        proxy, replicas = self._proxy(dead=[0])
        proxy.count_batch([self.WINDOW])
        assert [event[1] for event in proxy.failover_events()] == ["R#0/0"]
        assert list(proxy._tried) == [1, 2, 0]
        self._head_evaluates(proxy, replicas)
        # Failing this query outranks a probe verdict; only down sinks lower.
        proxy.apply_health({"R#0/0": "probe"})
        assert list(proxy._tried) == [1, 2, 0]
        proxy.apply_health({"R#0/1": "down"})
        assert list(proxy._tried) == [2, 0, 1]

    def test_a_failed_replica_that_carries_an_exchange_is_healthy_again(self):
        proxy, replicas = self._proxy(dead=[0], brief=[1])
        proxy.apply_health({"R#0/2": "down"})
        proxy.count_batch([self.WINDOW])  # 0 and 1 fail, the down replica carries it
        assert list(proxy._tried) == [0, 1, 2]
        proxy.count_batch([self.WINDOW])  # 0 fails again, 1 is back
        assert [event[1] for event in proxy.failover_events()] == ["R#0/0", "R#0/1", "R#0/0"]
        assert list(proxy._tried) == [1, 0, 2]
        self._head_evaluates(proxy, replicas)

    def test_ties_break_by_index(self):
        proxy, replicas = self._proxy(dead=[0, 1])
        proxy.count_batch([self.WINDOW])
        assert list(proxy._tried) == [2, 0, 1]
        proxy.apply_health({"R#0/1": "probe", "R#0/2": "probe"})
        assert list(proxy._tried) == [2, 0, 1]
        proxy.apply_health({"R#0/2": "down"})
        assert list(proxy._tried) == [0, 1, 2]
        self._head_evaluates(proxy, replicas)

    def test_reset_forgets_failures_but_keeps_broker_marks(self):
        proxy, replicas = self._proxy(dead=[0])
        proxy.count_batch([self.WINDOW])
        proxy.apply_health({"R#0/2": "probe"})
        assert list(proxy._tried) == [2, 1, 0]
        proxy.reset_channels()
        assert list(proxy._tried) == [2, 0, 1]
        assert proxy.failover_events() == ()
        self._head_evaluates(proxy, replicas)

    @staticmethod
    def _lone(name, plan, deadline_s=None, shard=None):
        """A set of one: a plain server (or a shard's only replica)."""
        r, _ = _datasets(n=40)
        server = SpatialServer(r, name=name)
        channel = Channel(NetworkConfig(), name=name)
        resilience = ResilienceController(plan, deadline_s=deadline_s)
        resilience.register(channel)
        proxy = RemoteServer((server,), (channel,), resilience=resilience, name=shard)
        return proxy, server, channel, resilience

    def test_a_lone_replica_has_nothing_to_fail_over_to(self):
        dead = FaultPlan(seed=3, outages=(Outage("R#0/0", 0, 10**9),))
        proxy, _, _, resilience = self._lone("R#0/0", dead, shard="R#0")
        assert list(proxy._tried) == [0]
        proxy.apply_health({"R#0/0": "down"})
        assert list(proxy._tried) == [0]
        with pytest.raises(ServerUnavailable) as info:
            proxy.count_batch([self.WINDOW])
        # The replica's own verdict, not a shard-level one.
        assert (info.value.server, info.value.kind) == ("R#0/0", "unavailable")
        assert info.value.op_index is not None
        assert proxy.failover_events() == ()
        assert resilience.summary()["failovers"] == 0
        assert list(proxy._tried) == [0]

    def test_a_plain_server_is_a_set_of_one(self):
        chaos = FaultPlan(seed=5, drop_rate=0.2, stall_rate=0.2, duplicate_rate=0.2)
        proxy, server, channel, resilience = self._lone("R", chaos)
        assert proxy.name == "R" and proxy.channels == (channel,)
        proxy.count_batch([self.WINDOW, Rect(0.2, 0.2, 0.6, 0.6)])
        proxy.window_batch_flat([self.WINDOW])
        assert resilience.summary()["retries"] and not resilience.summary()["failovers"]
        assert proxy.ledger_fingerprint() == channel.ledger_fingerprint()
        assert proxy.channel_snapshot() == channel.snapshot()
        assert proxy.server_stats() == proxy.replica_stats()[server.name]
        assert (proxy.total_bytes(), proxy.total_cost()) == (channel.total_bytes, channel.total_cost)

    def test_a_stall_past_the_deadline_stays_on_the_merged_ledger(self):
        stall = FaultPlan(seed=5, stall_rate=1.0, stall_latency_s=1.0)
        proxy, _, channel, _ = self._lone("R", stall, deadline_s=0.5)
        with pytest.raises(QueryTimeout):
            proxy.count_batch([self.WINDOW])
        assert channel.messages_up == 1  # the stalled exchange was delivered
        assert proxy.ledger_fingerprint() == channel.ledger_fingerprint()


# --------------------------------------------------------------------------- #
# failover and graceful degradation
# --------------------------------------------------------------------------- #


class TestFailover:
    @pytest.mark.parametrize("replicas, killed", [(2, 1), (3, 1), (3, 2)])
    def test_replica_killed_mid_query_fails_over_without_drift(
        self, replicas, killed
    ):
        r, s = _datasets()
        clean, clean_dev = _run_stack(r, s, "srjoin", shards_r=2, shards_s=2)
        survived, survived_dev = _run_stack(
            r, s, "srjoin", shards_r=2, shards_s=2, replicas=replicas,
            faults=FaultPlan(
                seed=3,
                outages=replica_outages(
                    "R#0", replicas, 0, 10_000, indices=range(killed)
                ),
            ),
        )
        _assert_identical(survived, clean)
        assert _fingerprints(survived_dev) == _fingerprints(clean_dev)
        # Every lost exchange is ledgered as a failover off a dead
        # replica, and the surviving siblings carried all of the shard's
        # traffic.
        summary = survived.resilience
        assert summary["failovers"] > 0
        dead = {f"R#0/{index}" for index in range(killed)}
        assert all(
            event[0] == "R#0" and event[1] in dead
            for event in summary["failover_events"]
        )

    @pytest.mark.parametrize("replicas", [2, 3])
    def test_all_replicas_down_fails_typed(self, replicas):
        r, s = _datasets()
        with pytest.raises(ServerUnavailable) as exc_info:
            _run_stack(
                r, s, "srjoin", shards_r=2, shards_s=2, replicas=replicas,
                faults=FaultPlan(
                    seed=3, outages=replica_outages("R#0", replicas, 0, 10_000)
                ),
            )
        err = exc_info.value
        assert err.server == "R#0"
        assert err.kind == "unavailable"
        assert err.recoverable

    def test_failed_query_is_isolated_from_its_wave(self):
        r, s = _datasets()
        spec = JoinSpec.distance(EPSILON)
        (ref,) = QueryBroker(cache=False).run_batch([
            JoinQuery(
                r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
                stack=StackConfig(shards_r=2, shards_s=2),
            )
        ])
        doomed = JoinQuery(
            r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
            stack=StackConfig(
                shards_r=2, shards_s=2, replicas=2,
                faults=FaultPlan(seed=3, outages=replica_outages("R#0", 2, 0, 10_000)),
            ),
        )
        survivor = JoinQuery(
            r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
            stack=StackConfig(
                shards_r=2, shards_s=2, replicas=2,
                faults=FaultPlan(
                    seed=3, outages=replica_outages("R#0", 2, 0, 10_000, indices=[0])
                ),
            ),
        )
        failed, survived = QueryBroker(cache=False).run_batch(
            [doomed, survivor]
        )
        assert failed.status == "failed"
        assert isinstance(failed.error, ServerUnavailable)
        assert failed.error.server == "R#0"
        assert failed.result is None
        assert survived.status == "ok"
        _assert_identical(survived.result, ref.result)
        assert survived.ledger_fingerprints == ref.ledger_fingerprints

    def test_each_replica_of_a_shard_is_its_own_breaker_unit(self, monkeypatch):
        """A lost replica charges its own breaker, keyed by the cached
        build's replica itself; its sibling and the other shards stay
        clean."""
        r, s = _datasets()
        monkeypatch.setattr(service_broker, "MAX_WAVE", 1)
        monkeypatch.setattr(service_broker, "BREAKER_THRESHOLD", 1)
        broker = QueryBroker(cache=False)
        kill0 = FaultPlan(
            seed=3, outages=replica_outages("R#0", 2, 0, 10_000, indices=[0])
        )
        (outcome,) = broker.run_batch([self._query(r, s, 0.030, faults=kill0)])
        assert outcome.status == "ok" and outcome.result.resilience["failovers"]
        ((fleet_r, _),) = broker._servers.values()
        assert list(broker._breakers) == [fleet_r.replica_groups[0][0]]

    def _query(self, r, s, eps, faults=None, **kwargs):
        kwargs.setdefault("buffer_size", BUFFER)
        return JoinQuery(
            r, s, JoinSpec.distance(eps), algorithm="srjoin", **kwargs,
            stack=StackConfig(shards_r=2, shards_s=2, replicas=2, faults=faults),
        )

    @staticmethod
    def _shard_bytes(outcome, shard):
        """Per-replica primary bytes of one R-side shard."""
        return {
            rep["name"]: rep["uplink_bytes"] + rep["downlink_bytes"]
            for snap in outcome.result.channel_stats["R"]["shards"]
            for rep in snap.get("replicas", ())
            if rep["name"].startswith(shard)
        }

    def test_cooling_replica_is_routed_around_then_probed(self, monkeypatch):
        """Losing one replica opens only its own breaker: the next wave
        routes around the cooling replica (no shed), the wave after sends
        the half-open probe to the recovering replica, and success closes
        the breaker."""
        r, s = _datasets()
        monkeypatch.setattr(service_broker, "MAX_WAVE", 1)
        monkeypatch.setattr(service_broker, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(service_broker, "BREAKER_COOLDOWN_WAVES", 1)
        broker = QueryBroker(cache=False)
        kill0 = FaultPlan(
            seed=3, outages=replica_outages("R#0", 2, 0, 10_000, indices=[0])
        )
        outcomes = broker.run_batch([
            self._query(r, s, 0.030, faults=kill0),  # opens R#0/0's breaker
            self._query(r, s, 0.031),                # cooling -> routed around
            self._query(r, s, 0.032),                # half-open probe
            self._query(r, s, 0.033),                # closed again
        ])
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert broker.stats.breaker_rejections == 0
        by_wave = [self._shard_bytes(o, "R#0") for o in outcomes]
        # Waves 1-2: the dead/cooling replica carries nothing.
        assert by_wave[0]["R#0/0"] == 0 and by_wave[0]["R#0/1"] > 0
        assert by_wave[1]["R#0/0"] == 0 and by_wave[1]["R#0/1"] > 0
        # Wave 3: the probe is routed *to* the recovering replica.
        assert by_wave[2]["R#0/0"] > 0 and by_wave[2]["R#0/1"] == 0
        # Wave 4: breaker closed, healthy-first order restored.
        assert by_wave[3]["R#0/0"] > 0 and by_wave[3]["R#0/1"] == 0

    def test_shard_sheds_only_when_every_replica_is_cooling(self, monkeypatch):
        r, s = _datasets()
        monkeypatch.setattr(service_broker, "MAX_WAVE", 1)
        monkeypatch.setattr(service_broker, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(service_broker, "BREAKER_COOLDOWN_WAVES", 1)
        broker = QueryBroker(cache=False)
        kill_all = FaultPlan(
            seed=3, outages=replica_outages("R#0", 2, 0, 10_000)
        )
        outcomes = broker.run_batch([
            self._query(r, s, 0.030, faults=kill_all),
            self._query(r, s, 0.031),   # both replicas cooling -> shed
            self._query(r, s, 0.032),   # half-open probes -> recovered
            self._query(r, s, 0.033),
        ])
        assert [o.status for o in outcomes] == ["failed", "failed", "ok", "ok"]
        assert outcomes[0].error.kind == "unavailable"
        assert outcomes[1].error.kind == "breaker"
        assert outcomes[1].error.server == "R#0"
        assert "every replica" in str(outcomes[1].error)
        assert broker.stats.breaker_rejections == 1


# --------------------------------------------------------------------------- #
# satellite: device response-time estimate over replica channels
# --------------------------------------------------------------------------- #


class TestEstimatedResponseTime:
    def test_estimate_sums_over_replica_channels(self):
        """The estimate walks every replica channel, so traffic that
        failed over to a sibling replica is still counted -- the faulted
        replicated run estimates exactly like the fault-free plain run."""
        r, s = _datasets()
        clean, clean_dev = _run_stack(r, s, "srjoin", shards_r=2, shards_s=2)
        killed, killed_dev = _run_stack(
            r, s, "srjoin", shards_r=2, shards_s=2, replicas=2,
            faults=FaultPlan(
                seed=3,
                outages=replica_outages("R#0", 2, 0, 10_000, indices=[0]),
            ),
        )
        # One channel per replica on each side's connection.
        assert len(list(killed_dev.servers.r.channels)) == 4
        assert len(list(clean_dev.servers.r.channels)) == 2
        assert killed_dev.estimated_response_time() == pytest.approx(
            clean_dev.estimated_response_time()
        )
        assert killed.estimated_time_s == pytest.approx(clean.estimated_time_s)


# --------------------------------------------------------------------------- #
# satellite: result-cache byte budget
# --------------------------------------------------------------------------- #


def _result(pairs=0, objects=0, trace=0):
    return JoinResult(
        algorithm="x",
        spec=JoinSpec.distance(0.01),
        pairs={(i, i) for i in range(pairs)},
        objects=list(range(objects)),
        trace=[None] * trace,
    )


class TestResultCacheByteBudget:
    def test_weight_is_deterministic_and_size_aware(self):
        small, big = _result(pairs=1), _result(pairs=100, objects=5, trace=3)
        assert result_weight(small) == result_weight(_result(pairs=1))
        assert result_weight(big) > result_weight(small)

    def test_bytes_stored_tracks_puts_and_clear(self):
        cache = ResultCache(max_bytes=100_000)
        a = cache.put(("a",), _result(pairs=10))
        assert cache.bytes_stored == result_weight(a)
        b = cache.put(("b",), _result(pairs=20))
        assert cache.bytes_stored == result_weight(a) + result_weight(b)
        # Re-putting a key replaces its weight instead of double-counting.
        cache.put(("a",), _result(pairs=10))
        assert cache.bytes_stored == result_weight(a) + result_weight(b)
        cache.clear()
        assert cache.bytes_stored == 0 and len(cache) == 0

    def test_byte_budget_evicts_least_recently_used(self):
        entry = result_weight(_result(pairs=10))
        cache = ResultCache(max_bytes=3 * entry)
        for key in ("a", "b", "c"):
            cache.put((key,), _result(pairs=10))
        assert cache.evictions == 0
        # A hit on "a" refreshes it; the fourth insert evicts "b" (LRU).
        assert cache.get(("a",)) is not None
        cache.put(("d",), _result(pairs=10))
        assert cache.evictions == 1
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None
        assert cache.bytes_stored <= 3 * entry

    def test_oversized_result_is_kept_alone(self):
        cache = ResultCache(max_bytes=300)
        cache.put(("small",), _result())
        huge = cache.put(("huge",), _result(pairs=1000))
        assert result_weight(huge) > 300
        # The newest entry always survives; everything else is shed.
        assert len(cache) == 1
        assert cache.get(("huge",)) is huge
        assert cache.get(("small",)) is None

    def test_byte_and_entry_bounds_compose(self):
        entry = result_weight(_result())
        cache = ResultCache(max_entries=2, max_bytes=10 * entry)
        for key in ("a", "b", "c"):
            cache.put((key,), _result())
        assert len(cache) == 2          # entry bound, byte budget idle
        assert cache.evictions == 1
        assert cache.bytes_stored == 2 * entry

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
