"""The sharded data plane: partitioning, scatter/merge, breaker identity.

PR 8 splits one published dataset across N spatial shard servers and
scatters each round's COUNT/window/range batches over the shards whose
bounds intersect the request windows.  The contracts under test:

* **Partitioning** is a pure function of ``(dataset, shards, scheme)``:
  disjoint exact cover, object ids preserved, empty shards legal, shard
  names stable (``"R#i"``).
* **Join equivalence**: a sharded run returns the *bit-identical pair set*
  of the unsharded run for every frontier algorithm, standalone and
  brokered, fault-free and under recoverable chaos -- COUNT sums over
  disjoint shards equal the union server's counts, so the decision traces
  coincide.  Bytes are scatter-amplified, never compared across plans.
* **Single-shard degeneration**: one shard holding everything reproduces
  the unsharded run bit for bit (bytes, costs, traces and all).
* **Breaker identity**: the broker's circuit breakers are keyed by the
  stable ``(name, registration uid)`` token, never by ``id()`` -- a new
  server recycling a dead server's object id must start closed -- and
  ``clear_caches()`` evicts breaker state along with the server builds.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from repro.api import AdHocJoinSession, quick_join
from repro.core.join_types import JoinSpec
from repro.core.planner import StackConfig, run_join
from repro.datasets.partition import (
    PARTITION_SCHEMES,
    partition_dataset,
    shard_assignment,
)
from repro.datasets.dataset import SpatialDataset
from repro.datasets.synthetic import clustered, uniform
from repro.errors import InvalidInput, ServerUnavailable
from repro.geometry.rect import Rect
from repro.network.faults import FaultPlan, Outage, RetryPolicy
from repro.server import ShardedSpatialServer, SpatialServer
from repro.service import JoinQuery, QueryBroker

BUFFER = 96
EPSILON = 0.03


def _with_stack(keywords: dict) -> dict:
    """The same keywords, the loose stack knobs among them (the ``repro.api``
    sugar) folded into the ``stack=`` every layer below the API takes."""
    knobs = {f.name for f in dataclasses.fields(StackConfig)} & set(keywords)
    rest = {k: v for k, v in keywords.items() if k not in knobs}
    return dict(rest, stack=StackConfig(**{k: keywords[k] for k in knobs}))


def _datasets(n: int = 110):
    return (
        clustered(n=n, clusters=3, seed=11, name="R"),
        clustered(n=n, clusters=4, seed=12, std=0.04, name="S"),
    )


# --------------------------------------------------------------------------- #
# partitioning invariants
# --------------------------------------------------------------------------- #


class TestPartitionInvariants:
    @pytest.mark.parametrize("scheme", PARTITION_SCHEMES)
    @pytest.mark.parametrize("shards", [1, 2, 3, 5, 8])
    def test_exact_disjoint_cover(self, scheme, shards):
        r, _ = _datasets()
        parts = partition_dataset(r, shards, scheme)
        assert len(parts) == shards
        assert [p.name for p in parts] == [f"R#{i}" for i in range(shards)]
        gathered = np.concatenate([p.oids for p in parts])
        assert gathered.shape[0] == len(r)  # no duplication across shards
        assert np.array_equal(np.sort(gathered), np.sort(r.oids))

    @pytest.mark.parametrize("scheme", PARTITION_SCHEMES)
    def test_assignment_is_deterministic(self, scheme):
        r, _ = _datasets()
        first = shard_assignment(r, 6, scheme)
        second = shard_assignment(r, 6, scheme)
        assert np.array_equal(first, second)

    def test_more_shards_than_objects_leaves_empty_shards(self):
        r, _ = _datasets(n=3)
        parts = partition_dataset(r, 8, "str")
        assert len(parts) == 8
        assert sum(len(p) for p in parts) == 3
        assert sum(1 for p in parts if len(p) == 0) >= 5

    def test_degenerate_extent_collapses_to_one_grid_shard(self):
        from repro.datasets.dataset import SpatialDataset

        point_mass = SpatialDataset(
            mbrs=np.tile(np.array([[0.5, 0.5, 0.5, 0.5]]), (40, 1)),
            name="P",
        )
        # Zero-span extents put every centre in cell 0; the other shards
        # are empty but still published.
        assignment = shard_assignment(point_mass, 4, "grid")
        assert np.array_equal(assignment, np.zeros(40, dtype=np.int64))
        parts = partition_dataset(point_mass, 4, "grid")
        assert [len(p) for p in parts] == [40, 0, 0, 0]

    def test_str_balances_non_dividing_counts(self):
        r, _ = _datasets(n=103)
        parts = partition_dataset(r, 5, "str")
        sizes = sorted(len(p) for p in parts)
        assert sum(sizes) == 103
        # STR cuts by cardinality: shard sizes differ by at most the
        # slab-rounding slack even when shards does not divide n.
        assert sizes[-1] - sizes[0] <= 2

    def test_validation(self):
        r, _ = _datasets(n=10)
        with pytest.raises(ValueError):
            shard_assignment(r, 0, "grid")
        with pytest.raises(ValueError):
            partition_dataset(r, -2, "str")
        with pytest.raises(ValueError):
            shard_assignment(r, 4, "hilbert")


# --------------------------------------------------------------------------- #
# sharded == unsharded join equivalence
# --------------------------------------------------------------------------- #


class TestShardedJoinEquivalence:
    @pytest.mark.parametrize("scheme", PARTITION_SCHEMES)
    @pytest.mark.parametrize("algorithm", ["upjoin", "srjoin", "mobijoin"])
    def test_pairs_match_unsharded(self, algorithm, scheme):
        r, s = _datasets()
        spec = JoinSpec.distance(EPSILON)
        plain = run_join(r, s, spec, algorithm=algorithm, buffer_size=BUFFER)
        sharded = run_join(
            r, s, spec, algorithm=algorithm, buffer_size=BUFFER,
            stack=StackConfig(shards_r=3, shards_s=4, shard_scheme=scheme),
        )
        assert sharded.sorted_pairs() == plain.sorted_pairs()
        assert sharded.objects == plain.objects
        # Disjoint shards answer disjoint object sets: the fleet-summed
        # server statistics reconcile exactly with the union server's.
        assert (
            sharded.server_stats["R"]["objects_returned"]
            == plain.server_stats["R"]["objects_returned"]
        )

    @pytest.mark.parametrize("as_input", [list, tuple, iter], ids=["list", "tuple", "iterator"])
    def test_count_batch_matches_plain_for_any_iterable(self, as_input):
        """Regression: a one-shot iterable was exhausted sizing the totals,
        so every shard saw no windows and the answer was all zeros."""
        data = clustered(n=2000, clusters=8, seed=1)
        plain = SpatialServer(data, name="R")
        fleet = ShardedSpatialServer(data, "R", shards=4, scheme="str")
        windows = [Rect(0, 0, 1, 1), Rect(0, 0, 0.5, 0.5), Rect(0.4, 0.4, 0.6, 0.6)]
        expected = [int(c) for c in plain.evaluate_count_batch(list(windows))]
        assert expected[0] == 2000 and 0 < expected[1] < 2000
        assert [int(c) for c in plain.evaluate_count_batch(as_input(windows))] == expected
        assert fleet.evaluate_count_batch(as_input(windows)) == expected

    def test_empty_shards_never_break_the_join(self):
        r, s = _datasets(n=40)
        # More shards than clusters on clustered data: the grid leaves
        # shards empty, which must simply never answer.
        assert any(len(p) == 0 for p in partition_dataset(r, 9, "grid"))
        plain = quick_join(r, s, "srjoin", epsilon=EPSILON, buffer_size=BUFFER)
        sharded = quick_join(
            r, s, "srjoin", epsilon=EPSILON, buffer_size=BUFFER,
            shards_r=9, shards_s=9,
        )
        assert sharded.sorted_pairs() == plain.sorted_pairs()

    def test_single_shard_degenerates_to_unsharded_bit_identically(self):
        # Same-extent uniform datasets: every frontier window intersects
        # the lone shard's bounds, so not even the routing filter can
        # diverge from the union server.
        r = uniform(n=120, seed=5, name="R")
        s = uniform(n=120, seed=6, name="S")
        plain = AdHocJoinSession(r, s, buffer_size=BUFFER, indexed=False).run(
            "upjoin", epsilon=EPSILON
        )
        fleet = AdHocJoinSession(
            r, s, buffer_size=BUFFER, indexed=False,
            servers=(
                ShardedSpatialServer(r, name="R", shards=1),
                ShardedSpatialServer(s, name="S", shards=1),
            ),
        ).run("upjoin", epsilon=EPSILON)
        assert fleet.sorted_pairs() == plain.sorted_pairs()
        assert fleet.total_bytes == plain.total_bytes
        assert fleet.bytes_r == plain.bytes_r
        assert fleet.bytes_s == plain.bytes_s
        assert fleet.total_cost == plain.total_cost
        assert fleet.operator_counts == plain.operator_counts
        assert fleet.server_stats == plain.server_stats
        for side in ("R", "S"):
            for key, value in plain.channel_stats[side].items():
                assert fleet.channel_stats[side][key] == value

    def test_recoverable_faults_keep_sharded_primary_lane_identical(self):
        r, s = _datasets()
        plan = FaultPlan(seed=3, drop_rate=0.10, stall_rate=0.08,
                         duplicate_rate=0.08)
        calm = quick_join(
            r, s, "upjoin", epsilon=EPSILON, buffer_size=BUFFER,
            shards_r=3, shards_s=2,
        )
        stormy = quick_join(
            r, s, "upjoin", epsilon=EPSILON, buffer_size=BUFFER,
            shards_r=3, shards_s=2, faults=plan,
        )
        assert stormy.sorted_pairs() == calm.sorted_pairs()
        assert stormy.total_bytes == calm.total_bytes
        assert stormy.bytes_r == calm.bytes_r
        assert stormy.bytes_s == calm.bytes_s
        assert stormy.resilience is not None

    def test_brokered_matches_standalone_sharded(self):
        r, s = _datasets()
        spec = JoinSpec.distance(EPSILON)
        standalone = run_join(
            r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
            stack=StackConfig(shards_r=2, shards_s=3),
        )
        (outcome,) = QueryBroker(cache=False).run_batch([
            JoinQuery(
                r, s, spec, algorithm="srjoin", buffer_size=BUFFER,
                stack=StackConfig(shards_r=2, shards_s=3),
            )
        ])
        assert outcome.status == "ok"
        brokered = outcome.result
        assert brokered.sorted_pairs() == standalone.sorted_pairs()
        assert brokered.total_bytes == standalone.total_bytes
        assert brokered.channel_stats == standalone.channel_stats
        assert brokered.server_stats == standalone.server_stats

    def test_semijoin_rejects_sharding_everywhere(self):
        r, s = _datasets(n=30)
        spec = JoinSpec.distance(EPSILON)
        with pytest.raises(ValueError):
            run_join(
                r, s, spec, algorithm="semijoin", buffer_size=BUFFER,
                stack=StackConfig(shards_r=2),
            )
        with pytest.raises(ValueError):  # unconstructible, so never submitted
            JoinQuery(
                r, s, spec, algorithm="semijoin", buffer_size=BUFFER,
                stack=StackConfig(shards_s=2),
            )

    def test_query_validation(self):
        r, s = _datasets(n=10)
        spec = JoinSpec.distance(EPSILON)
        with pytest.raises(ValueError):
            JoinQuery(r, s, spec, stack=StackConfig(shards_r=0))
        with pytest.raises(ValueError):
            JoinQuery(r, s, spec, stack=StackConfig(shard_scheme="hilbert"))

    @pytest.mark.parametrize(
        "knob, message",
        [
            ({"shards_r": 0}, "shard counts must be >= 1"),
            ({"shards_s": -1}, "shard counts must be >= 1"),
            ({"replicas": 0}, "replicas must be >= 1"),
            # Rejected even where the knob would go unused (no replication,
            # no sharding).
            ({"router": "bogus"}, "unknown replica router policy 'bogus'; known: ["),
            ({"shard_scheme": "bogus"}, "unknown partition scheme 'bogus'; available: ("),
            ({"deadline_s": -1.0}, "deadline_s must be a non-negative number"),
            ({"deadline_s": float("nan")}, "deadline_s must be a non-negative number"),
        ],
    )
    def test_a_stack_config_is_validated_at_construction(self, knob, message):
        with pytest.raises(InvalidInput, match=re.escape(message)):
            StackConfig(**knob)

    def test_stack_configs_are_values(self):
        assert StackConfig() == StackConfig()
        assert hash(StackConfig()) == hash(StackConfig())
        different = dict(
            shards_r=2, shards_s=2, shard_scheme="str", replicas=2, router="round_robin",
            faults=FaultPlan(seed=1), retry=RetryPolicy(max_attempts=2), deadline_s=1.0,
        )
        assert set(different) == {f.name for f in dataclasses.fields(StackConfig)}
        for name, value in different.items():
            assert StackConfig(**{name: value}) != StackConfig(), name
        fleet = StackConfig(shards_s=3, shard_scheme="str", deadline_s=2.0)
        assert fleet.fleet and fleet.topology == (1, 3, "str", 1)
        assert not StackConfig(faults=FaultPlan(seed=1)).fleet

    @pytest.mark.parametrize(
        "knob",
        [
            {"router": "bogus"},  # unreplicated: the router would go unused
            {"shard_scheme": "bogus"},  # unsharded: so would the scheme
            {"deadline_s": -1.0},
            {"deadline_s": float("nan")},  # ``elapsed > nan`` never fires
            # An infinite window never subdivides below the buffer (four
            # algorithms spin); NaN passes Rect's ordering check and splits
            # the algorithms' answers.
            {"window": Rect(-math.inf, -math.inf, math.inf, math.inf)},
            {"window": Rect(math.nan, 0.0, 1.0, 1.0)},
            # An algorithm that does not exist, or cannot run on the stack.
            {"algorithm": "bogus"},
            {"algorithm": "semijoin", "shards_r": 2},
            {"algorithm": "semijoin", "replicas": 2},
        ],
        ids=lambda knob: "-".join(f"{k}={v}" for k, v in knob.items()),
    )
    @pytest.mark.parametrize(
        "entry",
        [
            lambda r, s, spec, **kw: quick_join(r, s, epsilon=EPSILON, **kw),
            lambda r, s, spec, window=None, algorithm="srjoin", **kw: AdHocJoinSession(
                r, s, indexed=False, **kw
            ).run(algorithm, epsilon=EPSILON, window=window),
            lambda r, s, spec, **kw: run_join(r, s, spec, **_with_stack(kw)),
            lambda r, s, spec, **kw: JoinQuery(r, s, spec, **_with_stack(kw)),
        ],
        ids=["quick_join", "AdHocJoinSession", "run_join", "JoinQuery"],
    )
    def test_knobs_validated_alike_on_every_entry_path(self, entry, knob):
        r, s = _datasets(n=10)
        with pytest.raises(InvalidInput):
            entry(r, s, JoinSpec.distance(EPSILON), **knob)

    def test_injected_fleets_reject_semijoin_at_connect(self):
        # No StackConfig describes pre-built servers: the twin of
        # ``check_algorithm`` sits where they are connected, same wording.
        r, s = _datasets(n=10)
        fleet_r = ShardedSpatialServer(r, name="R", shards=2)
        fleet_s = ShardedSpatialServer(s, name="S", shards=2)
        with pytest.raises(InvalidInput) as injected:
            AdHocJoinSession(r, s, servers=(fleet_r, fleet_s), indexed=True)
        with pytest.raises(InvalidInput) as built:
            StackConfig(shards_r=2).check_algorithm("semijoin")
        assert str(injected.value) == str(built.value)


# --------------------------------------------------------------------------- #
# the default join window with an empty side
# --------------------------------------------------------------------------- #


def _run_paths():
    """The four entry paths, each returning the pairs of a window-less join."""

    def brokered(r, s, spec, **kw):
        (outcome,) = QueryBroker().run_batch([JoinQuery(r, s, spec, **_with_stack(kw))])
        if outcome.error is not None:  # a query that cannot be planned fails alone
            raise outcome.error
        return outcome.result

    return {
        "quick_join": lambda r, s, spec, **kw: quick_join(r, s, epsilon=EPSILON, **kw),
        "AdHocJoinSession": lambda r, s, spec, algorithm="srjoin", **kw: AdHocJoinSession(
            r, s, indexed=False, **kw
        ).run(algorithm, epsilon=EPSILON),
        "run_join": lambda r, s, spec, **kw: run_join(r, s, spec, **_with_stack(kw)),
        "QueryBroker": brokered,
    }


class TestDefaultWindowWithAnEmptySide:
    """No ``window=``: the union MBR of the sides that *have* an MBR.

    Regression: all four paths died with an untyped ``ValueError: cannot
    bound an empty MBR array`` while the same join with an explicit window
    returned 0 pairs on every algorithm.
    """

    @pytest.mark.parametrize("entry", list(_run_paths()))
    @pytest.mark.parametrize("empty_side", ["r", "s"])
    @pytest.mark.parametrize(
        "topology", [{}, {"shards_r": 4, "shards_s": 4, "replicas": 2}], ids=["plain", "fleet"]
    )
    def test_one_empty_side_joins_over_the_other_sides_bounds(
        self, entry, empty_side, topology
    ):
        full, _ = _datasets(n=120)
        empty = SpatialDataset(np.empty((0, 4)), name="E")
        r, s = (empty, full) if empty_side == "r" else (full, empty)
        run = _run_paths()[entry]
        spec = JoinSpec.distance(EPSILON)
        for algorithm in ("naive", "upjoin", "srjoin", "mobijoin", "fixedgrid"):
            windowless = run(r, s, spec, algorithm=algorithm, **topology)
            explicit = run_join(
                r, s, spec, algorithm=algorithm, window=full.bounds(),
                stack=StackConfig(**topology),
            )
            assert len(windowless.pairs) == len(explicit.pairs) == 0
            assert windowless.total_bytes == explicit.total_bytes

    @pytest.mark.parametrize("entry", list(_run_paths()))
    def test_two_empty_sides_are_a_typed_error(self, entry):
        empty = SpatialDataset(np.empty((0, 4)), name="E")
        with pytest.raises(InvalidInput, match="both datasets are empty"):
            _run_paths()[entry](empty, empty.rename("F"), JoinSpec.distance(EPSILON))


# --------------------------------------------------------------------------- #
# breaker identity
# --------------------------------------------------------------------------- #


class TestBreakerIdentity:
    def test_tokens_are_stable_per_build_and_unique_across_builds(self):
        r, _ = _datasets(n=20)
        first = SpatialServer(r, name="R")
        second = SpatialServer(r, name="R")
        assert first.breaker_token[0] == "R"
        # Same name, different build -> different token.  This is the
        # regression the id()-keyed registry failed: a rebuilt server
        # could inherit a dead server's open breaker.
        assert first.breaker_token != second.breaker_token
        assert second.server_uid > first.server_uid
        # Views are the same build: same token, shared breaker state.
        assert first.shared_view().breaker_token == first.breaker_token

    def test_fleet_exposes_shards_as_independent_breaker_units(self):
        r, _ = _datasets()
        fleet = ShardedSpatialServer(r, name="R", shards=3)
        units = fleet.breaker_units()
        assert [u.name for u in units] == ["R#0", "R#1", "R#2"]
        assert len({u.breaker_token for u in units}) == 3

    def test_breaker_trips_per_shard_and_clear_caches_evicts(self):
        r, s = _datasets()
        spec = JoinSpec.distance(EPSILON)
        broker = QueryBroker(
            max_wave=1, cache=False, breaker_threshold=1,
            breaker_cooldown_waves=50,
        )
        # An outage pinned to shard channel "R#0" (the shard this workload
        # actually routes to) must open exactly that shard's breaker, not
        # the whole logical side.
        outage = FaultPlan(seed=6, outages=(Outage("R#0", 0, 10_000),))
        (first,) = broker.run_batch([
            JoinQuery(
                r, s, spec, algorithm="naive", buffer_size=BUFFER,
                stack=StackConfig(shards_r=3, faults=outage),
            )
        ])
        assert first.status == "failed"
        assert isinstance(first.error, ServerUnavailable)
        assert first.error.kind == "unavailable"
        assert [token[0] for token in broker._breakers] == ["R#0"]
        # Still within the cooldown: the next query on the same fleet is
        # shed by the open shard breaker without executing.
        (shed,) = broker.run_batch([
            JoinQuery(
                r, s, spec, algorithm="naive", buffer_size=BUFFER,
                stack=StackConfig(shards_r=3),
            )
        ])
        assert shed.status == "failed"
        assert shed.error.kind == "breaker"
        # Eviction: clear_caches drops breaker state with the server
        # builds, so the same query now executes and succeeds.
        broker.clear_caches()
        assert broker._breakers == {}
        (healed,) = broker.run_batch([
            JoinQuery(
                r, s, spec, algorithm="naive", buffer_size=BUFFER,
                stack=StackConfig(shards_r=3),
            )
        ])
        assert healed.status == "ok"
        plain = run_join(r, s, spec, algorithm="naive", buffer_size=BUFFER)
        assert healed.result.sorted_pairs() == plain.sorted_pairs()
