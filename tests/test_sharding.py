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
import gc
import math
import re
import tracemalloc

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
from repro.network.channel import Channel
from repro.network.config import NetworkConfig
from repro.network.faults import FaultPlan, Outage, RetryPolicy
from repro.server import ShardedSpatialServer, SpatialServer
from repro.server.remote import RemoteServer
from repro.service import JoinQuery, QueryBroker
from repro.service import broker as service_broker

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
        plain = AdHocJoinSession(r, s, buffer_size=BUFFER).run(
            "upjoin", epsilon=EPSILON
        )
        fleet = AdHocJoinSession(
            r, s, buffer_size=BUFFER,
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
            # Non-integral counts died inside partitioning (``float modulo``)
            # or with a TypeError.
            ({"shards_r": 2.5}, "shard counts must be >= 1 and integral, got 2.5"),
            # Rejected even where the knob would go unused (no sharding).
            ({"shard_scheme": "bogus"}, "unknown partition scheme 'bogus'; available: ("),
            ({"deadline_s": -1.0}, "deadline_s must be a non-negative number"),
            ({"deadline_s": float("nan")}, "deadline_s must be a non-negative number"),
            ({"shards_s": "2"}, "shard counts must be >= 1 and integral, got '2'"),
            ({"replicas": 1.5}, "replicas must be >= 1 and integral, got 1.5"),
            ({"replicas": float("nan")}, "replicas must be >= 1 and integral, got nan"),
        ],
    )
    def test_a_stack_config_is_validated_at_construction(self, knob, message):
        with pytest.raises(InvalidInput, match=re.escape(message)):
            StackConfig(**knob)

    def test_stack_configs_are_values(self):
        assert StackConfig() == StackConfig()
        assert hash(StackConfig()) == hash(StackConfig())
        different = dict(
            shards_r=2, shards_s=2, shard_scheme="str", replicas=2,
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
            {"shard_scheme": "bogus"},  # unsharded: the scheme would go unused
            {"shards_r": 2.5},
            {"replicas": 1.5},
            {"deadline_s": -1.0},
            {"deadline_s": float("nan")},  # ``elapsed > nan`` never fires
            # A buffer is a count of objects: not fractional, NaN or a string.
            {"buffer_size": 2.5},
            {"buffer_size": float("nan")},
            {"buffer_size": "800"},
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
                r, s, **kw
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

    @pytest.mark.parametrize(
        "topology", [{"shards_r": 4}, {"replicas": 2}], ids=["4 shards", "2 replicas"]
    )
    def test_a_default_fleet_session_needs_no_indexed_false(self, topology):
        """Nobody asked for SemiJoin, so a session over fleets -- built from
        the topology knobs or injected -- connects without an index and runs
        UpJoin with the pairs and bytes of ``quick_join``."""
        r, s = _datasets(n=300)
        expected = quick_join(r, s, algorithm="upjoin", epsilon=EPSILON, **topology)
        built = AdHocJoinSession(r, s, **topology)
        injected = AdHocJoinSession(r, s, servers=StackConfig(**topology).servers(r, s))
        for session in (built, injected):
            result = session.run("upjoin", epsilon=EPSILON)
            assert result.pairs == expected.pairs and result.num_pairs > 0
            assert result.total_bytes == expected.total_bytes

    @pytest.mark.parametrize(
        "topology",
        [{"shards_r": 2}, {"shards_s": 2}, {"replicas": 2}],
        ids=["R sharded", "S sharded", "replicated"],
    )
    def test_semijoin_where_it_cannot_run_is_invalid_input(self, topology):
        # Over injected fleets SemiJoin refuses its builds with the message
        # of the config rule.
        r, s = _datasets(n=10)
        fleets = AdHocJoinSession(r, s, servers=StackConfig(**topology).servers(r, s))
        with pytest.raises(InvalidInput) as injected:
            fleets.run("semijoin", epsilon=EPSILON)
        with pytest.raises(InvalidInput) as built:
            StackConfig(**topology).check_algorithm("semijoin")
        assert str(injected.value) == str(built.value)

    @pytest.mark.parametrize(
        "topology",
        [{"shards_r": 2}, {"shards_s": 2}, {"replicas": 2}],
        ids=["R sharded", "S sharded", "replicated"],
    )
    def test_indexed_over_a_fleet_is_refused_before_any_build(self, topology, monkeypatch):
        """``indexed=True`` over a config fleet refuses before a shard index
        is built, and over injected fleets with the same message."""
        r, s = _datasets(n=10)
        fleets = StackConfig(**topology).servers(r, s)

        def no_build(*args, **kwargs):
            raise AssertionError("built servers before refusing")

        monkeypatch.setattr(StackConfig, "servers", no_build)
        with pytest.raises(InvalidInput) as built:
            AdHocJoinSession(r, s, indexed=True, **topology)
        with pytest.raises(InvalidInput) as injected:
            AdHocJoinSession(r, s, indexed=True, servers=fleets)
        assert str(injected.value) == str(built.value)


# --------------------------------------------------------------------------- #
# memory: a fleet holds each coordinate once
# --------------------------------------------------------------------------- #


def _node_bytes(tree) -> int:
    """Bytes of the arrays of ``tree`` (a ``FlatRTree``) sized by nodes:
    everything it holds but its page table and its oids."""
    held = [value for name, value in vars(tree).items() if name not in ("pages", "entry_oids")]
    held += tree._blocks
    return sum(value.nbytes for value in held if isinstance(value, np.ndarray))


def _arrays_reached(obj, seen=None):
    """Every array ``obj`` reaches through attributes, tuples and lists."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays_reached(item, seen)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        for value in vars(obj).values():
            yield from _arrays_reached(value, seen)


class TestFleetHoldsEachObjectOnce:
    """A fleet holds what a plain server holds: the user's dataset and the
    (forest's) page table.  A shard server, like every server, is its name
    and its index -- ``len()`` counts the index's entries -- and the
    partition copies it was built from are let go."""

    @pytest.mark.parametrize("scheme", PARTITION_SCHEMES)
    @pytest.mark.parametrize("replicas", [1, 2])
    @pytest.mark.parametrize("n", [10, 2000])  # 10 over 16 shards: some empty
    def test_shard_servers_count_from_their_index(self, n, replicas, scheme):
        data = clustered(n=n, clusters=8, seed=21, name="R")
        fleet = ShardedSpatialServer(data, "R", shards=16, scheme=scheme, replicas=replicas)
        parts = partition_dataset(fleet.dataset, 16, scheme)
        if n == 10:
            assert not all(len(part) for part in parts)
        forest = fleet.forest
        for part, group in zip(parts, fleet.replica_groups):
            assert len(group) == replicas
            for server in group:
                assert not hasattr(server, "dataset") and len(server) == len(part)
                assert server.index is group[0].index
                n_nodes = server.index.is_leaf.shape[0]
                for array in _arrays_reached(server):
                    if np.shares_memory(array, forest.pages):
                        continue
                    if np.shares_memory(array, forest.entry_oids):
                        continue
                    # Node-sized (``node_cols`` is ``(4, n_nodes)``), not a row per object.
                    assert array.size <= 4 * n_nodes, (array.shape, n_nodes, len(part))
            channels = [Channel(NetworkConfig(), name=server.name) for server in group]
            connection = RemoteServer(group, channels, name=part.name)
            assert connection.object_count() == len(part)
        assert len(fleet) == n

    def test_a_built_fleet_holds_its_pages_oids_and_node_arrays_only(self):
        """The bound a plain server keeps
        (``test_forest_queries.py::test_a_built_server_holds_its_pages_oids_and_node_arrays_only``):
        no coordinate block beside the page table (32 B per object, 0.61
        MiB here) and no partition copy.  NumPy's buffers are held to the
        arrays named, within 1 KiB; the Python objects -- servers, trees,
        array headers, about 2.9 KiB a shard -- are bounded apart."""
        data = clustered(n=20000, clusters=128, seed=41000)
        ShardedSpatialServer(clustered(n=500, seed=1), "W", shards=16, scheme="str", replicas=2)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            fleet = ShardedSpatialServer(data, "R", shards=16, scheme="str", replicas=2)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()

        def held(numpy: bool) -> int:
            only = [tracemalloc.DomainFilter(numpy, np.lib.tracemalloc_domain)]
            grown = after.filter_traces(only).compare_to(before.filter_traces(only), "filename")
            return sum(stat.size_diff for stat in grown)

        forest = fleet.forest
        allowed = forest.pages.nbytes + forest.entry_oids.nbytes + _node_bytes(forest)
        allowed += sum(_node_bytes(shard.index) for shard in fleet.shards)
        assert held(True) <= allowed + 1024, (held(True), allowed)
        assert held(False) <= 4 * 1024 * len(fleet.shards), held(False)


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
            r, s, **kw
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
    @staticmethod
    def _query(r, s, servers=None, faults=None):
        return JoinQuery(
            r, s, JoinSpec.distance(EPSILON), algorithm="naive", buffer_size=BUFFER,
            servers=servers, stack=StackConfig(faults=faults),
        )

    def test_a_rebuilt_build_with_the_same_name_starts_closed(self, monkeypatch):
        """Breakers are keyed by the build itself: a new build under a
        dead one's name (the regression an ``id()``-keyed registry had)
        does not inherit its open breaker."""
        r, s = _datasets()
        monkeypatch.setattr(service_broker, "MAX_WAVE", 1)
        monkeypatch.setattr(service_broker, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(service_broker, "BREAKER_COOLDOWN_WAVES", 50)
        broker = QueryBroker(cache=False)
        server_s = SpatialServer(s, name="S")
        first = SpatialServer(r, name="R")
        outage = FaultPlan(seed=6, outages=(Outage("R", 0, 10_000),))
        (failed,) = broker.run_batch([self._query(r, s, (first, server_s), outage)])
        assert failed.status == "failed" and failed.error.kind == "unavailable"
        assert list(broker._breakers) == [first]
        (shed,) = broker.run_batch([self._query(r, s, (first, server_s))])
        assert shed.status == "failed" and shed.error.kind == "breaker"
        rebuilt = SpatialServer(r, name="R")
        (healed,) = broker.run_batch([self._query(r, s, (rebuilt, server_s))])
        assert healed.status == "ok"
        assert list(broker._breakers) == [first]

    def test_an_evicted_build_takes_its_breakers_along(self, monkeypatch):
        r, s = _datasets()
        other_r, other_s = _datasets(n=60)
        monkeypatch.setattr(service_broker, "MAX_WAVE", 1)
        monkeypatch.setattr(service_broker, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(service_broker, "BREAKER_COOLDOWN_WAVES", 50)
        monkeypatch.setattr(service_broker, "MAX_SERVER_BUILDS", 1)
        broker = QueryBroker(cache=False)
        outage = FaultPlan(seed=6, outages=(Outage("R", 0, 10_000),))
        (failed,) = broker.run_batch([self._query(r, s, faults=outage)])
        assert failed.error.kind == "unavailable"
        ((build_r, _),) = broker._servers.values()
        assert list(broker._breakers) == [build_r]
        # A second dataset pair evicts the first build, and its breaker.
        (other,) = broker.run_batch([self._query(other_r, other_s)])
        assert other.status == "ok"
        assert broker._breakers == {}
        # The first pair is rebuilt with a closed breaker: it executes.
        (again,) = broker.run_batch([self._query(r, s)])
        assert again.status == "ok"

    def test_fleet_exposes_shards_as_independent_breaker_units(self):
        r, _ = _datasets()
        fleet = ShardedSpatialServer(r, name="R", shards=3)
        units = fleet.breaker_units()
        assert [u.name for u in units] == ["R#0", "R#1", "R#2"]
        assert len({id(u) for u in units}) == 3

    def test_breaker_trips_per_shard_and_clear_caches_evicts(self, monkeypatch):
        r, s = _datasets()
        spec = JoinSpec.distance(EPSILON)
        monkeypatch.setattr(service_broker, "MAX_WAVE", 1)
        monkeypatch.setattr(service_broker, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(service_broker, "BREAKER_COOLDOWN_WAVES", 50)
        broker = QueryBroker(cache=False)
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
        assert [unit.name for unit in broker._breakers] == ["R#0"]
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
