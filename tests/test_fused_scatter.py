"""The fused scatter equals the shard-by-shard scatter it replaced.

``ShardedRemoteServer`` answers a batch endpoint with **one** descent of
the fleet's forest and then books every routed shard's share through that
shard's own proxy.  ``tests/oracles/scatter_per_shard.py`` keeps the old
scatter -- one proxy call, hence one index descent, per routed shard -- and
this suite holds the two equal on everything a caller or an operator can
observe: answers (row order included), per-channel ledgers on both lanes,
per-replica server statistics, drawn fault events, failovers and the
resilience summary; for every batch endpoint, shard count, replication
factor and fault scenario.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.datasets.synthetic import clustered
from repro.errors import ChannelFault
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.flat import FlatRTree
from repro.network.channel import Channel
from repro.network.config import NetworkConfig
from repro.network.faults import Disconnect, FaultPlan, Outage, RetryPolicy, replica_outages
from repro.server import ShardedSpatialServer
from repro.server.remote import ResilienceController, ShardedRemoteServer

from tests.oracles import scatter_per_shard

SHARD_COUNTS = (1, 4, 16)
SCENARIOS = ("no_faults", "recoverable", "dead_replica")
#: Broker verdicts set on replica 1 of every shard before the script runs,
#: so each rank of the one replica order is driven through the scatter:
#: ``probe`` tries it first, ``down`` last-resort only.
MARKS = ("healthy", "probe", "down")


@functools.lru_cache(maxsize=None)
def _build(shards: int, replicas: int) -> ShardedSpatialServer:
    """One fleet build: four balanced STR shards; the 16-cell grid leaves seven empty."""
    data = clustered(n=600, clusters=5, seed=21, std=0.05, name="S")
    scheme = "grid" if shards == 16 else "str"
    return ShardedSpatialServer(data, name="S", shards=shards, scheme=scheme, replicas=replicas)


def _fleet(shards: int, replicas: int) -> ShardedSpatialServer:
    """A statistics-isolated view of the cached build."""
    return _build(shards, replicas).shared_view()


def _plan(scenario: str, shards: int, replicas: int):
    if scenario == "no_faults":
        return None
    fleet = _fleet(shards, replicas)
    live = [name for name, shard in zip(fleet.shard_names, fleet.shards) if len(shard)]
    victim = live[min(1, len(live) - 1)]
    rates = dict(seed=13, drop_rate=0.2, stall_rate=0.15, duplicate_rate=0.15)
    if scenario == "recoverable":
        name = victim if replicas == 1 else f"{victim}/1"
        return FaultPlan(outages=(Outage(name, 1, 2),), **rates)
    return FaultPlan(outages=replica_outages(victim, replicas, 0, 10**9, indices=[0]), **rates)


def _connect(shards: int, replicas: int, plan):
    fleet = _fleet(shards, replicas)
    resilience = ResilienceController(plan, RetryPolicy(max_attempts=8))
    channels = [
        Channel(NetworkConfig(), name=replica.name)
        for group in fleet.replica_groups
        for replica in group
    ]
    for channel in channels:
        resilience.register(channel)
    return ShardedRemoteServer(fleet, channels, resilience=resilience), resilience


def _requests(seed: int):
    """Request batches hitting no shard, one shard, a few and all of them."""
    rng = np.random.default_rng(seed)
    lo = rng.random((30, 2))
    windows = [Rect(x, y, x + w, y + h) for (x, y), (w, h) in zip(lo, rng.random((30, 2)) * 0.3)]
    windows += [Rect(-1.0, -1.0, 2.0, 2.0), Rect(5.0, 5.0, 6.0, 6.0), Rect(0.5, 0.5, 0.5, 0.5)]
    centers = [Point(float(x), float(y)) for x, y in rng.random((25, 2))] + [Point(9.0, 9.0)]
    radii = (rng.random(26) * 0.15).tolist()
    radii[3] = 0.0
    return windows, centers, radii


def _script(endpoint: str):
    """The argument tuples of four calls of one batch endpoint."""
    calls = []
    for seed in (1, 2, 3, 4):
        windows, centers, radii = _requests(seed)
        args = {
            "count_batch": (windows,),
            "window_batch_flat": (windows,),
            "range_batch_flat": (centers, radii),
            "bucket_range": (tuple(centers), 0.05, radii if seed % 2 else None),
        }[endpoint]
        calls.append(args)
    return calls


def _observables(proxy, resilience):
    fleet = proxy.backing_server
    return {
        "ledger": proxy.ledger_fingerprint(),
        "snapshot": proxy.channel_snapshot(),
        "channels": [
            (c.name, c.ledger_fingerprint(), c.retry_bytes, c.retry_log.fingerprint())
            for c in proxy.channels
        ],
        "stats": fleet.stats.per_shard(),
        "fault_events": resilience.fault_events(),
        "failover_events": proxy.failover_events(),
        "summary": resilience.summary(),
    }


def _same_answer(got, want) -> None:
    if isinstance(want, list):
        assert got == want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


def _cases():
    for shards in SHARD_COUNTS:
        for replicas in (1, 2):
            for scenario in SCENARIOS:
                if scenario == "dead_replica" and replicas == 1:
                    continue  # nothing to fail over to: the typed-error suites own that
                for marks in MARKS if replicas > 1 else ["plain"]:
                    yield pytest.param(
                        shards, replicas, scenario, marks,
                        id=f"{shards}x{replicas}-{scenario}-{marks}",
                    )


@pytest.mark.parametrize("endpoint", scatter_per_shard.ENDPOINTS)
@pytest.mark.parametrize("shards, replicas, scenario, marks", list(_cases()))
def test_fused_scatter_equals_per_shard_loop(endpoint, shards, replicas, scenario, marks):
    plan = _plan(scenario, shards, replicas)
    fused, fused_res = _connect(shards, replicas, plan)
    loop, loop_res = _connect(shards, replicas, plan)
    if marks in ("probe", "down"):
        verdicts = {f"{name}/1": marks for name in fused.backing_server.shard_names}
        fused.apply_health(verdicts)
        loop.apply_health(verdicts)
    for args in _script(endpoint):
        _same_answer(
            getattr(fused, endpoint)(*args), getattr(scatter_per_shard, endpoint)(loop, *args)
        )
    got, want = _observables(fused, fused_res), _observables(loop, loop_res)
    for key in want:
        assert got[key] == want[key], key
    if scenario != "no_faults":
        drawn = [kind for events in want["fault_events"].values() for _, kind, _ in events]
        assert set(drawn) - {"ok"}, "the plan never bit: the case proves nothing"
    if scenario == "dead_replica":
        # Replica 0 is the dead one: a probe verdict on replica 1 routes
        # around it before any exchange is lost.
        assert bool(want["failover_events"]) == (marks != "probe")
    if marks == "probe":
        assert any(c.total_bytes for c in loop.channels if c.name.endswith("/1"))


def test_count_batch_prefetched_books_what_count_batch_books():
    windows, _, _ = _requests(4)
    fused, fused_res = _connect(4, 2, _plan("recoverable", 4, 2))
    loop, loop_res = _connect(4, 2, _plan("recoverable", 4, 2))
    values = scatter_per_shard.count_batch(loop, windows)
    answer = fused.backing_server.evaluate_count_batch(windows)
    assert answer == values
    assert fused.count_batch_prefetched(windows, answer) == values
    assert _observables(fused, fused_res) == _observables(loop, loop_res)


@pytest.mark.parametrize("endpoint", scatter_per_shard.ENDPOINTS)
def test_unrecoverable_fault_mid_scatter_leaves_later_shards_unbooked(endpoint):
    plan = FaultPlan(seed=3, disconnects=(Disconnect("S#2", 0),))
    fused, fused_res = _connect(4, 1, plan)
    loop, loop_res = _connect(4, 1, plan)
    args = _script(endpoint)[0]
    with pytest.raises(ChannelFault):
        getattr(fused, endpoint)(*args)
    with pytest.raises(ChannelFault):
        getattr(scatter_per_shard, endpoint)(loop, *args)
    got, want = _observables(fused, fused_res), _observables(loop, loop_res)
    assert got == want
    stats = want["stats"]
    assert any(stats["S#0"].values()) and any(stats["S#1"].values())
    assert any(stats["S#2"].values())  # evaluated and booked, then its exchange died
    assert not any(stats["S#3"].values())
    assert fused.channels[3].total_bytes == 0 and not fused.channels[3].log.records


# ---------------------------------------------------------------------- #
# windows as an (N, 4) array == the same windows as a list of Rect
# ---------------------------------------------------------------------- #


def _stack(topology: str):
    """A connection of one topology, its resilience controller and the
    backing build (for the stat-free ``evaluate_*`` endpoints)."""
    from repro.server.remote import RemoteServer
    from repro.server.server import SpatialServer

    if topology == "plain":
        plan = FaultPlan(seed=13, drop_rate=0.2, stall_rate=0.15, duplicate_rate=0.15)
        resilience = ResilienceController(plan, RetryPolicy(max_attempts=8))
        channel = Channel(NetworkConfig(), name="S")
        resilience.register(channel)
        server = SpatialServer(clustered(n=600, clusters=5, seed=21, std=0.05, name="S"), name="S")
        return RemoteServer((server,), (channel,), resilience=resilience), resilience
    shards, replicas = {"sharded-4x4": (16, 1), "replicated": (4, 2)}[topology]
    return _connect(shards, replicas, _plan("recoverable", shards, replicas))


def _observed(proxy, resilience):
    return {
        "ledger": proxy.ledger_fingerprint(),
        "snapshot": proxy.channel_snapshot(),
        "retry": [(c.name, c.retry_bytes, c.retry_log.fingerprint()) for c in proxy.channels],
        "stats": proxy.server_stats(),
        "fault_events": resilience.fault_events(),
        "summary": resilience.summary(),
    }


def _same_payload(got, want) -> None:
    """Equal answers of one endpoint: counts, CSR triples, per-window
    ``(mbrs, oids)`` pairs or a ``Prefetched``, arrays compared exactly."""
    if hasattr(want, "bounds") and not isinstance(want, tuple):
        got, want = ([getattr(a, name) for name in a.__slots__] for a in (got, want))
    if isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            _same_payload(g, w)
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert got == want


@pytest.mark.parametrize("topology", ["plain", "sharded-4x4", "replicated"])
def test_window_arrays_and_rect_lists_are_answered_and_booked_alike(topology):
    """Every window-taking batch endpoint -- connection and backing build --
    takes the frontier tables' ``(N, 4)`` array as is: same answers, server
    statistics, both ledger lanes and drawn fault events as the ``List[Rect]``."""
    by_list, list_res = _stack(topology)
    by_array, array_res = _stack(topology)
    for seed in (1, 2, 3):
        windows, _, _ = _requests(seed)
        rows = np.array([w.as_tuple() for w in windows])
        for endpoint in ("count_batch", "window_batch_flat", "window_batch"):
            _same_payload(getattr(by_array, endpoint)(rows), getattr(by_list, endpoint)(windows))
        # The broker's path: evaluate on the build, book on the connection.
        builds = by_array.backing_server, by_list.backing_server
        values = [build.evaluate_count_batch(w) for build, w in zip(builds, (rows, windows))]
        assert values[0] == values[1]
        assert by_array.count_batch_prefetched(rows, values[0]) == by_list.count_batch_prefetched(
            windows, values[1]
        )
        answers = [build.evaluate_window_batch(w) for build, w in zip(builds, (rows, windows))]
        _same_payload(*answers)
        _same_payload(
            by_array.book_window_batch(rows, answers[0]),
            by_list.book_window_batch(windows, answers[1]),
        )
        # No window at all is no exchange, either way.
        assert by_array.count_batch(np.empty((0, 4))) == by_list.count_batch([]) == []
    got, want = _observed(by_array, array_res), _observed(by_list, list_res)
    for key in want:
        assert got[key] == want[key], key
    drawn = [kind for events in want["fault_events"].values() for _, kind, _ in events]
    assert set(drawn) - {"ok"}, "the plan never bit: the case proves nothing"
    assert want["stats"]["count_queries"] and want["stats"]["objects_returned"]


@pytest.mark.parametrize("topology", ["plain", "sharded-4x4", "replicated"])
def test_probe_arrays_and_point_lists_are_answered_and_booked_alike(topology):
    """Every probe-taking batch endpoint -- connection and backing build --
    takes the operators' ``(P, 2)`` centre / ``(P,)`` radius arrays as is:
    same answers, server statistics, both ledger lanes and drawn fault
    events as the equivalent ``List[Point]`` / ``List[float]``."""
    by_list, list_res = _stack(topology)
    by_array, array_res = _stack(topology)
    for seed in (1, 2, 3):
        _, centers, radii = _requests(seed)
        pts = np.array([(p.x, p.y) for p in centers])
        reach = np.array(radii)
        for endpoint in ("range_batch_flat", "range_batch"):
            _same_payload(
                getattr(by_array, endpoint)(pts, reach), getattr(by_list, endpoint)(centers, radii)
            )
        for per_probe in ((reach, radii), (None, None)):
            _same_payload(
                by_array.bucket_range(pts, 0.05, per_probe[0]),
                by_list.bucket_range(centers, 0.05, per_probe[1]),
            )
        # The broker's path: evaluate on the build, book on the connection.
        builds = by_array.backing_server, by_list.backing_server
        answers = [
            build.evaluate_range_batch(*probes)
            for build, probes in zip(builds, ((pts, reach), (centers, radii)))
        ]
        _same_payload(*answers)
        _same_payload(
            by_array.book_range_batch(pts, reach, answers[0]),
            by_list.book_range_batch(centers, radii, answers[1]),
        )
        _same_payload(
            by_array.book_bucket_range(pts, 0.2, reach, answers[0]),
            by_list.book_bucket_range(centers, 0.2, radii, answers[1]),
        )
        # No probe at all is no exchange, either way.
        _same_payload(
            by_array.range_batch_flat(np.empty((0, 2)), np.empty(0)),
            by_list.range_batch_flat([], []),
        )
    got, want = _observed(by_array, array_res), _observed(by_list, list_res)
    for key in want:
        assert got[key] == want[key], key
    drawn = [kind for events in want["fault_events"].values() for _, kind, _ in events]
    assert set(drawn) - {"ok"}, "the plan never bit: the case proves nothing"
    stats = want["stats"]
    assert stats["range_queries"] and stats["bucket_range_probes"] and stats["objects_returned"]


_BAD_PROBES = {
    "nan-radius": ([Point(0.5, 0.5)], [float("nan")]),
    "inf-radius": ([Point(0.5, 0.5)], [float("inf")]),
    "negative-radius": ([Point(0.5, 0.5)], [-0.1]),
    "nan-centre": ([Point(float("nan"), 0.5)], [0.1]),
    "inf-centre": ([Point(0.5, float("inf"))], [0.1]),
}


@pytest.mark.parametrize("as_arrays", [False, True], ids=["points", "arrays"])
@pytest.mark.parametrize("bad", sorted(_BAD_PROBES))
@pytest.mark.parametrize("topology", ["plain", "sharded-4x4", "replicated"])
def test_unusable_probes_are_rejected_before_anything_is_booked(topology, bad, as_arrays):
    """A non-finite or negative radius and a non-finite centre used to be
    answered silently (``nan`` matches nothing, ``inf`` the whole dataset),
    metered and counted; now every probe-taking entry path raises
    ``InvalidInput`` -- the negative case with the message it always had --
    with no statistic bumped, no byte booked and no fault event drawn."""
    from repro.errors import InvalidInput

    proxy, resilience = _stack(topology)
    build = proxy.backing_server
    untouched = _observed(proxy, resilience)
    _, good_centers, good_radii = _requests(1)
    answer = build.evaluate_range_batch(good_centers[:1], good_radii[:1])
    centers, radii = _BAD_PROBES[bad]
    if as_arrays:
        centers, radii = np.array([(p.x, p.y) for p in centers]), np.array(radii)
    message = "epsilon must be non-negative" if bad == "negative-radius" else "finite"
    attempts = [
        lambda: proxy.range_batch_flat(centers, radii),
        lambda: proxy.range_batch(centers, radii),
        lambda: proxy.bucket_range(centers, 0.05, radii),
        lambda: build.evaluate_range_batch(centers, radii),
        lambda: proxy.book_range_batch(centers, radii, answer),
        lambda: proxy.book_bucket_range(centers, 0.05, radii, answer),
    ]
    if "radius" in bad:
        # The bucket's own epsilon is every probe's radius when there is no column.
        attempts.append(lambda: proxy.bucket_range(good_centers[:1], float(radii[0])))
        attempts.append(lambda: proxy.range(good_centers[0], float(radii[0])))
    for attempt in attempts:
        with pytest.raises(InvalidInput, match=message):
            attempt()
    assert _observed(proxy, resilience) == untouched
    if topology == "plain":
        for attempt in (
            lambda: build.range_batch_flat(centers, radii),
            lambda: build.bucket_range(centers, 0.05, radii),
        ):
            with pytest.raises(InvalidInput, match=message):
                attempt()
        assert not any(build.stats.as_dict().values())


_BAD_WINDOWS = {
    "nan": Rect(0.0, 0.0, float("nan"), 1.0),
    "inf": Rect(0.0, 0.0, float("inf"), 1.0),
    "-inf": Rect(float("-inf"), 0.0, 1.0, 1.0),
}


@pytest.mark.parametrize("as_arrays", [False, True], ids=["rects", "arrays"])
@pytest.mark.parametrize("bad", sorted(_BAD_WINDOWS))
@pytest.mark.parametrize("topology", ["plain", "sharded-4x4", "replicated"])
def test_unusable_windows_are_rejected_before_anything_is_booked(topology, bad, as_arrays):
    """A non-finite window used to be answered silently (a ``nan`` edge
    fails every "lies outside" test, so COUNT answered the whole dataset),
    counted and booked; now every window-taking entry path raises
    ``InvalidInput`` where probe-taking ones do, with no statistic bumped,
    no byte booked and no fault event drawn.  ``nan`` is also the one input
    on which the index's page comparisons and the ``~(a < b)`` forms differ."""
    from repro.errors import InvalidInput

    proxy, resilience = _stack(topology)
    build = proxy.backing_server
    untouched = _observed(proxy, resilience)
    good, _, _ = _requests(1)
    window = _BAD_WINDOWS[bad]
    windows = [good[0], window]
    answer = build.evaluate_window_batch(good[:2])
    if as_arrays:
        windows = np.array([w.as_tuple() for w in windows])
    attempts = [
        lambda: proxy.count_batch(windows),
        lambda: proxy.window_batch_flat(windows),
        lambda: proxy.window_batch(windows),
        lambda: proxy.count(window),
        lambda: proxy.window(window),
        lambda: build.evaluate_count_batch(windows),
        lambda: build.evaluate_window_batch(windows),
        lambda: proxy.count_batch_prefetched(windows, [0, 0]),
        lambda: proxy.book_window_batch(windows, answer),
    ]
    if topology == "plain":
        attempts += [
            lambda: build.count_batch(windows),
            lambda: build.window_batch_flat(windows),
            lambda: build.count(window),
            lambda: build.window(window),
            lambda: build.average_mbr_area(window),
            lambda: build.index.count(window),
            lambda: build.index.window_query(window),
        ]
    for attempt in attempts:
        with pytest.raises(InvalidInput, match="finite"):
            attempt()
    assert _observed(proxy, resilience) == untouched
    assert not any(proxy.server_stats().values())


class TestOneDescentPerScatter:
    """One batch call of the scatter proxy is one ``FlatRTree`` batch call.

    This is ``index.query.calls_per_op`` of ``BENCHMARK.json``'s
    ``fleet_faults`` workload -- a count that repeats exactly -- held in
    tier-1 so a change that re-introduces per-shard descents fails here and
    not only in the wall-clock record.
    """

    QUERIES = ("count_batch", "window_batch_flat", "range_batch_flat", "window_batch", "range_batch")

    @pytest.mark.parametrize("shards, replicas", [(1, 1), (4, 1), (4, 2), (16, 2)])
    def test_descents_do_not_scale_with_shards_or_replicas(self, shards, replicas, monkeypatch):
        calls = []
        for name in self.QUERIES:
            original = getattr(FlatRTree, name)

            def counted(self, *args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(FlatRTree, name, counted)

        proxy, _ = _connect(shards, replicas, _plan("recoverable", shards, replicas))
        windows, centers, radii = _requests(5)
        for endpoint, args, descent in (
            ("count_batch", (windows,), "count_batch"),
            ("window_batch_flat", (windows,), "window_batch_flat"),
            ("window_batch", (windows,), "window_batch_flat"),
            ("range_batch_flat", (centers, radii), "range_batch_flat"),
            ("range_batch", (centers, radii), "range_batch_flat"),
            ("bucket_range", (tuple(centers), 0.05), "range_batch_flat"),
        ):
            calls.clear()
            getattr(proxy, endpoint)(*args)
            assert calls == [descent], endpoint
        # The broker's coalesced COUNT is one routed descent too; booking
        # its answer descends nothing.
        calls.clear()
        values = proxy.backing_server.evaluate_count_batch(windows)
        assert calls == ["count_batch"]
        proxy.count_batch_prefetched(windows, values)
        assert calls == ["count_batch"]
