"""Tests for the vectorised batch execution layer.

The batch entry points (flattened R-tree traversal, server batch queries,
metered batch proxies) must return exactly what a loop of scalar calls
returns -- same result sets, same server statistics, same wire bytes.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import clustered, uniform
from repro.datasets.railway import generate_railway_like
from repro.geometry import rect_array
from repro.geometry.point import Point
from repro.geometry.predicates import IntersectionPredicate, WithinDistancePredicate
from repro.geometry.rect import Rect
from repro.index.aggregate_rtree import AggregateRTree
from repro.index.plane_sweep import plane_sweep_pairs
from repro.network.config import NetworkConfig
from repro.server.remote import ServerPair
from repro.server.server import SpatialServer

from tests.oracles.plane_sweep_scalar import plane_sweep_pairs_scalar
from tests.oracles.pointer_rtree import RTree
from tests.oracles.semijoin_scalar import ScalarSemiJoin


def _random_windows(n: int, seed: int):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-0.1, 0.9, size=n)
    ys = rng.uniform(-0.1, 0.9, size=n)
    ws = rng.uniform(0.0, 0.4, size=(n, 2))
    return [
        Rect(float(x), float(y), float(x + w), float(y + h))
        for x, y, (w, h) in zip(xs, ys, ws)
    ]


class TestFlatTreeBatches:
    @pytest.mark.parametrize("dataset", ["uniform", "clustered", "railway"])
    def test_window_and_count_batch_match_scalar(self, dataset):
        if dataset == "railway":
            ds = generate_railway_like(n_segments=400, seed=5, hubs=8)
        elif dataset == "clustered":
            ds = clustered(n=500, clusters=5, seed=3)
        else:
            ds = uniform(n=500, seed=2)
        tree = RTree.bulk_load(ds.entries(), max_entries=8)
        windows = _random_windows(40, seed=9)
        wins = rect_array.rects_to_array(windows)
        batched = tree.flat_view().window_batch(wins)
        counts = tree.flat_view().count_batch(wins).tolist()
        for window, oids, count in zip(windows, batched, counts):
            scalar = tree.window_query(window)
            assert sorted(oids.tolist()) == sorted(scalar)
            assert count == len(scalar)

    def test_range_batch_matches_scalar(self):
        ds = clustered(n=400, clusters=4, seed=7)
        tree = RTree.bulk_load(ds.entries(), max_entries=8)
        rng = np.random.default_rng(1)
        centers = [Point(float(x), float(y)) for x, y in rng.uniform(0, 1, size=(60, 2))]
        radii = rng.uniform(0.0, 0.1, size=60).tolist()
        pts = np.array([(p.x, p.y) for p in centers])
        batched = tree.flat_view().range_batch(pts, np.array(radii))
        for center, radius, oids in zip(centers, radii, batched):
            assert sorted(oids.tolist()) == sorted(tree.range_query(center, radius))

    def test_aggregate_count_batch_matches_scalar(self):
        ds = generate_railway_like(n_segments=300, seed=11, hubs=6)
        agg = AggregateRTree(ds.entries(), max_entries=8)
        windows = _random_windows(30, seed=13)
        assert agg.count_batch(windows) == [agg.count(w) for w in windows]

    def test_flat_view_rebuilt_after_insert(self):
        tree = RTree(max_entries=4)
        for i in range(10):
            tree.insert(Rect(i * 0.1, 0.0, i * 0.1 + 0.05, 0.05), i)
        everything = np.array([[-1.0, -1.0, 2.0, 2.0]])
        assert tree.flat_view().count_batch(everything).tolist() == [10]
        tree.insert(Rect(0.5, 0.5, 0.6, 0.6), 99)
        assert tree.flat_view().count_batch(everything).tolist() == [11]
        assert 99 in tree.flat_view().window_batch(everything)[0].tolist()

    def test_empty_tree_and_empty_batch(self):
        flat = RTree(max_entries=4).flat_view()
        assert flat.window_batch(np.empty((0, 4))) == []
        assert flat.count_batch(np.array([[0.0, 0.0, 1.0, 1.0]])).tolist() == [0]
        assert flat.range_batch(np.empty((0, 2)), np.empty(0)) == []
        empty = AggregateRTree([], max_entries=4)
        assert empty.count_batch([Rect(0, 0, 1, 1)]) == [0]


class TestServerBatches:
    def _pair(self):
        ds_r = clustered(n=200, clusters=3, seed=17, name="R")
        ds_s = clustered(n=200, clusters=3, seed=18, name="S")
        server_r = SpatialServer(ds_r, name="R")
        server_s = SpatialServer(ds_s, name="S")
        return ServerPair.connect(server_r, server_s, config=NetworkConfig())

    def test_count_batch_bytes_match_scalar_loop(self):
        pair_a = self._pair()
        pair_b = self._pair()
        windows = _random_windows(12, seed=19)
        batched = pair_a.r.count_batch(windows)
        looped = [pair_b.r.count(w) for w in windows]
        assert batched == looped
        assert pair_a.r.total_bytes() == pair_b.r.total_bytes()
        assert pair_a.r.channel.snapshot() == pair_b.r.channel.snapshot()
        assert (
            pair_a.r.backing_server.stats.as_dict()
            == pair_b.r.backing_server.stats.as_dict()
        )

    def test_window_batch_bytes_match_scalar_loop(self):
        pair_a = self._pair()
        pair_b = self._pair()
        windows = _random_windows(12, seed=23)
        batched = pair_a.s.window_batch(windows)
        looped = [pair_b.s.window(w) for w in windows]
        for (mbrs_a, oids_a), (mbrs_b, oids_b) in zip(batched, looped):
            assert sorted(oids_a.tolist()) == sorted(oids_b.tolist())
            assert mbrs_a.shape == mbrs_b.shape
        assert pair_a.s.total_bytes() == pair_b.s.total_bytes()
        assert (
            pair_a.s.backing_server.stats.as_dict()
            == pair_b.s.backing_server.stats.as_dict()
        )

    def test_range_batch_bytes_match_scalar_loop(self):
        pair_a = self._pair()
        pair_b = self._pair()
        rng = np.random.default_rng(29)
        centers = [Point(float(x), float(y)) for x, y in rng.uniform(0, 1, size=(15, 2))]
        radii = rng.uniform(0.0, 0.08, size=15).tolist()
        batched = pair_a.r.range_batch(centers, radii)
        looped = [pair_b.r.range(c, e) for c, e in zip(centers, radii)]
        for (_, oids_a), (_, oids_b) in zip(batched, looped):
            assert sorted(oids_a.tolist()) == sorted(oids_b.tolist())
        assert pair_a.r.total_bytes() == pair_b.r.total_bytes()
        assert (
            pair_a.r.backing_server.stats.as_dict()
            == pair_b.r.backing_server.stats.as_dict()
        )

    @pytest.mark.parametrize("endpoint", ["range_batch_flat", "bucket_range"])
    def test_probe_arrays_match_the_scalar_loop_too(self, endpoint):
        """The operators hand probes over as a ``(P, 2)`` / ``(P,)`` pair: the
        same rows, statistics and ledger records as the ``Point`` loop (one
        exchange per probe, or the one bucket exchange)."""
        pair_a = self._pair()
        pair_b = self._pair()
        rng = np.random.default_rng(31)
        pts = rng.uniform(0, 1, size=(15, 2))
        radii = rng.uniform(0.0, 0.08, size=15)
        centers = [Point(float(x), float(y)) for x, y in pts]
        if endpoint == "range_batch_flat":
            mbrs, oids, bounds = pair_a.r.range_batch_flat(pts, radii)
            looped = [pair_b.r.range(c, e) for c, e in zip(centers, radii.tolist())]
            assert bounds.tolist() == np.cumsum([0] + [len(o) for _, o in looped]).tolist()
        else:
            mbrs, oids, probes = pair_a.r.bucket_range(pts, 0.08, radii)
            _, want_oids, want_probes = pair_b.r.bucket_range(centers, 0.08, radii.tolist())
            looped = [(None, want_oids)]
            assert probes.tolist() == want_probes.tolist()
        assert oids.tolist() == np.concatenate([o for _, o in looped]).tolist()
        assert mbrs.shape == (oids.shape[0], 4)
        # A batch writes its queries, then its payloads; the loop alternates.
        assert Counter(pair_a.r.channel.log.records) == Counter(pair_b.r.channel.log.records)
        assert pair_a.r.channel.snapshot() == pair_b.r.channel.snapshot()
        assert pair_a.r.backing_server.stats == pair_b.r.backing_server.stats


class TestWindowBatchFlat:
    """The CSR window endpoint must decompose into the per-window batch."""

    def _pair(self):
        ds_r = clustered(n=220, clusters=3, seed=31, name="R")
        ds_s = clustered(n=220, clusters=4, seed=32, name="S")
        server_r = SpatialServer(ds_r, name="R")
        server_s = SpatialServer(ds_s, name="S")
        return ServerPair.connect(server_r, server_s, config=NetworkConfig())

    def test_server_flat_matches_window_batch(self):
        ds = clustered(n=300, clusters=5, seed=33)
        server = SpatialServer(ds, name="R")
        windows = _random_windows(25, seed=35)
        mbrs, oids, bounds = server.window_batch_flat(windows)
        assert bounds.shape == (len(windows) + 1,)
        assert bounds[0] == 0 and bounds[-1] == oids.shape[0]
        fresh = SpatialServer(ds, name="R")
        per_window = fresh.window_batch(windows)
        for i, (w_mbrs, w_oids) in enumerate(per_window):
            assert oids[bounds[i] : bounds[i + 1]].tolist() == w_oids.tolist()
            assert np.array_equal(mbrs[bounds[i] : bounds[i + 1]], w_mbrs)
        assert server.stats.as_dict() == fresh.stats.as_dict()

    def test_remote_flat_ledger_identical_to_scalar_loop(self):
        pair_a = self._pair()
        pair_b = self._pair()
        windows = _random_windows(14, seed=37)
        mbrs, oids, bounds = pair_a.r.window_batch_flat(windows)
        looped = [pair_b.r.window(w) for w in windows]
        for i, (_, w_oids) in enumerate(looped):
            assert sorted(oids[bounds[i] : bounds[i + 1]].tolist()) == sorted(
                w_oids.tolist()
            )
        assert pair_a.r.total_bytes() == pair_b.r.total_bytes()
        assert pair_a.r.channel.snapshot() == pair_b.r.channel.snapshot()
        # Batching groups the query records before the responses; the
        # record *multiset* must still be exactly the scalar loop's.
        assert sorted(pair_a.r.channel.log.fingerprint()) == sorted(
            pair_b.r.channel.log.fingerprint()
        )
        assert (
            pair_a.r.backing_server.stats.as_dict()
            == pair_b.r.backing_server.stats.as_dict()
        )

    def test_empty_batch(self):
        server = SpatialServer(uniform(n=50, seed=39), name="R")
        mbrs, oids, bounds = server.window_batch_flat([])
        assert mbrs.shape == (0, 4) and oids.shape == (0,)
        assert bounds.tolist() == [0]
        assert server.stats.window_queries == 0


class TestSemiJoinBatchExecution:
    """SemiJoin's flat relay == the scalar protocol loop (the oracle), bit for bit."""

    def _run(self, scalar, seed=41, epsilon=0.04):
        from unittest import mock

        from repro.api import AdHocJoinSession
        from repro.core.planner import ALGORITHMS

        r = clustered(n=150, clusters=3, seed=seed, name="R")
        s = uniform(n=90, seed=seed + 7, name="S")
        session = AdHocJoinSession(r, s, buffer_size=200, indexed=True)
        with mock.patch.dict(ALGORITHMS, {"semijoin": ScalarSemiJoin} if scalar else {}):
            return session.run(algorithm="semijoin", kind="distance", epsilon=epsilon)

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_batch_equals_scalar(self, seed):
        batch = self._run(False, seed=seed)
        scalar = self._run(True, seed=seed)
        assert batch.sorted_pairs() == scalar.sorted_pairs()
        assert batch.total_bytes == scalar.total_bytes
        assert batch.bytes_r == scalar.bytes_r
        assert batch.bytes_s == scalar.bytes_s
        assert batch.server_stats == scalar.server_stats
        assert batch.channel_stats == scalar.channel_stats
        assert [e.action for e in batch.trace] == [e.action for e in scalar.trace]
        assert [e.detail for e in batch.trace] == [e.detail for e in scalar.trace]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_relay_takes_a_window_array(self, n):
        """``upload_windows_and_collect`` takes ``Windows``, yet ``if not
        windows`` raised an untyped ``ValueError`` on every ``(N, 4)`` array:
        an array relays what the same windows as ``Rect`` s relay."""
        windows = [Rect(0.0, 0.0, 0.6, 0.6), Rect(0.3, 0.3, 1.0, 1.0)][:n]
        rows = np.array([w.as_tuple() for w in windows]).reshape(-1, 4)
        by_list, by_array = (
            ServerPair.connect(
                SpatialServer(clustered(n=200, clusters=3, seed=47, name="R"), name="R"),
                SpatialServer(uniform(n=50, seed=48, name="S"), name="S"),
                indexed=True,
            )
            for _ in range(2)
        )
        got = by_array.r.upload_windows_and_collect(rows)
        want = by_list.r.upload_windows_and_collect(windows)
        assert want[1].shape[0] if n else not want[1].shape[0]
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)
        assert by_array.r.channel.snapshot() == by_list.r.channel.snapshot()
        assert by_array.r.server_stats() == by_list.r.server_stats()


class TestBrokerDeterminismCompact:
    """Shuffled submission order => identical per-query results and bytes."""

    def test_shuffled_orders_identical(self):
        import random

        from repro.core.join_types import JoinSpec
        from repro.service import JoinQuery, QueryBroker

        r = clustered(n=100, clusters=3, seed=51, name="R")
        s = clustered(n=100, clusters=2, seed=52, name="S")
        queries = [
            JoinQuery(r, s, JoinSpec.distance(0.03), algorithm=a, buffer_size=96)
            for a in ("upjoin", "srjoin", "mobijoin", "naive")
        ]
        baseline = {
            id(o.query): (o.result.sorted_pairs(), o.result.total_bytes,
                          o.result.bytes_r, o.result.bytes_s)
            for o in QueryBroker(cache=False).run_batch(queries)
        }
        shuffled = list(queries)
        random.Random(9).shuffle(shuffled)
        for outcome in QueryBroker(cache=False).run_batch(shuffled):
            assert (
                outcome.result.sorted_pairs(),
                outcome.result.total_bytes,
                outcome.result.bytes_r,
                outcome.result.bytes_s,
            ) == baseline[id(outcome.query)]


class TestVectorisedSweepAgainstScalarReference:
    @given(
        st.integers(min_value=0, max_value=70),
        st.integers(min_value=0, max_value=70),
        st.integers(min_value=0, max_value=5000),
        st.floats(min_value=0.0, max_value=0.15),
    )
    @settings(max_examples=40, deadline=None)
    def test_same_pairs_as_scalar_sweep(self, na, nb, seed, eps):
        rng = np.random.default_rng(seed)
        def mk(n, s):
            pts = rng.uniform(0, 1, size=(n, 2))
            ext = rng.uniform(0, 0.05, size=(n, 2))
            return np.column_stack([pts, np.minimum(pts + ext, 1.0)])
        a, b = mk(na, seed), mk(nb, seed + 1)
        predicate = WithinDistancePredicate(eps) if eps > 0 else IntersectionPredicate()
        assert set(plane_sweep_pairs(a, b, predicate)) == set(
            plane_sweep_pairs_scalar(a, b, predicate)
        )


class TestRectArrayBatchKernels:
    def test_expand_index_ranges(self):
        starts = np.array([3, 0, 5, 7])
        ends = np.array([5, 0, 8, 6])  # second empty, fourth negative-length
        row, idx = rect_array.expand_index_ranges(starts, ends)
        assert row.tolist() == [0, 0, 2, 2, 2]
        assert idx.tolist() == [3, 4, 5, 6, 7]

    def test_clip_to_window_matches_intersection(self):
        windows = _random_windows(50, seed=43)
        arr = rect_array.rects_to_array(windows)
        clip_window = Rect(0.2, 0.2, 0.7, 0.7)
        clipped, valid = rect_array.clip_to_window(arr, clip_window)
        for window, row, ok in zip(windows, clipped, valid):
            inter = window.intersection(clip_window)
            assert bool(ok) == (inter is not None)
            if inter is not None:
                assert inter == Rect(*(float(v) for v in row))

