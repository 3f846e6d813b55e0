"""Tests for the server substrate: SpatialServer and the metered proxies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.dataset import SpatialDataset
from repro.datasets.synthetic import clustered, uniform
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.network.channel import Channel
from repro.network.config import NetworkConfig
from repro.network.messages import MessageKind
from repro.network.packets import transferred_bytes
from repro.server.remote import RemoteServer, ServerPair
from repro.server.server import SpatialServer

from tests.oracles import scalar_endpoints


@pytest.fixture
def dataset() -> SpatialDataset:
    return uniform(n=200, seed=5)


@pytest.fixture
def server(dataset) -> SpatialServer:
    return SpatialServer(dataset, name="R")


@pytest.fixture
def pair() -> ServerPair:
    r = SpatialServer(uniform(n=150, seed=1), name="R")
    s = SpatialServer(uniform(n=150, seed=2), name="S")
    return ServerPair.connect(r, s)


class TestSpatialServer:
    def test_a_server_is_its_name_and_its_index(self, server, dataset):
        """Plain, shard and replica servers hold the same two fields: the
        dataset goes once the index is built from it."""
        from repro.index.flat import FlatRTree
        from repro.server.sharded import ShardedSpatialServer

        fleet = ShardedSpatialServer(dataset, "R", shards=4, scheme="str", replicas=2)
        for unit in (server, server.replica_view("R/1"), *fleet.breaker_units()):
            assert set(vars(unit)) == {"name", "index"}, unit.name
            assert type(unit.index) is FlatRTree and len(unit) == unit.index.size
        assert sorted(server.index.entry_oids.tolist()) == sorted(dataset.oids.tolist())
        assert sum(len(shard) for shard in fleet.shards) == len(dataset)

    def test_window_matches_dataset_filter(self, server, dataset):
        window = Rect(0.2, 0.2, 0.7, 0.7)
        mbrs, oids = server.window(window)
        expected = set(dataset.oids[dataset.window_mask(window)].tolist())
        assert set(oids.tolist()) == expected
        assert mbrs.shape == (len(expected), 4)

    def test_count_matches_window(self, server):
        window = Rect(0.1, 0.5, 0.4, 0.9)
        assert server.count(window) == len(server.window(window)[1])
        assert server.count(window) == scalar_endpoints.count(server, window)

    def test_range_query_semantics(self, server, dataset):
        center = Point(0.5, 0.5)
        eps = 0.2
        _, oids = server.range(center, eps)
        centers = dataset.centers()
        dists = np.hypot(centers[:, 0] - 0.5, centers[:, 1] - 0.5)
        expected = set(dataset.oids[dists <= eps].tolist())
        assert set(oids.tolist()) == expected

    def test_range_negative_eps_raises(self, server):
        with pytest.raises(ValueError):
            server.range(Point(0.5, 0.5), -0.1)

    def test_bucket_range_groups_by_probe(self, server):
        probes = [Point(0.2, 0.2), Point(0.8, 0.8)]
        mbrs, oids, probe_idx = server.bucket_range(probes, 0.15)
        assert mbrs.shape[0] == oids.shape[0] == probe_idx.shape[0]
        for i, probe in enumerate(probes):
            single_mbrs, single_oids = scalar_endpoints.range(server, probe, 0.15)
            assert set(oids[probe_idx == i].tolist()) == set(single_oids.tolist())

    def test_bucket_range_empty_probe_list_raises(self, server):
        with pytest.raises(ValueError):
            server.bucket_range([], 0.1)

    def test_average_mbr_area_zero_for_points(self, server):
        assert server.average_mbr_area(Rect(0, 0, 1, 1)) == 0.0

    def test_stats_counters(self, server):
        proxy = RemoteServer((server,), (Channel(NetworkConfig(), name=server.name),))
        proxy.window(Rect(0, 0, 1, 1))
        proxy.count(Rect(0, 0, 0.5, 0.5))
        proxy.range(Point(0.5, 0.5), 0.1)
        stats = proxy.server_stats()
        assert stats["window_queries"] == 1
        assert stats["count_queries"] == 1
        assert stats["range_queries"] == 1
        assert stats["objects_returned"] >= 200


class TestRemoteServer:
    def test_results_match_backing_server(self, pair):
        window = Rect(0.1, 0.1, 0.6, 0.6)
        remote_mbrs, remote_oids = pair.r.window(window)
        direct_mbrs, direct_oids = scalar_endpoints.window(pair.r.backing_server, window)
        assert set(remote_oids.tolist()) == set(direct_oids.tolist())

    def test_window_accounting(self, pair):
        cfg = pair.r.config
        window = Rect(0.0, 0.0, 1.0, 1.0)
        pair.reset()
        mbrs, oids = pair.r.window(window)
        expected = (cfg.header_bytes + cfg.query_bytes) + transferred_bytes(
            len(oids) * cfg.object_bytes, cfg
        )
        assert pair.r.total_bytes() == expected
        assert pair.s.total_bytes() == 0

    def test_count_accounting_is_taq(self, pair):
        cfg = pair.r.config
        pair.reset()
        pair.s.count(Rect(0, 0, 1, 1))
        expected = (cfg.header_bytes + cfg.query_bytes) + (cfg.header_bytes + cfg.answer_bytes)
        assert pair.s.total_bytes() == expected

    def test_bucket_range_charges_probe_upload_and_overhead(self, pair):
        cfg = pair.r.config
        pair.reset()
        probes = [Point(0.5, 0.5), Point(0.2, 0.8), Point(0.9, 0.1)]
        mbrs, oids, _ = pair.s.bucket_range(probes, 0.05)
        uplink = pair.s.channel.uplink_bytes
        assert uplink == transferred_bytes(cfg.query_bytes + 3 * cfg.object_bytes, cfg)
        downlink = pair.s.channel.downlink_bytes
        assert downlink == transferred_bytes((len(oids) + 3) * cfg.object_bytes, cfg)

    def test_pair_totals_sum_servers(self, pair):
        pair.reset()
        pair.r.count(Rect(0, 0, 1, 1))
        pair.s.count(Rect(0, 0, 1, 1))
        assert pair.total_bytes() == pair.r.total_bytes() + pair.s.total_bytes()

    def test_asymmetric_tariffs(self):
        cfg = NetworkConfig(tariff_r=1.0, tariff_s=3.0)
        r = SpatialServer(uniform(n=50, seed=1), name="R")
        s = SpatialServer(uniform(n=50, seed=2), name="S")
        pair = ServerPair.connect(r, s, config=cfg)
        pair.r.count(Rect(0, 0, 1, 1))
        pair.s.count(Rect(0, 0, 1, 1))
        assert pair.s.total_cost() == pytest.approx(3.0 * pair.s.total_bytes())
        assert pair.total_cost() == pytest.approx(
            pair.r.total_bytes() + 3.0 * pair.s.total_bytes()
        )


def _indexed_data():
    """The datasets behind ``indexed_pair``: R, then S."""
    return clustered(n=300, clusters=3, seed=3), clustered(n=120, clusters=3, seed=4)


class TestIndexedRemoteServer:
    """SemiJoin's relay endpoints, on every connection to one server."""

    @pytest.fixture
    def indexed_pair(self) -> ServerPair:
        r, s = _indexed_data()
        return ServerPair.connect(SpatialServer(r, name="R"), SpatialServer(s, name="S"))

    def test_proxies_are_indexed(self, indexed_pair):
        # One connection class: the relay's name is only an alias of it.
        from repro.server import remote

        assert remote.IndexedRemoteServer is RemoteServer
        assert type(indexed_pair.r) is RemoteServer and type(indexed_pair.s) is RemoteServer

    def test_object_count_and_height(self, indexed_pair):
        assert indexed_pair.r.object_count() == 300
        assert indexed_pair.s.object_count() == 120
        assert indexed_pair.r.tree_height() >= 2

    def test_relay_metadata_of_an_empty_server(self):
        """An empty server publishes 0 objects, a one-level tree and no level
        MBRs; each answer is one AGGREGATE query and its answer on the wire."""
        empty = SpatialServer(uniform(0, seed=1), name="R")
        pair = ServerPair.connect(empty, SpatialServer(uniform(50, seed=2), name="S"))
        cfg = pair.r.config
        for call, want, answer, payload in (
            (pair.r.object_count, 0, MessageKind.SCALAR, cfg.answer_bytes),
            (pair.r.tree_height, 1, MessageKind.SCALAR, cfg.answer_bytes),
            (pair.r.level_mbrs, [], MessageKind.OBJECTS, 0),
        ):
            pair.reset()
            assert call() == want
            records = [(r.direction, r.kind, r.payload_bytes) for r in pair.r.channel.log.records]
            assert records == [
                ("up", MessageKind.AGGREGATE, cfg.query_bytes),
                ("down", answer, payload),
            ]

    def test_level_mbrs_cover_dataset(self, indexed_pair):
        rects = indexed_pair.r.level_mbrs()
        assert rects
        dataset, _ = _indexed_data()
        for rect, _ in dataset:
            assert any(level.contains_rect(rect) for level in rects)

    def test_upload_windows_and_collect_dedupes(self, indexed_pair):
        windows = [Rect(0.0, 0.0, 1.0, 1.0), Rect(0.0, 0.0, 0.5, 0.5)]
        mbrs, oids = indexed_pair.s.upload_windows_and_collect(windows)
        assert len(set(oids.tolist())) == len(oids)
        assert len(oids) == 120  # the full window returns every object exactly once

    def test_upload_objects_and_join_matches_oracle(self, indexed_pair):
        r_dataset, s_dataset = _indexed_data()
        # The two datasets' clusters lie more than 0.1 apart: a smaller
        # epsilon would hold the join to an empty answer.
        pairs = indexed_pair.r.upload_objects_and_join(
            s_dataset.mbrs, s_dataset.oids, epsilon=0.15
        )
        from tests.oracles.operators_scalar import pairwise_within_distance

        matrix = pairwise_within_distance(s_dataset.mbrs, r_dataset.mbrs, 0.15)
        expected = {
            (int(s_dataset.oids[i]), int(r_dataset.oids[j]))
            for i, j in zip(*np.nonzero(matrix))
        }
        assert expected
        assert pairs.dtype == np.int64 and pairs.shape[1:] == (2,)
        assert set(map(tuple, pairs.tolist())) == expected


def test_a_join_batch_answers_each_upload_its_own_pairs():
    """Uploads of several queries meet in one JOIN group: uploads of one
    epsilon share a kernel call, yet each gets exactly the pairs it gets
    alone, and an empty upload gets none."""
    r, _ = _indexed_data()
    server = SpatialServer(r, name="R")
    uploads = [
        (r.mbrs[:60], r.oids[:60] + 1000, 0.05),
        (r.mbrs[40:], r.oids[40:] + 1000, 0.0),
        (r.mbrs[:0], r.oids[:0], 0.05),
        (r.mbrs[10:90], r.oids[10:90] + 1000, 0.05),
    ]
    batch = server.evaluate_join_batch(uploads)
    for upload, pairs in zip(uploads, batch):
        (alone,) = server.evaluate_join_batch([upload])
        assert pairs.dtype == np.int64 and np.array_equal(pairs, alone)
    assert [p.shape[0] > 0 for p in batch] == [True, True, False, True]
