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
from repro.network.packets import transferred_bytes
from repro.server.remote import IndexedRemoteServer, RemoteServer, ServerPair
from repro.server.server import SpatialServer


@pytest.fixture
def server() -> SpatialServer:
    return SpatialServer(uniform(n=200, seed=5), name="R")


@pytest.fixture
def pair() -> ServerPair:
    r = SpatialServer(uniform(n=150, seed=1), name="R")
    s = SpatialServer(uniform(n=150, seed=2), name="S")
    return ServerPair.connect(r, s)


class TestSpatialServer:
    def test_window_matches_dataset_filter(self, server):
        window = Rect(0.2, 0.2, 0.7, 0.7)
        mbrs, oids = server.window(window)
        expected = set(server.dataset.oids[server.dataset.window_mask(window)].tolist())
        assert set(oids.tolist()) == expected
        assert mbrs.shape == (len(expected), 4)

    def test_count_matches_window(self, server):
        window = Rect(0.1, 0.5, 0.4, 0.9)
        assert server.count(window) == len(server.window(window)[1])

    def test_range_query_semantics(self, server):
        center = Point(0.5, 0.5)
        eps = 0.2
        _, oids = server.range(center, eps)
        centers = server.dataset.centers()
        dists = np.hypot(centers[:, 0] - 0.5, centers[:, 1] - 0.5)
        expected = set(server.dataset.oids[dists <= eps].tolist())
        assert set(oids.tolist()) == expected

    def test_range_negative_eps_raises(self, server):
        with pytest.raises(ValueError):
            server.range(Point(0.5, 0.5), -0.1)

    def test_bucket_range_groups_by_probe(self, server):
        probes = [Point(0.2, 0.2), Point(0.8, 0.8)]
        mbrs, oids, probe_idx = server.bucket_range(probes, 0.15)
        assert mbrs.shape[0] == oids.shape[0] == probe_idx.shape[0]
        for i, probe in enumerate(probes):
            single_mbrs, single_oids = server.range(probe, 0.15)
            assert set(oids[probe_idx == i].tolist()) == set(single_oids.tolist())

    def test_bucket_range_empty_probe_list_raises(self, server):
        with pytest.raises(ValueError):
            server.bucket_range([], 0.1)

    def test_average_mbr_area_zero_for_points(self, server):
        assert server.average_mbr_area(Rect(0, 0, 1, 1)) == 0.0

    def test_stats_counters(self, server):
        server.stats.reset()
        server.window(Rect(0, 0, 1, 1))
        server.count(Rect(0, 0, 0.5, 0.5))
        server.range(Point(0.5, 0.5), 0.1)
        assert server.stats.window_queries == 1
        assert server.stats.count_queries == 1
        assert server.stats.range_queries == 1
        assert server.stats.objects_returned >= 200


class TestRemoteServer:
    def test_results_match_backing_server(self, pair):
        window = Rect(0.1, 0.1, 0.6, 0.6)
        remote_mbrs, remote_oids = pair.r.window(window)
        direct_mbrs, direct_oids = pair.r.backing_server.window(window)
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


class TestIndexedRemoteServer:
    @pytest.fixture
    def indexed_pair(self) -> ServerPair:
        r = SpatialServer(clustered(n=300, clusters=3, seed=3), name="R")
        s = SpatialServer(clustered(n=120, clusters=3, seed=4), name="S")
        return ServerPair.connect(r, s, indexed=True)

    def test_proxies_are_indexed(self, indexed_pair):
        assert isinstance(indexed_pair.r, IndexedRemoteServer)
        assert isinstance(indexed_pair.s, IndexedRemoteServer)

    def test_object_count_and_height(self, indexed_pair):
        assert indexed_pair.r.object_count() == 300
        assert indexed_pair.s.object_count() == 120
        assert indexed_pair.r.tree_height() >= 2

    def test_level_mbrs_cover_dataset(self, indexed_pair):
        rects = indexed_pair.r.level_mbrs()
        assert rects
        dataset = indexed_pair.r.backing_server.dataset
        for rect, _ in dataset:
            assert any(level.contains_rect(rect) for level in rects)

    def test_upload_windows_and_collect_dedupes(self, indexed_pair):
        windows = [Rect(0.0, 0.0, 1.0, 1.0), Rect(0.0, 0.0, 0.5, 0.5)]
        mbrs, oids = indexed_pair.s.upload_windows_and_collect(windows)
        assert len(set(oids.tolist())) == len(oids)
        assert len(oids) == 120  # the full window returns every object exactly once

    def test_upload_objects_and_join_matches_oracle(self, indexed_pair):
        s_dataset = indexed_pair.s.backing_server.dataset
        r_dataset = indexed_pair.r.backing_server.dataset
        pairs = indexed_pair.r.upload_objects_and_join(
            s_dataset.mbrs, s_dataset.oids, epsilon=0.05
        )
        from repro.geometry import rect_array

        matrix = rect_array.pairwise_within_distance(s_dataset.mbrs, r_dataset.mbrs, 0.05)
        expected = {
            (int(s_dataset.oids[i]), int(r_dataset.oids[j]))
            for i, j in zip(*np.nonzero(matrix))
        }
        assert pairs.dtype == np.int64 and pairs.shape[1:] == (2,)
        assert set(map(tuple, pairs.tolist())) == expected
