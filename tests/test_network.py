"""Tests for the network substrate: packets, messages, channels, config."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.network.channel import Channel
from repro.network.config import NetworkConfig
from repro.network.messages import (
    AggregateQuery,
    BucketRangeQuery,
    CountQuery,
    MessageKind,
    ObjectPayload,
    QueryMessage,
    RangeQuery,
    ScalarResponse,
    WindowQuery,
)
from repro.network.packets import (
    aggregate_answer_bytes,
    num_packets,
    query_bytes,
    transferred_bytes,
)


class TestConfig:
    def test_defaults_are_wifi(self):
        cfg = NetworkConfig.wifi()
        assert cfg.mtu == 1500
        assert cfg.header_bytes == 40
        assert cfg.payload_per_packet == 1460

    def test_dialup_mtu(self):
        cfg = NetworkConfig(mtu=576)
        assert cfg.payload_per_packet == 536
        # 1,000 payload bytes need two 576-byte packets, one at 1,500.
        assert transferred_bytes(1000, cfg) == 1000 + 2 * 40
        assert transferred_bytes(1000, NetworkConfig()) == 1000 + 40

    @pytest.mark.parametrize(
        "bad",
        [
            dict(mtu=30, header_bytes=40),
            dict(object_bytes=0),
            dict(tariff_r=-1.0),
            # NaN slips through ``x < 0``; a NaN tariff made every predicted
            # cost NaN, so the planner picked silently.
            dict(mtu=1500.5),
            dict(header_bytes=float("nan")),
            dict(query_bytes=48.5),
            dict(answer_bytes=float("nan")),
            dict(object_bytes=float("nan")),
            dict(tariff_r=float("nan")),
            dict(tariff_s=float("inf")),
            dict(mtu="1500"),  # an untyped TypeError before
        ],
    )
    def test_invalid_configs(self, bad):
        from repro.errors import InvalidInput

        with pytest.raises(InvalidInput):
            NetworkConfig(**bad)


class TestPacketisation:
    """Equation 1: TB(B_D) = B_D + B_H * ceil(B_D / (MTU - B_H))."""

    def test_zero_payload(self):
        cfg = NetworkConfig()
        assert num_packets(0, cfg) == 0
        assert transferred_bytes(0, cfg) == 0

    def test_single_packet(self):
        cfg = NetworkConfig()
        assert num_packets(100, cfg) == 1
        assert transferred_bytes(100, cfg) == 140

    def test_exact_packet_boundary(self):
        cfg = NetworkConfig()
        payload = cfg.payload_per_packet
        assert num_packets(payload, cfg) == 1
        assert num_packets(payload + 1, cfg) == 2

    def test_matches_equation_one(self):
        cfg = NetworkConfig()
        for payload in (1, 999, 20_000, 123_456):
            expected = payload + cfg.header_bytes * math.ceil(
                payload / (cfg.mtu - cfg.header_bytes)
            )
            assert transferred_bytes(payload, cfg) == expected

    def test_negative_payload_raises(self):
        with pytest.raises(ValueError):
            transferred_bytes(-1, NetworkConfig())

    def test_query_and_answer_bytes(self):
        cfg = NetworkConfig()
        assert query_bytes(cfg) == cfg.header_bytes + cfg.query_bytes
        assert aggregate_answer_bytes(cfg) == cfg.header_bytes + cfg.answer_bytes

    @given(st.integers(min_value=0, max_value=10_000_000))
    @settings(max_examples=100)
    def test_property_wire_at_least_payload(self, payload):
        cfg = NetworkConfig()
        wire = transferred_bytes(payload, cfg)
        assert wire >= payload
        # Header overhead is bounded by one header per payload chunk.
        assert wire <= payload + cfg.header_bytes * (payload // cfg.payload_per_packet + 1)

    @given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60)
    def test_property_superadditive_split(self, a, b):
        # Splitting a payload across two transmissions never saves bytes.
        cfg = NetworkConfig()
        assert transferred_bytes(a, cfg) + transferred_bytes(b, cfg) >= transferred_bytes(a + b, cfg)


class TestMessages:
    def test_query_payload_is_query_string(self):
        cfg = NetworkConfig()
        w = Rect(0, 0, 1, 1)
        assert WindowQuery(w).payload_bytes(cfg) == cfg.query_bytes
        assert CountQuery(w).payload_bytes(cfg) == cfg.query_bytes
        assert AggregateQuery(w).payload_bytes(cfg) == cfg.query_bytes
        assert RangeQuery(Point(0.5, 0.5), 0.1).payload_bytes(cfg) == cfg.query_bytes

    def test_bucket_range_carries_probes(self):
        cfg = NetworkConfig()
        probes = tuple(Point(0.1 * i, 0.1 * i) for i in range(5))
        q = BucketRangeQuery(probes, 0.05)
        assert q.payload_bytes(cfg) == cfg.query_bytes + 5 * cfg.object_bytes
        sized = BucketRangeQuery.of_size(5, 0.05)
        assert sized.payload_bytes(cfg) == q.payload_bytes(cfg)
        assert sized.kind is q.kind and isinstance(sized, QueryMessage)

    def test_bucket_range_validation(self):
        with pytest.raises(ValueError):
            BucketRangeQuery((), 0.1)
        with pytest.raises(ValueError):
            BucketRangeQuery((Point(0, 0),), -0.1)
        with pytest.raises(ValueError):
            BucketRangeQuery.of_size(0, 0.1)
        with pytest.raises(ValueError):
            BucketRangeQuery.of_size(3, -0.1)
        with pytest.raises(ValueError):
            BucketRangeQuery((Point(0, 0),), 0.1, probe_count=2)

    def test_object_payload_size(self):
        cfg = NetworkConfig()
        mbrs = np.zeros((7, 4))
        payload = ObjectPayload(mbrs, np.arange(7))
        assert payload.count == 7
        assert payload.payload_bytes(cfg) == 7 * cfg.object_bytes

    def test_object_payload_with_probe_overhead(self):
        cfg = NetworkConfig()
        payload = ObjectPayload(np.zeros((3, 4)), np.arange(3), per_probe_overhead_objects=10)
        assert payload.payload_bytes(cfg) == 13 * cfg.object_bytes

    def test_object_payload_validation(self):
        with pytest.raises(ValueError):
            ObjectPayload(np.zeros((3, 3)), np.arange(3))
        with pytest.raises(ValueError):
            ObjectPayload(np.zeros((3, 4)), np.arange(2))

    def test_scalar_response(self):
        cfg = NetworkConfig()
        assert ScalarResponse(42.0).payload_bytes(cfg) == cfg.answer_bytes

    def test_aggregate_query_validation(self):
        with pytest.raises(ValueError):
            AggregateQuery(Rect(0, 0, 1, 1), what="median")


class TestChannel:
    def test_count_query_costs_taq(self):
        """A COUNT exchange must cost (B_H + B_Q) + (B_H + B_A) -- Eq. 7."""
        cfg = NetworkConfig()
        channel = Channel(cfg, name="R")
        channel.send_query(CountQuery(Rect(0, 0, 1, 1)))
        channel.send_response(ScalarResponse(5.0))
        expected = (cfg.header_bytes + cfg.query_bytes) + (cfg.header_bytes + cfg.answer_bytes)
        assert channel.total_bytes == expected

    def test_direction_accounting(self):
        cfg = NetworkConfig()
        channel = Channel(cfg)
        channel.send_query(WindowQuery(Rect(0, 0, 1, 1)))
        channel.send_response(ObjectPayload(np.zeros((10, 4)), np.arange(10)))
        assert channel.messages_up == 1
        assert channel.messages_down == 1
        assert channel.uplink_bytes == cfg.header_bytes + cfg.query_bytes
        assert channel.downlink_bytes == transferred_bytes(10 * cfg.object_bytes, cfg)

    def test_tariff_weighting(self):
        cfg = NetworkConfig()
        channel = Channel(cfg, tariff=2.5)
        channel.send_query(CountQuery(Rect(0, 0, 1, 1)))
        assert channel.total_cost == pytest.approx(2.5 * channel.total_bytes)

    def test_reset_clears_everything(self):
        channel = Channel(NetworkConfig())
        channel.send_query(CountQuery(Rect(0, 0, 1, 1)))
        channel.reset()
        assert channel.total_bytes == 0
        assert channel.log.records == []

    def test_log_aggregation(self):
        channel = Channel(NetworkConfig())
        channel.send_query(CountQuery(Rect(0, 0, 1, 1)))
        channel.send_query(WindowQuery(Rect(0, 0, 1, 1)))
        channel.send_response(ScalarResponse(1.0))
        records = channel.log.records
        by_kind = Counter(rec.kind for rec in records)
        assert by_kind[MessageKind.COUNT] == 1
        assert by_kind[MessageKind.WINDOW] == 1
        assert by_kind[MessageKind.SCALAR] == 1
        assert sum(rec.wire_bytes for rec in records) == channel.total_bytes

    def test_negative_tariff_raises(self):
        with pytest.raises(ValueError):
            Channel(NetworkConfig(), tariff=-0.5)

    def test_fingerprint_reads_shared_records_like_distinct_ones(self):
        """A batch send is one log entry of many messages; the digest is the
        tuple of per-record 6-tuples all the same -- repeated, interleaved
        and retry-lane records included."""
        config = NetworkConfig()
        channel = Channel(config, name="R")
        window = Rect(0, 0, 1, 1)
        sizes = [40, 0, 40, 3000, 0, 40]
        channel.send_uniform_batch(CountQuery(window), 3, direction="up", label="count")
        channel.send_payload_batch(MessageKind.OBJECTS, sizes, direction="down", label="objs")
        channel.send_query(CountQuery(window), label="count")  # equal to, not the same as
        channel.send_uniform_batch(CountQuery(window), 2, direction="up", label="count")
        with channel.fault_lane("both"):
            channel.send_uniform_batch(WindowQuery(window), 2, direction="up", label="window")
            channel.send_payload_batch(MessageKind.OBJECTS, [40, 40], direction="down", label="objs")
        for log, n in ((channel.log, 12), (channel.retry_log, 4)):
            expected = tuple(
                (r.direction, r.kind.value, r.payload_bytes, r.wire_bytes, r.packets, r.label)
                for r in log.records
            )
            assert len(expected) == n == len(log)
            assert log.fingerprint() == expected
        assert channel.ledger_fingerprint()[-1] == channel.log.fingerprint()
        assert [row[2] for row in channel.log.fingerprint()[3:9]] == sizes
