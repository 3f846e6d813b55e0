"""Tests for the network substrate: packets, the payload rule, channels, config."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.channel import Channel
from repro.network.config import NetworkConfig
from repro.network.messages import MessageKind
from repro.network.packets import (
    aggregate_answer_bytes,
    num_packets,
    payload_size,
    query_bytes,
    transferred_bytes,
)


class TestConfig:
    def test_defaults_are_wifi(self):
        cfg = NetworkConfig()
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


def _payloads(channel: Channel):
    return [record.payload_bytes for record in channel.log.records]


class TestPayloadRule:
    """One rule prices every send: ``B_Q`` plus ``B_obj`` per carried object
    up, ``B_A`` for a scalar down, ``B_obj`` per object of an object payload."""

    QUERY_KINDS = (
        MessageKind.WINDOW,
        MessageKind.COUNT,
        MessageKind.RANGE,
        MessageKind.BUCKET_RANGE,
        MessageKind.AGGREGATE,
    )

    def test_a_query_is_its_query_string(self):
        cfg = NetworkConfig()
        channel = Channel(cfg)
        for kind in self.QUERY_KINDS:
            channel.send_query(kind)
        assert _payloads(channel) == [cfg.query_bytes] * len(self.QUERY_KINDS)
        assert channel.uplink_bytes == len(self.QUERY_KINDS) * query_bytes(cfg)

    def test_a_query_carries_its_objects(self):
        cfg = NetworkConfig()
        channel = Channel(cfg)
        channel.send_query(MessageKind.BUCKET_RANGE, objects=5)
        channel.send_query(MessageKind.BUCKET_RANGE, objects=500)
        assert _payloads(channel) == [
            cfg.query_bytes + 5 * cfg.object_bytes,
            cfg.query_bytes + 500 * cfg.object_bytes,
        ]
        # 10,048 payload bytes need seven 1,500-byte packets.
        assert channel.uplink_packets == 1 + 7

    def test_a_scalar_answer_is_the_answer_string(self):
        cfg = NetworkConfig()
        channel = Channel(cfg)
        channel.send_response(MessageKind.SCALAR)
        channel.send_uniform_batch(MessageKind.SCALAR, 3, direction="down")
        assert _payloads(channel) == [cfg.answer_bytes] * 4
        assert channel.downlink_bytes == 4 * aggregate_answer_bytes(cfg)

    def test_an_object_payload_is_its_objects(self):
        cfg = NetworkConfig()
        channel = Channel(cfg)
        channel.send_response(MessageKind.OBJECTS, objects=7)
        channel.send_response(MessageKind.OBJECTS)
        assert _payloads(channel) == [7 * cfg.object_bytes, 0]
        # An empty payload needs no packet.
        assert channel.downlink_packets == 1
        assert channel.downlink_bytes == transferred_bytes(7 * cfg.object_bytes, cfg)

    @given(
        st.sampled_from(list(MessageKind)),
        st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=8),
    )
    @settings(max_examples=60)
    def test_one_rule_for_one_message_and_for_a_column(self, kind, objects):
        """The rule on an ``int64`` column is the rule per element."""
        cfg = NetworkConfig(mtu=576)
        column = payload_size(kind, np.array(objects, dtype=np.int64), cfg)
        for n, size in zip(objects, np.broadcast_to(column, len(objects)).tolist()):
            assert payload_size(kind, n, cfg) == size

    def test_a_batch_send_books_what_single_sends_book(self):
        cfg = NetworkConfig(mtu=576)
        batched, single = Channel(cfg, name="R"), Channel(cfg, name="R")
        objects = [3, 0, 40, 2000]
        batched.send_uniform_batch(MessageKind.RANGE, len(objects), direction="up", label="range")
        batched.send_payload_batch(MessageKind.OBJECTS, objects, label="range-result")
        for _ in objects:
            single.send_query(MessageKind.RANGE, label="range")
        for n in objects:
            single.send_response(MessageKind.OBJECTS, label="range-result", objects=n)
        assert batched.ledger_fingerprint() == single.ledger_fingerprint()
        assert _payloads(batched)[len(objects):] == [n * cfg.object_bytes for n in objects]

    def test_a_negative_object_count_is_refused(self):
        channel = Channel(NetworkConfig())
        with pytest.raises(ValueError):
            channel.send_response(MessageKind.OBJECTS, objects=-1)
        with pytest.raises(ValueError):
            channel.send_payload_batch(MessageKind.OBJECTS, [2, -1])
        assert channel.total_bytes == 0 and len(channel.log) == 0


class TestChannel:
    def test_count_query_costs_taq(self):
        """A COUNT exchange must cost (B_H + B_Q) + (B_H + B_A) -- Eq. 7."""
        cfg = NetworkConfig()
        channel = Channel(cfg, name="R")
        channel.send_query(MessageKind.COUNT)
        channel.send_response(MessageKind.SCALAR)
        expected = (cfg.header_bytes + cfg.query_bytes) + (cfg.header_bytes + cfg.answer_bytes)
        assert channel.total_bytes == expected

    def test_direction_accounting(self):
        cfg = NetworkConfig()
        channel = Channel(cfg)
        channel.send_query(MessageKind.WINDOW)
        channel.send_response(MessageKind.OBJECTS, objects=10)
        assert channel.messages_up == 1
        assert channel.messages_down == 1
        assert channel.uplink_bytes == cfg.header_bytes + cfg.query_bytes
        assert channel.downlink_bytes == transferred_bytes(10 * cfg.object_bytes, cfg)

    def test_tariff_weighting(self):
        cfg = NetworkConfig()
        channel = Channel(cfg, tariff=2.5)
        channel.send_query(MessageKind.COUNT)
        assert channel.total_cost == pytest.approx(2.5 * channel.total_bytes)

    def test_reset_clears_everything(self):
        channel = Channel(NetworkConfig())
        channel.send_query(MessageKind.COUNT)
        channel.reset()
        assert channel.total_bytes == 0
        assert channel.log.records == []

    def test_log_aggregation(self):
        channel = Channel(NetworkConfig())
        channel.send_query(MessageKind.COUNT)
        channel.send_query(MessageKind.WINDOW)
        channel.send_response(MessageKind.SCALAR)
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
        objects = [2, 0, 2, 150, 0, 2]
        channel.send_uniform_batch(MessageKind.COUNT, 3, direction="up", label="count")
        channel.send_payload_batch(MessageKind.OBJECTS, objects, direction="down", label="objs")
        channel.send_query(MessageKind.COUNT, label="count")
        channel.send_uniform_batch(MessageKind.COUNT, 2, direction="up", label="count")
        with channel.fault_lane("both"):
            channel.send_uniform_batch(MessageKind.WINDOW, 2, direction="up", label="window")
            channel.send_payload_batch(MessageKind.OBJECTS, [2, 2], direction="down", label="objs")
        for log, n in ((channel.log, 12), (channel.retry_log, 4)):
            expected = tuple(
                (r.direction, r.kind.value, r.payload_bytes, r.wire_bytes, r.packets, r.label)
                for r in log.records
            )
            assert len(expected) == n == len(log)
            assert log.fingerprint() == expected
        assert channel.ledger_fingerprint()[-1] == channel.log.fingerprint()
        assert [row[2] for row in channel.log.fingerprint()[3:9]] == [
            n * config.object_bytes for n in objects
        ]
