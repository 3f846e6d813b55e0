"""Tests for the WiFi link model and its discrete-event oracle.

The simulation kernel and the per-record replays live in
``tests/oracles/wifi_event.py``; the shipped link model is closed-form only.
"""

from __future__ import annotations

import pytest

from repro.network.channel import Channel
from repro.network.config import NetworkConfig
from repro.network.messages import CountQuery, ObjectPayload, ScalarResponse, WindowQuery
from repro.network.wifi import WifiLinkModel
from repro.geometry.rect import Rect

import numpy as np

from tests.oracles.wifi_event import (
    Simulator,
    estimate_channel_time_scalar,
    simulate_channels_event,
)


class TestSimulator:
    def test_pure_delays_advance_the_clock(self):
        sim = Simulator()
        log = []

        def proc():
            yield 1.0
            log.append(sim.now)
            yield 2.5
            log.append(sim.now)

        sim.process(proc())
        end = sim.run_all()
        assert log == [1.0, 3.5]
        assert end == 3.5

    def test_processes_interleave_deterministically(self):
        sim = Simulator()
        order = []

        def worker(name, delay):
            yield delay
            order.append((sim.now, name))
            yield delay
            order.append((sim.now, name))

        sim.process(worker("a", 1.0), name="a")
        sim.process(worker("b", 1.5), name="b")
        sim.run_all()
        assert order == [(1.0, "a"), (1.5, "b"), (2.0, "a"), (3.0, "b")]

    def test_event_wakes_waiters(self):
        sim = Simulator()
        done = sim.event("done")
        seen = []

        def waiter():
            value = yield done
            seen.append((sim.now, value))

        def trigger():
            yield 2.0
            done.succeed("payload")

        sim.process(waiter())
        sim.process(trigger())
        sim.run_all()
        assert seen == [(2.0, "payload")]

    def test_event_cannot_trigger_twice(self):
        sim = Simulator()
        event = sim.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_joining_a_process(self):
        sim = Simulator()
        results = []

        def child():
            yield 3.0
            return 42

        def parent():
            value = yield sim.process(child(), name="child")
            results.append((sim.now, value))

        sim.process(parent(), name="parent")
        sim.run_all()
        assert results == [(3.0, 42)]

    def test_run_until_horizon(self):
        sim = Simulator()

        def proc():
            yield 10.0

        sim.process(proc())
        assert sim.run(until=4.0) == 4.0
        assert sim.now == 4.0
        assert sim.run_all() == 10.0

    def test_negative_delay_rejected(self):
        sim = Simulator()

        def proc():
            yield -1.0

        sim.process(proc())
        with pytest.raises(ValueError):
            sim.run_all()

    def test_invalid_yield_type_rejected(self):
        sim = Simulator()

        def proc():
            yield "not a delay"

        sim.process(proc())
        with pytest.raises(TypeError):
            sim.run_all()


class TestWifiLinkModel:
    def test_transfer_time_increases_with_payload(self):
        cfg = NetworkConfig()
        link = WifiLinkModel()
        assert link.transfer_time(10_000, cfg) > link.transfer_time(100, cfg)

    def test_exchange_time_includes_server_latency(self):
        cfg = NetworkConfig()
        link = WifiLinkModel(server_latency_s=0.5)
        assert link.exchange_time(100, 100, cfg) > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            WifiLinkModel(goodput_bps=0)
        with pytest.raises(ValueError):
            WifiLinkModel(per_packet_latency_s=-1)

    def test_channel_estimate_consistent_with_traffic(self):
        cfg = NetworkConfig()
        channel = Channel(cfg, name="R")
        channel.send_query(WindowQuery(Rect(0, 0, 1, 1)))
        channel.send_response(ObjectPayload(np.zeros((100, 4)), np.arange(100)))
        channel.send_query(CountQuery(Rect(0, 0, 1, 1)))
        channel.send_response(ScalarResponse(1.0))
        link = WifiLinkModel()
        estimate = link.estimate_channel_time(channel)
        assert estimate > 0
        # More traffic on another channel must yield a larger estimate.
        bigger = Channel(cfg, name="S")
        for _ in range(3):
            bigger.send_query(WindowQuery(Rect(0, 0, 1, 1)))
            bigger.send_response(ObjectPayload(np.zeros((500, 4)), np.arange(500)))
        assert link.estimate_channel_time(bigger) > estimate

    def test_simulate_channels_returns_makespan(self):
        cfg = NetworkConfig()
        link = WifiLinkModel()
        a = Channel(cfg, name="R")
        b = Channel(cfg, name="S")
        a.send_query(CountQuery(Rect(0, 0, 1, 1)))
        a.send_response(ScalarResponse(1.0))
        b.send_query(WindowQuery(Rect(0, 0, 1, 1)))
        b.send_response(ObjectPayload(np.zeros((200, 4)), np.arange(200)))
        makespan = link.simulate_channels([a, b])
        # Channels replay concurrently: the makespan equals the slower one.
        slower = max(link.estimate_channel_time(a), link.estimate_channel_time(b))
        assert makespan == pytest.approx(slower)


class TestClosedFormReplay:
    """The NumPy closed-form replay must match the discrete-event kernel."""

    @staticmethod
    def _traffic_channels(seed: int):
        import numpy as np

        from repro.network.messages import MessageKind

        cfg = NetworkConfig()
        rng = np.random.default_rng(seed)
        channels = []
        for name in ("R", "S", "T"):
            channel = Channel(cfg, name=name)
            for _ in range(int(rng.integers(0, 40))):
                kind = int(rng.integers(0, 4))
                if kind == 0:
                    channel.send_query(CountQuery(Rect(0, 0, 1, 1)))
                    channel.send_response(ScalarResponse(1.0))
                elif kind == 1:
                    n = int(rng.integers(0, 300))
                    channel.send_query(WindowQuery(Rect(0, 0, 1, 1)))
                    channel.send_response(
                        ObjectPayload(np.zeros((n, 4)), np.arange(n))
                    )
                elif kind == 2:
                    # Bulk-accounted exchanges land on the same ledger.
                    channel.send_uniform_batch(
                        CountQuery(Rect(0, 0, 1, 1)), int(rng.integers(1, 20))
                    )
                else:
                    channel.send_payload_batch(
                        MessageKind.OBJECTS,
                        [int(s) for s in rng.integers(0, 4000, size=7)],
                        direction="down",
                    )
            channels.append(channel)
        return channels

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_form_matches_discrete_event(self, seed):
        link = WifiLinkModel()
        channels = self._traffic_channels(seed)
        fast = link.simulate_channels(channels)
        reference = simulate_channels_event(link, channels)
        assert fast == pytest.approx(reference, rel=1e-12, abs=1e-15)

    def test_replay_time_matches_estimate(self):
        # For a single channel the closed form, the discrete-event replay
        # and the sequential estimate all describe the same total.
        link = WifiLinkModel()
        (channel,) = [self._traffic_channels(3)[0]]
        closed_form = link.replay_time(channel.log.records)
        assert link.estimate_channel_time(channel) == closed_form
        assert closed_form == pytest.approx(
            simulate_channels_event(link, [channel]), rel=1e-12
        )
        assert closed_form == pytest.approx(
            estimate_channel_time_scalar(link, channel), rel=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_estimate_closed_form_matches_scalar_walk(self, seed):
        # estimate_channel_time is the NumPy closed form; the per-record
        # scalar walk is the reference it is pinned against (within float
        # tolerance -- only the summation order differs).
        link = WifiLinkModel()
        for channel in self._traffic_channels(seed):
            fast = link.estimate_channel_time(channel)
            reference = estimate_channel_time_scalar(link, channel)
            assert fast == pytest.approx(reference, rel=1e-12, abs=1e-15)

    def test_no_channels_is_zero(self):
        link = WifiLinkModel()
        assert link.simulate_channels([]) == 0.0
        assert simulate_channels_event(link, []) == 0.0
