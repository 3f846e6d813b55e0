"""Metering invariants.

The byte totals reported in :class:`~repro.core.result.JoinResult` are the
paper's headline metric, so they must be *derivable* from the traffic that
actually crossed the metered channels -- never computed on the side.  These
tests pin, for every algorithm:

* ``total_bytes`` / ``bytes_r`` / ``bytes_s`` equal the per-record wire
  bytes summed over the channel traffic logs;
* channel snapshots are internally consistent (uplink + downlink = total,
  message counters match the log);
* every logged record's wire size equals the packetisation model applied to
  its payload;
* ``ServerQueryStats`` counters agree with the messages on the wire
  (count/window/range/bucket queries, objects returned vs. payload bytes);
* the device's ``count_queries`` operator counter equals the number of
  COUNT requests sent over both channels.

Any batching or vectorisation of the query path must keep these invariants
bit-identical -- that is the contract the performance work is held to.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List

import pytest

from repro.api import AdHocJoinSession
from repro.core.planner import ALGORITHMS
from repro.datasets.synthetic import clustered
from repro.network.messages import MessageKind
from repro.network.packets import transferred_bytes
from repro.server.server import ServerQueryStats

from tests.oracles import scalar_endpoints
from tests.oracles.recursive_driver import depth_first_algorithms

ALGO_NAMES = sorted(ALGORITHMS)
#: Algorithms that speak only the standard query protocol (SemiJoin reuses
#: message types for its privileged index transfers, so the per-kind
#: server-stats reconciliation below does not apply to it).
STANDARD_ALGOS = [n for n in ALGO_NAMES if n != "semijoin"]


def _fresh_session(buffer_size: int = 96) -> AdHocJoinSession:
    r = clustered(n=80, clusters=3, seed=41)
    s = clustered(n=80, clusters=2, seed=42, std=0.05)
    return AdHocJoinSession(r, s, buffer_size=buffer_size)


def _records(channel) -> List:
    return list(channel.log.records)


def _run(name: str, **kwargs):
    session = _fresh_session()
    result = session.run(algorithm=name, kind="distance", epsilon=0.04, **kwargs)
    return session, result


@pytest.mark.parametrize("name", ALGO_NAMES)
def test_totals_equal_channel_log_sums(name):
    session, result = _run(name)
    servers = session.device.servers
    sums = {}
    for side, server in (("R", servers.r), ("S", servers.s)):
        recs = _records(server.channel)
        sums[side] = sum(rec.wire_bytes for rec in recs)
        up = sum(rec.wire_bytes for rec in recs if rec.direction == "up")
        down = sum(rec.wire_bytes for rec in recs if rec.direction == "down")
        snap = server.channel.snapshot()
        assert snap["uplink_bytes"] == up
        assert snap["downlink_bytes"] == down
        assert snap["total_bytes"] == up + down
        assert snap["messages_up"] == sum(1 for r in recs if r.direction == "up")
        assert snap["messages_down"] == sum(1 for r in recs if r.direction == "down")
    assert result.bytes_r == sums["R"]
    assert result.bytes_s == sums["S"]
    assert result.total_bytes == sums["R"] + sums["S"]
    assert result.total_cost == pytest.approx(
        sums["R"] * servers.r.tariff + sums["S"] * servers.s.tariff
    )


@pytest.mark.parametrize("name", ALGO_NAMES)
def test_wire_bytes_follow_packetisation(name):
    session, _ = _run(name)
    for server in (session.device.servers.r, session.device.servers.s):
        config = server.channel.config
        for rec in _records(server.channel):
            assert rec.wire_bytes == transferred_bytes(rec.payload_bytes, config)


@pytest.mark.parametrize("name", ALGO_NAMES)
def test_device_count_queries_match_wire(name):
    session, result = _run(name)
    count_msgs = 0
    for server in (session.device.servers.r, session.device.servers.s):
        count_msgs += sum(
            1
            for rec in _records(server.channel)
            if rec.direction == "up" and rec.kind is MessageKind.COUNT
        )
    assert result.operator_counts["count_queries"] == count_msgs


@pytest.mark.parametrize("name", STANDARD_ALGOS)
@pytest.mark.parametrize("bucket", [False, True])
def test_server_stats_match_wire(name, bucket):
    session, result = _run(name, bucket_queries=bucket)
    for side, server in (("R", session.device.servers.r), ("S", session.device.servers.s)):
        stats = ServerQueryStats(**server.server_stats())
        recs = _records(server.channel)
        by_kind: Dict[MessageKind, int] = {}
        for rec in recs:
            if rec.direction == "up":
                by_kind[rec.kind] = by_kind.get(rec.kind, 0) + 1
        assert stats.count_queries == by_kind.get(MessageKind.COUNT, 0)
        assert stats.window_queries == by_kind.get(MessageKind.WINDOW, 0)
        assert stats.range_queries == by_kind.get(MessageKind.RANGE, 0)
        assert stats.bucket_range_queries == by_kind.get(MessageKind.BUCKET_RANGE, 0)
        # Scalar responses answer exactly the COUNT and AGGREGATE requests.
        scalars = sum(
            1
            for rec in recs
            if rec.direction == "down" and rec.kind is MessageKind.SCALAR
        )
        assert scalars == by_kind.get(MessageKind.COUNT, 0) + by_kind.get(
            MessageKind.AGGREGATE, 0
        )
        # Every object that crossed the downlink is accounted in
        # ``objects_returned``; bucket responses additionally carry one
        # object-sized separator per probe (Eq. 5), accumulated in
        # ``bucket_range_probes``.
        object_bytes = server.channel.config.object_bytes
        payload = sum(
            rec.payload_bytes
            for rec in recs
            if rec.direction == "down" and rec.kind is MessageKind.OBJECTS
        )
        assert payload == (stats.objects_returned + stats.bucket_range_probes) * object_bytes
        # The result snapshot carries the same stats dictionaries.
        assert result.server_stats[side] == stats.as_dict()


def test_result_channel_stats_are_snapshots():
    session, result = _run("upjoin")
    assert result.channel_stats["R"] == session.device.servers.r.channel.snapshot()
    assert result.channel_stats["S"] == session.device.servers.s.channel.snapshot()


# --------------------------------------------------------------------------- #
# batched exchanges decompose into the scalar per-query ledger
# --------------------------------------------------------------------------- #


class TestBatchedExchangeLedger:
    """Every batched quadrant/probe/window exchange must put exactly the
    per-query records of the scalar path (``tests/oracles/scalar_endpoints.py``,
    one exchange per query) on the wire: same record multiset,
    same per-direction aggregates, same snapshot.  (Record *order* inside a
    batch is not part of the contract; aggregation and decomposition are.)"""

    def _fresh_pair(self):
        session = _fresh_session()
        return session.device.servers

    def _windows(self, n=9, seed=101):
        import numpy as np

        from repro.geometry.rect import Rect

        rng = np.random.default_rng(seed)
        out = []
        for x, y, w, h in rng.uniform(0.0, 0.6, size=(n, 4)):
            out.append(Rect(float(x), float(y), float(x + w + 0.01), float(y + h + 0.01)))
        return out

    @staticmethod
    def _ledger(channel):
        from collections import Counter

        return Counter(_records(channel))

    def test_count_batch_decomposes_into_scalar_ledger(self):
        servers_a = self._fresh_pair()
        servers_b = self._fresh_pair()
        windows = self._windows()
        assert servers_a.r.count_batch(windows) == [
            scalar_endpoints.count(servers_b.r, w) for w in windows
        ]
        assert self._ledger(servers_a.r.channel) == self._ledger(servers_b.r.channel)
        assert servers_a.r.channel.snapshot() == servers_b.r.channel.snapshot()

    def test_window_batch_decomposes_into_scalar_ledger(self):
        servers_a = self._fresh_pair()
        servers_b = self._fresh_pair()
        windows = self._windows(seed=103)
        batched = servers_a.s.window_batch(windows)
        looped = [scalar_endpoints.window(servers_b.s, w) for w in windows]
        for (_, oids_a), (_, oids_b) in zip(batched, looped):
            assert sorted(oids_a.tolist()) == sorted(oids_b.tolist())
        assert self._ledger(servers_a.s.channel) == self._ledger(servers_b.s.channel)
        assert servers_a.s.channel.snapshot() == servers_b.s.channel.snapshot()

    def test_range_batch_decomposes_into_scalar_ledger(self):
        import numpy as np

        from repro.geometry.point import Point

        servers_a = self._fresh_pair()
        servers_b = self._fresh_pair()
        rng = np.random.default_rng(107)
        centers = [Point(float(x), float(y)) for x, y in rng.uniform(0, 1, size=(11, 2))]
        radii = rng.uniform(0.0, 0.1, size=11).tolist()
        batched = servers_a.r.range_batch(centers, radii)
        looped = [scalar_endpoints.range(servers_b.r, c, e) for c, e in zip(centers, radii)]
        for (_, oids_a), (_, oids_b) in zip(batched, looped):
            assert sorted(oids_a.tolist()) == sorted(oids_b.tolist())
        assert self._ledger(servers_a.r.channel) == self._ledger(servers_b.r.channel)
        assert servers_a.r.channel.snapshot() == servers_b.r.channel.snapshot()

    def test_range_batch_flat_decomposes_into_scalar_ledger(self):
        """The flat probe-response assembly (one concatenated payload array,
        one materialisation pass) must leave exactly the per-probe ledger of
        a scalar probe loop and split into the same per-probe payloads."""
        import numpy as np

        from repro.geometry.point import Point

        servers_a = self._fresh_pair()
        servers_b = self._fresh_pair()
        rng = np.random.default_rng(109)
        centers = [Point(float(x), float(y)) for x, y in rng.uniform(0, 1, size=(13, 2))]
        radii = rng.uniform(0.0, 0.12, size=13).tolist()
        mbrs, oids, bounds = servers_a.s.range_batch_flat(centers, radii)
        assert bounds[0] == 0 and int(bounds[-1]) == oids.shape[0] == mbrs.shape[0]
        assert np.all(np.diff(bounds) >= 0)
        looped = [scalar_endpoints.range(servers_b.s, c, e) for c, e in zip(centers, radii)]
        for i, (_, oids_b) in enumerate(looped):
            chunk = oids[bounds[i] : bounds[i + 1]]
            assert sorted(chunk.tolist()) == sorted(oids_b.tolist())
        assert self._ledger(servers_a.s.channel) == self._ledger(servers_b.s.channel)
        assert servers_a.s.channel.snapshot() == servers_b.s.channel.snapshot()
        # Server-side statistics are per probe, exactly as in the loop.
        assert servers_a.s.server_stats() == servers_b.s.server_stats()

    @pytest.mark.parametrize("algorithm", ["upjoin", "srjoin", "mobijoin"])
    @pytest.mark.parametrize("bucket", [False, True])
    def test_frontier_ledger_equals_recursive(self, algorithm, bucket):
        """End to end: the frontier execution's batched quadrant/probe COUNT
        and operator exchanges leave the same per-query ledger on both
        channels as the depth-first oracle, for every engine-driven
        algorithm."""
        ledgers = {}
        for execution in ("recursive", "frontier"):
            session = _fresh_session()
            with depth_first_algorithms() if execution == "recursive" else nullcontext():
                session.run(
                    algorithm=algorithm,
                    kind="distance",
                    epsilon=0.04,
                    bucket_queries=bucket,
                )
            ledgers[execution] = {
                side: self._ledger(server.channel)
                for side, server in (
                    ("R", session.device.servers.r),
                    ("S", session.device.servers.s),
                )
            }
        assert ledgers["recursive"] == ledgers["frontier"]
