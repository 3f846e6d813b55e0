"""The result cache and the outcome's ledgers: frozen hits, content-true
dataset tokens, LRU eviction and lazy ledger fingerprints.

Companion to ``tests/test_service_equivalence.py`` (which pins broker
results bit-for-bit against standalone runs); this file
pins the *correctness traps* the cache and the outcome fix:

* a cache hit aliases the stored result, so the stored result must be
  deep-frozen -- mutating a hit raises instead of poisoning the next hit,
* dataset tokens digest dtype and shape, not just raw bytes,
* eviction is LRU with exact accounting, and the counters stay exact
  under concurrent callers,
* an outcome digests its ledgers on first read and keeps no device alive.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.join_types import JoinSpec
from repro.core.planner import run_join
from repro.core.result import JoinResult
from repro.datasets.dataset import SpatialDataset
from repro.datasets.synthetic import clustered
from repro.service import (
    JoinQuery,
    QueryBroker,
    ResultCache,
    dataset_token,
    freeze_result,
)

BUFFER = 96


def _datasets():
    return (
        clustered(n=110, clusters=3, seed=11, name="R"),
        clustered(n=110, clusters=4, seed=12, std=0.04, name="S"),
    )


def _query(r, s, algorithm="upjoin", **kwargs):
    kwargs.setdefault("buffer_size", BUFFER)
    return JoinQuery(r, s, JoinSpec.distance(0.03), algorithm=algorithm, **kwargs)


def _standalone(query: JoinQuery, algorithm: str) -> JoinResult:
    return run_join(
        query.dataset_r,
        query.dataset_s,
        query.spec,
        algorithm=algorithm,
        buffer_size=query.buffer_size,
        config=query.config,
        params=query.params,
        window=query.window,
    )


# --------------------------------------------------------------------------- #
# frozen cache hits
# --------------------------------------------------------------------------- #


class TestFrozenCacheHits:
    def test_mutating_a_hit_cannot_poison_the_next_hit(self):
        """The cache-aliasing trap: hits share one stored JoinResult.

        Before deep-freezing, ``hit.result.pairs.add(...)`` would silently
        corrupt what every later hit is served.  Now every mutation path
        raises and the next hit still matches the standalone run bit for
        bit.
        """
        r, s = _datasets()
        broker = QueryBroker()
        query = _query(r, s)
        (cold,) = broker.run_batch([query])
        (warm,) = broker.run_batch([_query(r, s)])
        assert warm.cached and warm.result is cold.result

        poison_pair = (-1, -1)
        with pytest.raises(AttributeError):
            warm.result.pairs.add(poison_pair)  # frozenset: no .add at all
        with pytest.raises(TypeError):
            warm.result.objects.append("poison")
        with pytest.raises(TypeError):
            warm.result.operator_counts["poison"] = 1
        with pytest.raises(TypeError):
            warm.result.server_stats["R"]["window_queries"] = 10**9
        with pytest.raises(TypeError):
            warm.result.channel_stats.clear()
        with pytest.raises(TypeError):
            warm.result.trace.pop()

        (again,) = broker.run_batch([_query(r, s)])
        assert again.cached
        reference = _standalone(query, "upjoin")
        assert again.result.sorted_pairs() == reference.sorted_pairs()
        assert poison_pair not in again.result.pairs
        assert again.result.total_bytes == reference.total_bytes
        assert again.result.server_stats == reference.server_stats
        assert again.result.operator_counts == reference.operator_counts

    def test_freeze_preserves_identity_equality_and_reads(self):
        r, s = _datasets()
        reference = _standalone(_query(r, s), "upjoin")
        frozen = _standalone(_query(r, s), "upjoin")
        assert freeze_result(frozen) is frozen  # in-place, same object
        assert freeze_result(frozen) is frozen  # idempotent
        # Frozen containers still equal their mutable twins, so every
        # equivalence assertion keeps working on cached results.
        assert frozen.pairs == set(reference.pairs)
        assert frozen.objects == reference.objects
        assert frozen.operator_counts == reference.operator_counts
        assert frozen.server_stats == reference.server_stats
        assert frozen.channel_stats == reference.channel_stats
        assert frozen.sorted_pairs() == reference.sorted_pairs()
        assert len(frozen.trace) == len(reference.trace)


# --------------------------------------------------------------------------- #
# content-true dataset tokens
# --------------------------------------------------------------------------- #


class _StubDataset:
    """Duck-typed dataset: tokens only consult name, len, mbrs and oids.

    A real :class:`SpatialDataset` coerces its arrays to canonical dtypes,
    which is exactly why the dtype/shape trap needs raw arrays to exhibit.
    """

    def __init__(self, name, mbrs, oids):
        self.name = name
        self.mbrs = mbrs
        self.oids = oids

    def __len__(self):
        return len(self.oids)


class TestDatasetToken:
    def test_same_bytes_different_dtype_no_longer_collide(self):
        """4 float64 zeros and 8 float32 zeros serialize to the same 32
        bytes; before the fix their digests (and hence cache keys)
        collided."""
        oids = np.arange(4, dtype=np.int64)
        a = _StubDataset("D", np.zeros(4, dtype=np.float64), oids)
        b = _StubDataset("D", np.zeros(8, dtype=np.float32), oids)
        assert a.mbrs.tobytes() == b.mbrs.tobytes()
        assert dataset_token(a) != dataset_token(b)

    def test_same_bytes_different_shape_no_longer_collide(self):
        oids = np.arange(4, dtype=np.int64)
        a = _StubDataset("D", np.zeros((2, 4)), oids)
        b = _StubDataset("D", np.zeros((4, 2)), oids)
        assert a.mbrs.tobytes() == b.mbrs.tobytes()
        assert a.mbrs.dtype == b.mbrs.dtype
        assert dataset_token(a) != dataset_token(b)

    def test_token_is_memoised_and_content_stable(self):
        r, _ = _datasets()
        first = dataset_token(r)
        assert dataset_token(r) is first  # memo hit on the same object
        r2, _ = _datasets()  # fresh object, same rows
        assert dataset_token(r2) == first  # content-derived, not identity


# --------------------------------------------------------------------------- #
# LRU eviction with exact accounting
# --------------------------------------------------------------------------- #


def _result(tag: int) -> JoinResult:
    return JoinResult(
        algorithm="stub", spec=JoinSpec.intersection(), pairs={(tag, tag)}
    )


class TestLRUCache:
    def test_hit_refreshes_recency(self):
        """FIFO would evict the oldest *inserted* entry; LRU keeps the hot
        one alive."""
        cache = ResultCache(max_entries=2)
        cache.put(("a",), _result(1))
        cache.put(("b",), _result(2))
        assert cache.get(("a",)) is not None  # refresh "a"
        cache.put(("c",), _result(3))  # must evict "b", not "a"
        assert cache.get(("a",)) is not None
        assert cache.get(("b",)) is None
        assert cache.get(("c",)) is not None
        assert cache.evictions == 1

    def test_eviction_accounting_is_exact(self):
        cache = ResultCache(max_entries=2)
        cache.put(("a",), _result(1))
        cache.put(("a",), _result(1))  # re-put: refresh, no eviction
        cache.put(("b",), _result(2))
        assert cache.evictions == 0 and len(cache) == 2
        cache.put(("c",), _result(3))
        cache.put(("d",), _result(4))
        assert cache.evictions == 2 and len(cache) == 2
        cache.clear()
        assert cache.evictions == 0 and len(cache) == 0

    def test_counters_survive_a_concurrent_hammer(self):
        """get/put/counters share one lock: totals must add up exactly."""
        cache = ResultCache(max_entries=8)
        keys = [(i,) for i in range(16)]
        for key in keys[:8]:
            cache.put(key, _result(key[0]))
        ops_per_thread = 300

        def hammer(seed: int) -> None:
            rng = np.random.default_rng(seed)
            for _ in range(ops_per_thread):
                key = keys[int(rng.integers(len(keys)))]
                if cache.get(key) is None:
                    cache.put(key, _result(key[0]))

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.hits + cache.misses == 4 * ops_per_thread
        assert len(cache) == 8

    def test_put_returns_the_frozen_result(self):
        cache = ResultCache()
        stored = cache.put(("k",), _result(5))
        assert cache.get(("k",)) is stored
        with pytest.raises(AttributeError):
            stored.pairs.add((9, 9))


# --------------------------------------------------------------------------- #
# ledger fingerprints: digested on first read, device released
# --------------------------------------------------------------------------- #


class TestLazyLedgerFingerprints:
    """``QueryOutcome.ledger_fingerprints`` is digested when first read, from
    readers that hold the channels only: equal to what an eager digest at
    the end of the wave gave, for failed queries too, and no outcome keeps
    its device alive."""

    @staticmethod
    def _queries(r, s):
        from repro.core.planner import StackConfig
        from repro.network.faults import Disconnect, FaultPlan

        fleet = StackConfig(shards_r=2, shards_s=2, replicas=2, faults=FaultPlan(seed=3, drop_rate=0.2))
        doomed = StackConfig(faults=FaultPlan(seed=0, disconnects=(Disconnect("S", 1),)))
        return [
            _query(r, s),
            _query(r, s, algorithm="mobijoin", stack=fleet),
            _query(r, s, algorithm="srjoin", stack=doomed),
        ]

    def test_digested_on_read_equal_to_the_eager_digest(self, monkeypatch):
        import gc
        import weakref

        from repro.network.channel import TrafficLog

        r, s = _datasets()
        eager = []
        note = QueryBroker._note_replica_faults

        def digest_then_note(self, entry):
            servers = entry.device.servers
            eager.append((servers.r.ledger_fingerprint(), servers.s.ledger_fingerprint()))
            return note(self, entry)

        monkeypatch.setattr(QueryBroker, "_note_replica_faults", digest_then_note)
        QueryBroker(cache=False).run_batch(self._queries(r, s))
        monkeypatch.undo()

        devices, digests = [], [0]
        build, fingerprint = QueryBroker._build_stack, TrafficLog.fingerprint

        def recorded(self, entry):
            build(self, entry)
            devices.append(weakref.ref(entry.device))

        def counted(self):
            digests[0] += 1
            return fingerprint(self)

        monkeypatch.setattr(QueryBroker, "_build_stack", recorded)
        monkeypatch.setattr(TrafficLog, "fingerprint", counted)
        outcomes = QueryBroker(cache=False).run_batch(self._queries(r, s))
        gc.collect()
        assert [o.status for o in outcomes] == ["ok", "ok", "failed"]
        assert digests[0] == 0 and len(devices) == 3
        assert [ref() for ref in devices] == [None, None, None]
        assert [o.ledger_fingerprints for o in outcomes] == eager and digests[0] > 0
        assert outcomes[1].ledger_fingerprints is outcomes[1].ledger_fingerprints
        assert eager[1][0] and len(eager[1][0]) == 2  # per-shard digests

    def test_a_cache_served_outcome_has_none(self):
        r, s = _datasets()
        cold, warm = QueryBroker().run_batch([_query(r, s), _query(r, s)])
        assert not cold.cached and cold.ledger_fingerprints is not None
        assert warm.cached and warm.ledger_fingerprints is None
        assert warm.ledger_readers is None
