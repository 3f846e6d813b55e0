"""The service-lane additions: frozen cache hits, content-true dataset
tokens, LRU eviction and the asynchronous
:class:`~repro.service.executor.QueryService` front-end.

Companion to ``tests/test_service_equivalence.py`` (which pins broker
results bit-for-bit against standalone runs); this file
pins the *correctness traps* the service fixes:

* a cache hit aliases the stored result, so the stored result must be
  deep-frozen -- mutating a hit raises instead of poisoning the next hit,
* dataset tokens digest dtype and shape, not just raw bytes,
* eviction is LRU with exact accounting,
* ``submit``/``poll``/``result``/callbacks behave like a server while
  staying bit-identical to the synchronous batch path.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.join_types import JoinSpec
from repro.core.planner import run_join
from repro.core.result import JoinResult
from repro.datasets.dataset import SpatialDataset
from repro.datasets.synthetic import clustered
from repro.errors import InvalidInput
from repro.service import (
    JoinQuery,
    QueryBroker,
    QueryService,
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
# the asynchronous service lane
# --------------------------------------------------------------------------- #


class TestQueryService:
    def test_submit_poll_result_matches_batch_path(self):
        r, s = _datasets()
        queries = [_query(r, s, algorithm=a) for a in ("upjoin", "srjoin", "mobijoin")]
        reference = QueryBroker(cache=False).run_batch(queries)
        with QueryService(cache=False) as service:
            tickets = service.submit_all(queries)
            outcomes = [service.result(t, timeout=60) for t in tickets]
        for ref, out, ticket in zip(reference, outcomes, tickets):
            assert out.ticket == ticket
            assert out.service_latency_s is not None and out.service_latency_s >= 0
            assert out.result.sorted_pairs() == ref.result.sorted_pairs()
            assert out.result.total_bytes == ref.result.total_bytes
            assert out.result.server_stats == ref.result.server_stats
            assert out.ledger_fingerprints == ref.ledger_fingerprints

    def test_poll_and_drain(self):
        r, s = _datasets()
        with QueryService(cache=False) as service:
            ticket = service.submit(_query(r, s))
            service.drain(timeout=60)
            assert service.poll(ticket)
            outcome = service.result(ticket, timeout=0)
            assert outcome.result.num_pairs == _standalone(
                _query(r, s), "upjoin"
            ).num_pairs

    def test_callback_fires_with_the_stamped_outcome(self):
        r, s = _datasets()
        seen = []
        done = threading.Event()

        def on_done(outcome):
            seen.append(outcome)
            done.set()

        with QueryService(cache=False) as service:
            ticket = service.submit(_query(r, s), callback=on_done)
            assert done.wait(60)
            outcome = service.result(ticket, timeout=60)
        assert seen == [outcome]
        assert seen[0].ticket == ticket and seen[0].service_latency_s is not None

    def test_result_is_collect_once(self):
        r, s = _datasets()
        with QueryService(cache=False) as service:
            ticket = service.submit(_query(r, s))
            service.result(ticket, timeout=60)
            with pytest.raises(KeyError):
                service.result(ticket, timeout=60)

    def test_failure_is_delivered_to_the_waiter(self, monkeypatch):
        from repro.core.srjoin import SrJoin

        def broken(*args, **kwargs):  # an untyped error in the middle of a wave
            raise ValueError("injected mid-wave failure")

        monkeypatch.setattr(SrJoin, "_root_task", broken)
        r, s = _datasets()
        with QueryService(cache=False) as service:
            ticket = service.submit(_query(r, s, algorithm="srjoin"))
            with pytest.raises(ValueError):
                service.result(ticket, timeout=60)
            # The service survives a failed wave.
            ok = service.submit(_query(r, s))
            assert service.result(ok, timeout=60).result.num_pairs > 0

    def test_a_query_that_cannot_be_planned_fails_its_own_ticket_only(self):
        """Regression: it failed its batch neighbours with its own error and
        the next, unrelated ticket with ``ServiceClosed("broker returned 2
        outcomes for a batch of 1 queries")``."""
        r, s = _datasets()
        empty = SpatialDataset(np.empty((0, 4)), name="E")
        windowless = JoinQuery(empty, empty.rename("F"), JoinSpec.distance(0.03))
        entered, release = threading.Event(), threading.Event()

        def blocker(_outcome):
            entered.set()
            release.wait(60)

        with QueryService(cache=False) as service:
            service.submit(_query(r, s), callback=blocker)
            assert entered.wait(60)
            # Queued behind the wedged loop, so the three form one batch.
            before, failed, after = service.submit_all(
                [_query(r, s), windowless, _query(r, s, algorithm="naive")]
            )
            release.set()
            outcome = service.result(failed, timeout=60)
            assert outcome.status == "failed" and outcome.ticket == failed
            assert isinstance(outcome.error, InvalidInput)
            for ticket in (before, after):
                assert service.result(ticket, timeout=60).status == "ok"
            assert service.broker.stats.waves == 2
            later = service.submit(_query(r, s, algorithm="srjoin"))
            assert service.result(later, timeout=60).status == "ok"

    def test_close_finishes_queued_work_then_rejects_submissions(self):
        r, s = _datasets()
        service = QueryService(cache=False)
        tickets = service.submit_all([_query(r, s, algorithm=a) for a in ("upjoin", "naive")])
        service.close(wait=True)
        for ticket in tickets:
            assert service.poll(ticket)
            assert service.result(ticket, timeout=0).result.num_pairs > 0
        with pytest.raises(RuntimeError):
            service.submit(_query(r, s))

    def test_arrivals_coalesce_into_waves(self):
        """Queries submitted together run in fewer broker waves than
        queries submitted one-at-a-time with a drain in between -- the
        continuous-admission win the load benchmark measures."""
        r, s = _datasets()
        queries = [_query(r, s, algorithm=a) for a in ("upjoin", "srjoin", "mobijoin", "naive")]
        with QueryService(cache=False) as burst:
            burst.submit_all(queries)
            burst.drain(timeout=120)
            burst_waves = burst.broker.stats.waves
        with QueryService(cache=False) as trickle:
            for query in queries:
                trickle.submit(query)
                trickle.drain(timeout=120)
            trickle_waves = trickle.broker.stats.waves
        assert burst_waves < trickle_waves == len(queries)

    def test_broker_xor_kwargs(self):
        """A pre-built broker plus *any* broker argument is refused, in
        both entry points -- ``cache=`` / ``breaker_threshold=`` included,
        whose defaults are not ``None``."""
        from repro.api import batch_join

        broker = QueryBroker(cache=False)
        for kwargs in (
            {"max_wave": 2},
            {"cache": False},
            {"breaker_threshold": 3},
            {"cache": False, "breaker_threshold": 3},
        ):
            with pytest.raises(ValueError, match="pre-built broker"):
                QueryService(broker, **kwargs)
            with pytest.raises(ValueError, match="pre-built broker"):
                batch_join([], broker=broker, **kwargs)
        service = QueryService(broker)
        assert service.broker is broker
        service.close()


# --------------------------------------------------------------------------- #
# typed service errors (PR 7)
# --------------------------------------------------------------------------- #


class TestTypedServiceErrors:
    """The service lane's failure surface is typed: waiters time out with
    :class:`~repro.errors.QueryTimeout` (still a ``TimeoutError``),
    cancelled tickets fail with :class:`~repro.errors.ServiceClosed`
    (still a ``RuntimeError``), and a client callback that raises never
    kills the admission loop."""

    def test_result_timeout_is_typed(self):
        from repro.errors import QueryTimeout

        r, s = _datasets()
        entered = threading.Event()
        release = threading.Event()

        def blocker(_outcome):
            entered.set()
            release.wait(60)

        with QueryService(cache=False) as service:
            first = service.submit(_query(r, s), callback=blocker)
            assert entered.wait(60)
            # The admission loop is wedged inside the first callback; this
            # ticket cannot complete yet.
            second = service.submit(_query(r, s, algorithm="naive"))
            with pytest.raises(QueryTimeout) as exc:
                service.result(second, timeout=0.05)
            assert isinstance(exc.value, TimeoutError)  # back-compat
            release.set()
            assert service.result(first, timeout=60).result.num_pairs > 0
            assert service.result(second, timeout=60).result.num_pairs > 0

    def test_close_cancel_pending_fails_tickets_with_typed_error(self):
        from repro.errors import ServiceClosed

        r, s = _datasets()
        entered = threading.Event()
        release = threading.Event()

        def blocker(_outcome):
            entered.set()
            release.wait(60)

        service = QueryService(cache=False)
        first = service.submit(_query(r, s), callback=blocker)
        assert entered.wait(60)
        # Queued behind the wedged loop: these never start.
        parked = service.submit_all(
            [_query(r, s, algorithm=a) for a in ("naive", "srjoin")]
        )
        service.close(wait=False, cancel_pending=True)
        for ticket in parked:
            assert service.poll(ticket)
            with pytest.raises(ServiceClosed) as exc:
                service.result(ticket, timeout=0)
            assert isinstance(exc.value, RuntimeError)  # back-compat
        release.set()
        service.close(wait=True)
        # The in-flight query still completed normally.
        assert service.result(first, timeout=0).result.num_pairs > 0
        with pytest.raises(ServiceClosed):
            service.submit(_query(r, s))

    @pytest.mark.parametrize("cancel_pending", [False, True])
    def test_close_racing_submit_settles_every_ticket(self, cancel_pending):
        """Client threads keep submitting while another thread closes the
        service: each ``submit`` either raises ``ServiceClosed`` or returns
        a ticket whose ``result()`` completes (ok, or ``ServiceClosed`` for
        a cancelled one), ``drain()`` returns, and no thread hangs."""
        from repro.errors import ServiceClosed

        r, s = _datasets()
        service = QueryService()
        start, submitted = threading.Barrier(5), threading.Event()
        tickets, ends, errors = [], [], []

        def client():
            start.wait(60)
            try:
                for _ in range(100):
                    try:
                        tickets.append(service.submit(_query(r, s, algorithm="naive")))
                    except ServiceClosed:
                        ends.append("refused")
                        return
                    submitted.set()
                ends.append("done")
            except Exception as error:  # noqa: BLE001 -- reported below
                errors.append(error)

        def closer():
            start.wait(60)
            submitted.wait(60)  # close while the clients are mid-stream
            service.close(wait=True, cancel_pending=cancel_pending)

        threads = [threading.Thread(target=client) for _ in range(4)]
        threads.append(threading.Thread(target=closer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings of submit and close
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(ends) == 4 and tickets
        service.drain(timeout=60)
        statuses = []
        for ticket in tickets:
            try:
                statuses.append(service.result(ticket, timeout=60).status)
            except ServiceClosed:
                statuses.append("closed")
        assert set(statuses) <= ({"ok", "closed"} if cancel_pending else {"ok"})
        with pytest.raises(ServiceClosed):
            service.submit(_query(r, s))

    def test_raising_callback_does_not_kill_the_loop(self):
        def bomb(_outcome):
            raise RuntimeError("client callback exploded")

        r, s = _datasets()
        with QueryService(cache=False) as service:
            first = service.submit(_query(r, s), callback=bomb)
            second = service.submit(_query(r, s, algorithm="naive"))
            assert service.result(first, timeout=60).result.num_pairs > 0
            assert service.result(second, timeout=60).result.num_pairs > 0


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
