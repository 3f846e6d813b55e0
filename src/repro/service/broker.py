"""The multi-tenant query broker.

PRs 1-4 built the substrate for serving many clients at once: immutable
shared server stacks, batched COUNT/WINDOW/RANGE endpoints, and a
level-order frontier engine that amortises exchanges *within* one query.
This module adds the serving layer itself.  A :class:`QueryBroker` has one
entry point, :meth:`QueryBroker.run_batch`: it takes a batch of join
queries -- possibly over different dataset pairs, specs and buffer sizes --
and

1. **plans** each query: :func:`~repro.core.planner.select_algorithm`
   predicts every selectable algorithm's transfer cost from the query's own
   configuration (:func:`~repro.core.costmodel.predict_algorithm_costs`, a
   pure function of the query) and picks the cheapest; an explicit
   ``algorithm=`` on the query overrides the choice, and
   :meth:`QueryBroker.explain` reports predicted vs. chosen either way;

2. **admits** the planned queries in deterministic waves of at most
   ``max_wave``, deduplicating identical queries through the result cache
   (keyed on datasets, spec, algorithm and configuration): a warm cache
   serves a query without executing anything, and identical queries inside
   one batch share a single execution;

3. **executes** each wave cooperatively.  Every query runs on its own
   session stack -- own metered channels, own device, own statistics
   *view* of a cached server build
   (:meth:`~repro.server.server.SpatialServer.shared_view`) -- as a step
   generator (:mod:`repro.device.steps`): it *offers* every server
   evaluation it needs, COUNT rounds and the operators' WINDOW downloads
   and RANGE probes alike.  Per wave round the broker takes one step from
   each in-flight query, gathers all rows of one query kind that target
   the same backing build into one group evaluated in **one** stat-free
   descent, and has every query book its own share on its own connections
   (:func:`~repro.device.steps.gather` /
   :func:`~repro.device.steps.book_step`).  That is the loop a standalone
   run drives too (:func:`~repro.device.steps.run_steps`, a wave of one),
   so pairs, bytes, server statistics, fault streams and decision traces
   are bit-identical to running the query alone by construction -- under
   any submission order, with the cache cold or warm (pinned by
   ``tests/test_service_equivalence.py`` and ``tests/test_wave_fusion.py``).

   The per-query advances between the coalesced evaluations run inline on
   the executing thread, one query after the other: they are GIL-bound
   Python, and a thread pool over them measured 0.6-0.7x of this loop.

SemiJoin's index relay is no step kind: it still runs through the broker
on its own isolated stack, inside the advance that follows its root COUNT
round, and contributes no further shared rounds.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.planner import PlanDecision, build_algorithm, select_algorithm
from repro.core.result import JoinResult
from repro.device.pda import MobileDevice
from repro.device.steps import COUNT, Group, Step, book_step, gather
from repro.errors import QueryTimeout, ReproError, ServerUnavailable, require_count
from repro.network.config import NetworkConfig
from repro.obs.trace import NULL_TRACER
from repro.server.server import SpatialServer
from repro.service.cache import ResultCache, dataset_token, query_key
from repro.service.query import JoinQuery, QueryOutcome

__all__ = ["BrokerStats", "DEFAULT_CACHE_MAX_BYTES", "QueryBroker", "resolve_broker"]

#: Default byte budget for broker-built result caches: enough for tens of
#: thousands of typical cached results, small enough that a long-lived
#: broker cannot grow without bound on result payloads alone.
DEFAULT_CACHE_MAX_BYTES = 64 * 1024 * 1024


@dataclass
class BrokerStats:
    """Service-level accounting (metering of the joins themselves stays on
    each query's own channels).

    Counter updates go through :meth:`bump`, which holds the stats lock.
    Only the thread running :meth:`QueryBroker.run_batch` bumps them, but
    client threads of the async service lane read :meth:`as_dict` while a
    batch runs, and the lock gives them a consistent snapshot.
    """

    queries_submitted: int = 0
    queries_executed: int = 0
    cache_hits: int = 0
    waves: int = 0
    #: Batched evaluations actually made: one per (backing server, query
    #: kind, round) across all in-flight queries of a wave.
    coalesced_exchanges: int = 0
    #: Exchanges the same queries would have flushed standalone: one per
    #: request of every step they offered.
    standalone_exchanges: int = 0
    #: COUNT windows answered through coalesced exchanges.
    coalesced_count_queries: int = 0
    #: Queries that ended ``failed`` / ``timeout`` (isolated from their
    #: wave; the rest of the wave completed untouched).
    queries_failed: int = 0
    #: Queries shed up front because a backing server's circuit breaker
    #: was open (they count into ``queries_failed`` as well).
    breaker_rejections: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def bump(self, **deltas: int) -> None:
        """Atomically add the given deltas to the named counters."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {
                key: value
                for key, value in self.__dict__.items()
                if not key.startswith("_")
            }


@dataclass
class _Admitted:
    """Broker-internal state of one submitted query."""

    query: JoinQuery
    #: The plan and the cache key; both None when planning itself failed
    #: (``failure`` then holds the typed error and nothing executes).
    plan: Optional[PlanDecision]
    key: Optional[Tuple]
    #: Position of the query in its batch (and in the outcome list).
    index: int
    outcome: Optional[QueryOutcome] = None
    # wave-execution state
    base_r: Optional[SpatialServer] = None
    base_s: Optional[SpatialServer] = None
    device: Optional[MobileDevice] = None
    gen: Optional[Generator] = None
    #: The step the query offered and waits to have answered.
    pending: Optional[Step] = None
    result: Optional[JoinResult] = None
    ledger_readers: Optional[Tuple[Callable[[], Tuple], ...]] = None
    #: The typed error that isolated this query from its wave, if any.
    failure: Optional[BaseException] = None
    #: Breaker verdicts by unit name (``name -> "down"/"probe"``), computed
    #: at admission and pushed into the connections' replica sets so a
    #: cooling replica is routed around and a half-open unit receives the
    #: probe traffic.
    replica_health: Optional[Dict[str, str]] = None
    #: The query's span under the wave span (None while tracing is off).
    span: Optional[object] = None


@dataclass
class _Breaker:
    """Per-breaker-unit circuit breaker state.

    A *unit* is one independently-breakable server: a plain base server,
    or one replica of a fleet's shard.  The registry keys breakers by the
    unit's stable :attr:`~repro.server.server.SpatialServer.breaker_token`
    (``(name, registration uid)``), never by ``id()``: a new server that
    recycles a dead server's object id (routine once shard fleets are
    built, dropped and rebuilt) gets a fresh token and therefore starts
    with a closed breaker.

    States: *closed* while ``open_until_wave`` is ``None``; *open* (routed
    around, or shedding the query when no unit of its group is left; see
    :meth:`QueryBroker._check_breaker`) until the broker's wave counter
    reaches ``open_until_wave``; then *half-open* -- the next query probes
    the server, with ``failures`` primed one short of the threshold so a
    single failed probe re-opens the breaker while a success closes it.
    """

    unit: SpatialServer
    failures: int = 0
    open_until_wave: Optional[int] = None


def _failure_status(failure: BaseException) -> str:
    """``"timeout"`` for a crossed deadline budget, ``"failed"`` otherwise."""
    return "timeout" if isinstance(failure, QueryTimeout) else "failed"


class QueryBroker:
    """Plans, admits and executes concurrent join queries.

    Parameters
    ----------
    config:
        Default wire constants / tariffs for queries that carry none.
    max_wave:
        Admission width: at most this many distinct queries execute
        concurrently (per wave).  Waves are formed in submission order, so
        scheduling is deterministic.
    cache:
        Result-cache toggle, or a pre-built :class:`ResultCache` to share
        between brokers.  Broker-built caches are bounded on both axes
        (LRU, 4096 entries, ``cache_max_bytes`` payload budget); pass your
        own ``ResultCache(max_entries=None)`` for an unbounded one.
        :meth:`clear_caches` releases both the result cache and the server
        builds of a long-lived broker.
    cache_max_bytes:
        Payload byte budget of the broker-built result cache
        (:data:`DEFAULT_CACHE_MAX_BYTES` by default; ``None`` for
        unbounded).  Ignored when a pre-built cache is passed.
    breaker_threshold:
        Consecutive :class:`ServerUnavailable` failures against one
        backing server before its circuit breaker opens and the broker
        sheds further queries to it without executing.
    breaker_cooldown_waves:
        Waves an open breaker stays open before going half-open (one
        probing query decides between closing and re-opening).
    max_server_builds:
        LRU entry cap on the cached server builds (index builds per
        distinct dataset pair and shard layout).  Evicting a build also
        drops its breaker entries, exactly like :meth:`clear_caches`.
        ``None`` disables the bound (the pre-cap behaviour).
    tracer:
        Optional :class:`repro.obs.Tracer`; threads span instrumentation
        through every wave, query and coalesced exchange.  Defaults to
        the no-op tracer (observability off, zero overhead).
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`; wires counters and
        histograms through the cache, channels, resilience controllers
        and wave loop.  Strictly read-only either way: results are
        bit-identical with hooks on or off.
    """

    def __init__(
        self,
        config: Optional[NetworkConfig] = None,
        max_wave: int = 16,
        cache: object = True,
        breaker_threshold: int = 3,
        breaker_cooldown_waves: int = 2,
        cache_max_bytes: Optional[int] = DEFAULT_CACHE_MAX_BYTES,
        max_server_builds: Optional[int] = 32,
        tracer=None,
        metrics=None,
    ) -> None:
        require_count(max_wave, "max_wave")
        require_count(breaker_threshold, "breaker_threshold")
        require_count(breaker_cooldown_waves, "breaker_cooldown_waves")
        require_count(max_server_builds, "max_server_builds", unbounded=True)
        self.config = config or NetworkConfig()
        self.max_wave = max_wave
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        if isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(
                enabled=bool(cache),
                max_entries=4096,
                max_bytes=cache_max_bytes,
                metrics=metrics,
            )
        self.stats = BrokerStats()
        # Guards the server-build cache and the breakers: a client thread
        # may call clear_caches() while the admission thread executes.
        self._lock = threading.RLock()
        self.max_server_builds = max_server_builds
        self._servers: "OrderedDict[Tuple, Tuple[SpatialServer, SpatialServer]]" = (
            OrderedDict()
        )
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_waves = breaker_cooldown_waves
        #: Circuit breakers keyed by the unit's stable ``breaker_token``
        #: (``(name, registration uid)``) -- see :class:`_Breaker`.
        self._breakers: Dict[Tuple[str, int], _Breaker] = {}
        #: Monotone wave clock driving breaker cooldowns (counts every
        #: executed wave across all ``run_batch()`` calls).
        self._wave_counter = 0
        # --- observability state (all None / 0 while hooks are off) ---
        #: Monotone batch counter labelling "execute" spans.
        self._batch_counter = 0
        #: The live "execute" span (coordinator thread only).
        self._batch_span = None
        #: The live "wave" span (coordinator thread only).
        self._wave_span = None
        #: Parent span supplied by a wrapping QueryService admission loop.
        self._service_span = None
        self._m_queries = None
        self._m_query_bytes = None
        self._m_wave_occupancy = None
        self._m_exchanges = None
        self._m_round_windows = None
        self._m_breaker = None
        if metrics is not None:
            self._m_queries = metrics.counter(
                "repro_queries_total", "Queries completed by the broker, by status"
            )
            self._m_query_bytes = metrics.counter(
                "repro_query_bytes_total",
                "Primary-lane wire bytes of completed queries, by side",
            )
            self._m_wave_occupancy = metrics.histogram(
                "repro_wave_occupancy",
                "Queries per executed wave",
                buckets=(1, 2, 4, 8, 16, 32, 64),
            )
            self._m_exchanges = metrics.counter(
                "repro_coalesced_exchanges_total",
                "Coalesced evaluations made (one per server, query kind, round)",
            )
            self._m_round_windows = metrics.histogram(
                "repro_round_windows",
                "Windows / probes answered per coalesced evaluation",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
            )
            self._m_breaker = metrics.counter(
                "repro_breaker_transitions_total",
                "Circuit-breaker state transitions, by new state and server",
            )

    def clear_caches(self) -> None:
        """Release the result cache and the cached server builds.

        For long-lived brokers: results and index builds are retained
        across batches by design (that is the serving win); this is the
        explicit release valve when the dataset population rotates.
        Detaching the server builds also evicts their breaker entries --
        breaker state must never outlive the server it was charged
        against.
        """
        self.cache.clear()
        with self._lock:
            self._servers.clear()
            self._breakers.clear()

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #

    def explain(self, query: JoinQuery) -> PlanDecision:
        """Predicted per-algorithm costs and the algorithm that would run.

        ``overridden`` marks an explicit ``algorithm=`` on the query; the
        prediction set is reported either way so the override can be
        compared against the model's own preference.
        """
        return select_algorithm(
            query.spec,
            query.resolved_window(),
            len(query.dataset_r),
            len(query.dataset_s),
            config=query.config or self.config,
            buffer_size=query.buffer_size,
            params=query.resolved_params(),
            algorithm=query.algorithm,
        )

    # ------------------------------------------------------------------ #
    # admission and execution
    # ------------------------------------------------------------------ #

    def run_batch(self, queries: Sequence[JoinQuery]) -> List[QueryOutcome]:
        """Plan and execute a batch; outcomes in submission order.

        Every query is planned and keyed before any executes, so a raise
        while planning leaves nothing behind (not even a
        ``queries_submitted`` count).  The planning-time twin of
        :meth:`_fail_entry`: a typed :class:`~repro.errors.ReproError`
        while planning one query becomes that query's ``"failed"`` outcome
        and its neighbours run untouched; anything else is a bug and
        propagates.

        Warm cache hits never execute; identical queries within the batch
        share one execution (the first occurrence leads) when the result
        cache is enabled.  The remaining distinct queries run in waves of
        at most ``max_wave``, all queries of a wave advancing in lock-step
        rounds with the steps they offer evaluated together per backing
        server.
        """
        batch = []
        for index, query in enumerate(queries):
            try:
                plan = self.explain(query)
                key = query_key(query, plan.algorithm, self.config)
            except ReproError as error:
                batch.append(_Admitted(query, None, None, index, failure=error))
            else:
                batch.append(_Admitted(query, plan, key, index))
        self.stats.bump(queries_submitted=len(batch))
        if self.tracer.enabled:
            self._batch_counter += 1
            self._batch_span = self.tracer.span(
                "execute",
                parent=self._service_span,
                batch=self._batch_counter,
                queries=len(batch),
            )
        try:
            return self._execute_batch(batch)
        finally:
            if self._batch_span is not None:
                self._batch_span.close()
                self._batch_span = None

    def _execute_batch(self, batch: List[_Admitted]) -> List[QueryOutcome]:
        pending, leaders, followers = self._admit(batch)
        waves = [
            pending[i : i + self.max_wave]
            for i in range(0, len(pending), self.max_wave)
        ]
        for wave_index, wave in enumerate(waves):
            self._execute_wave(wave, wave_index)
            for entry in wave:
                if entry.failure is not None:
                    self._settle_failure(entry, wave_index)
                    continue
                assert entry.result is not None
                # put() deep-freezes the result in place (same object), so
                # the outcome below and every later cache hit share one
                # immutable result.
                self.cache.put(entry.key, entry.result)
                entry.outcome = QueryOutcome(
                    query=entry.query,
                    result=entry.result,
                    plan=entry.plan,
                    cached=False,
                    wave=wave_index,
                    ledger_readers=entry.ledger_readers,
                )
                if self._m_queries is not None:
                    self._m_queries.inc(status="ok")
                    self._m_query_bytes.inc(entry.result.bytes_r, side="R")
                    self._m_query_bytes.inc(entry.result.bytes_s, side="S")
            self.stats.bump(waves=1, queries_executed=len(wave))
        # Followers share their leader's result (one execution per key) --
        # or its failure, since nothing was cached for them to read.
        for entry in followers:
            leader = leaders[entry.key]
            assert leader.outcome is not None
            lead = leader.outcome
            entry.outcome = QueryOutcome(
                query=entry.query,
                result=lead.result,
                plan=entry.plan,
                status=lead.status,
                error=lead.error,
                cached=lead.status == "ok",
                wave=lead.wave,
            )
            if lead.status == "ok":
                self.stats.bump(cache_hits=1)
                if self._m_queries is not None:
                    self._m_queries.inc(status="cached")
            else:
                self.stats.bump(queries_failed=1)
                if self._m_queries is not None:
                    self._m_queries.inc(status=lead.status)
        return [entry.outcome for entry in batch]

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _settle_failure(self, entry: _Admitted, wave: int) -> None:
        """Graceful degradation: a query that failed -- to plan, or inside
        its wave -- is isolated: no cached result, the typed error on its
        outcome."""
        entry.outcome = QueryOutcome(
            query=entry.query,
            result=None,
            plan=entry.plan,
            status=_failure_status(entry.failure),
            error=entry.failure,
            wave=wave,
            ledger_readers=entry.ledger_readers,
        )
        self.stats.bump(queries_failed=1)
        if self._m_queries is not None:
            self._m_queries.inc(status=entry.outcome.status)

    def _admit(self, batch: List[_Admitted]):
        """Split a batch into executable leaders and cache followers.

        Deduplication -- warm hits and in-batch twins alike -- is a cache
        feature: with the cache disabled every query executes on its own
        stack and gets its own result object (the experiment harness
        relies on that one-result-per-run shape).
        """
        leaders: Dict[Tuple, _Admitted] = {}
        followers: List[_Admitted] = []
        to_execute: List[_Admitted] = []
        for entry in batch:
            if entry.failure is not None:
                # Failed to plan: nothing to execute, nothing to look up.
                self._settle_failure(entry, wave=-1)
                continue
            if not self.cache.enabled:
                to_execute.append(entry)
                continue
            cached = self.cache.get(entry.key)
            if cached is not None:
                entry.outcome = QueryOutcome(
                    query=entry.query,
                    result=cached,
                    plan=entry.plan,
                    cached=True,
                    wave=-1,
                )
                self.stats.bump(cache_hits=1)
                if self._batch_span is not None:
                    self._batch_span.event(
                        "cache-hit", ticket=entry.index, algorithm=entry.plan.algorithm
                    )
                if self._m_queries is not None:
                    self._m_queries.inc(status="cached")
                continue
            if entry.key in leaders:
                followers.append(entry)
                continue
            leaders[entry.key] = entry
            to_execute.append(entry)
        return to_execute, leaders, followers

    def _base_servers(self, query: JoinQuery) -> Tuple[SpatialServer, SpatialServer]:
        """The cached server build backing one query's dataset pair.

        The build key carries the stack's :attr:`~repro.core.planner.
        StackConfig.topology` and none of its resilience members: the same
        dataset pair served unsharded and as a 4-shard fleet are two
        distinct (placed) builds, each with its own per-shard ledgers and
        breaker units, while a fault plan or deadline never forks a build.
        """
        if query.servers is not None:
            return query.servers
        key = (
            dataset_token(query.dataset_r),
            dataset_token(query.dataset_s),
            query.stack.topology,
        )
        with self._lock:
            pair = self._servers.get(key)
            if pair is not None:
                self._servers.move_to_end(key)
            else:
                pair = query.stack.servers(query.dataset_r, query.dataset_s)
                self._servers[key] = pair
                # LRU bound for long-lived brokers: shed the coldest build
                # (in-flight queries keep their own references, so a build
                # evicted mid-wave finishes its queries and is then freed).
                # The evicted build's breaker entries go with it -- breaker
                # state must never outlive the server it was charged
                # against (same contract as clear_caches()).
                if self.max_server_builds is not None:
                    while len(self._servers) > self.max_server_builds:
                        _, evicted = self._servers.popitem(last=False)
                        for base in evicted:
                            for unit in base.breaker_units():
                                self._breakers.pop(unit.breaker_token, None)
        return pair

    def _build_stack(self, entry: _Admitted) -> None:
        """One isolated session stack per query: statistics views of the
        cached servers (looked up once, by :meth:`_check_breaker`), fresh
        metered channels, a fresh device."""
        query = entry.query
        algorithm = entry.plan.algorithm
        entry.device = query.stack.connect(
            entry.base_r.shared_view(),
            entry.base_s.shared_view(),
            config=query.config or self.config,
            indexed=algorithm == "semijoin",
            buffer_size=query.buffer_size,
            tracer=self.tracer,
            metrics=self.metrics,
            replica_health=entry.replica_health,
        )
        # The query's own "join" span (opened by the algorithm at run
        # start) parents under its wave-level query span.
        entry.device.trace_root = entry.span
        algo = build_algorithm(
            algorithm, entry.device, query.spec, query.resolved_params()
        )
        entry.gen = algo.run_cooperative(query.resolved_window())

    @staticmethod
    def _advance(entry: _Admitted, answers) -> None:
        try:
            entry.pending = entry.gen.send(answers)
        except StopIteration as stop:
            entry.pending = None
            entry.result = stop.value

    # -------------------------- circuit breaker ----------------------- #

    def _note_breaker_transition(self, state: str, unit_name: str) -> None:
        """Emit one breaker state change to the observability hooks.

        Transitions happen on the coordinator thread (admission checks and
        wave settlement), so appending to the wave span is race-free; the
        transition stream itself is deterministic, being a pure function of
        the wave's failure verdicts.
        """
        span = self._wave_span
        if span is not None:
            span.event("breaker-" + state, server=unit_name)
        if self._m_breaker is not None:
            self._m_breaker.inc(state=state, server=unit_name)

    def _check_breaker(self, entry: _Admitted) -> None:
        """Shed the query up front if a failover group has no unit left.

        Breaker units are walked per failover group
        (:meth:`~repro.server.server.SpatialServer.breaker_groups`: a plain
        server is a group of one, a shard its replicas), one rule for all:

        * the query is shed when *every* unit of a group is open and still
          cooling;
        * an open unit past its cooldown goes half-open: the query is let
          through as the probe, with the failure count primed one short of
          the threshold so a single failed probe re-opens it, and the unit
          is marked ``"probe"`` (its connection tries it first, so the
          probe traffic reaches the recovering server);
        * a cooling unit with a sibling is marked ``"down"`` (routed
          around, tried last-resort only).

        The marks land in ``entry.replica_health`` and are applied to the
        connections at connect time.
        """
        base_r, base_s = self._base_servers(entry.query)
        entry.base_r, entry.base_s = base_r, base_s
        health: Dict[str, str] = {}
        for base in (base_r, base_s):
            for group in base.breaker_groups():
                cooling = []
                half_open = []
                for unit in group:
                    breaker = self._breakers.get(unit.breaker_token)
                    if breaker is None or breaker.open_until_wave is None:
                        continue
                    if self._wave_counter < breaker.open_until_wave:
                        cooling.append((unit, breaker))
                    else:
                        half_open.append((unit, breaker))
                if len(cooling) == len(group):
                    # A replica's name is its shard's plus "/j".
                    name = group[0].name.rsplit("/", 1)[0]
                    until = max(b.open_until_wave for _, b in cooling)
                    self.stats.bump(breaker_rejections=1)
                    raise ServerUnavailable(
                        f"circuit breaker open for every replica of {name!r} "
                        f"(until wave {until}, now {self._wave_counter})",
                        server=name,
                        kind="breaker",
                        recoverable=False,
                    )
                for unit, breaker in half_open:
                    breaker.open_until_wave = None
                    breaker.failures = self.breaker_threshold - 1
                    health[unit.name] = "probe"
                    self._note_breaker_transition("half-open", unit.name)
                for unit, _breaker in cooling:
                    health[unit.name] = "down"
        entry.replica_health = health or None

    def _unit_for_server_name(self, entry: _Admitted, server_name: Optional[str]):
        """The breaker unit behind one failing channel name.

        Channel names are a side's logical name (``"R"``/``"S"``), a shard
        name (``"R#2"``) or a replica name (``"R#2/1"``); the side prefix
        picks the base build and the exact name picks the unit (a shard, a
        replica, or the base itself).  A *shard*-level failure of a
        replicated fleet (every replica lost) matches no unit by design:
        the per-replica charges already landed via the failover events.
        """
        if server_name is None:
            return None
        side = server_name.split("#", 1)[0].upper()
        base = entry.base_r if side == "R" else entry.base_s
        if base is None:
            return None
        for unit in base.breaker_units():
            if unit.name == server_name:
                return unit
        return None

    def _charge_breaker(self, unit: SpatialServer) -> None:
        """Book one failure against a unit; open its breaker at the threshold."""
        breaker = self._breakers.get(unit.breaker_token)
        if breaker is None:
            breaker = self._breakers[unit.breaker_token] = _Breaker(unit)
        breaker.failures += 1
        if breaker.failures >= self.breaker_threshold:
            breaker.open_until_wave = (
                self._wave_counter + 1 + self.breaker_cooldown_waves
            )
            self._note_breaker_transition("open", unit.name)

    def _note_entry_failure(self, entry: _Admitted, error: BaseException) -> None:
        """Feed a query failure into the breaker bookkeeping.

        Only genuine :class:`ServerUnavailable` verdicts count (an
        unavailability window outlasting the retry budget) -- not breaker
        fast-fails (kind ``"breaker"``), and not drop-induced retry
        exhaustion or timeouts, which say nothing about the *server*.  A
        shard fleet degrades shard by shard: the failure is charged to the
        shard whose channel faulted, never to its siblings.
        """
        if not isinstance(error, ServerUnavailable) or error.kind == "breaker":
            return
        unit = self._unit_for_server_name(entry, error.server)
        if unit is not None:
            self._charge_breaker(unit)

    def _note_replica_faults(self, entry: _Admitted) -> set:
        """Charge per-replica breakers for this query's mid-query failovers.

        A replicated shard absorbs replica loss without failing the query,
        so the failure signal never reaches :meth:`_note_entry_failure`;
        it lives in the connections' failover events instead.  Each replica
        that lost an exchange to an unavailability verdict is charged one
        breaker failure per query (mirroring the one-failure-per-query
        accounting of unreplicated servers).  Returns the charged replica
        names so a successful (failed-over) query does not immediately
        reset them in :meth:`_note_entry_success`.
        """
        faulted: set = set()
        if entry.device is None:
            return faulted
        for side in (entry.device.servers.r, entry.device.servers.s):
            for _shard, replica, _label, kind in side.failover_events():
                if kind != "unavailable" or replica in faulted:
                    continue
                faulted.add(replica)
                unit = self._unit_for_server_name(entry, replica)
                if unit is not None:
                    self._charge_breaker(unit)
        return faulted

    def _note_entry_success(
        self, entry: _Admitted, faulted: frozenset = frozenset()
    ) -> None:
        """A completed query closes the breakers of all its servers' units.

        ``faulted`` names the replicas this very query failed over away
        from: the query's success says nothing about *them*, so their
        breaker counts survive.
        """
        for base in (entry.base_r, entry.base_s):
            if base is None:
                continue
            for unit in base.breaker_units():
                if unit.name in faulted:
                    continue
                breaker = self._breakers.get(unit.breaker_token)
                if breaker is not None and breaker.open_until_wave is None:
                    if breaker.failures:
                        self._note_breaker_transition("close", unit.name)
                    breaker.failures = 0

    def _fail_entry(self, entry: _Admitted, error: BaseException) -> None:
        """Isolate one failed query from its wave."""
        entry.failure = error
        entry.pending = None
        if entry.gen is not None:
            entry.gen.close()
        self._note_entry_failure(entry, error)

    def _advance_all(self, entries: List[_Admitted], advance) -> None:
        """Run ``advance(entry)`` for every entry, then settle the failures.

        One query's fault must not abort its neighbours, so every entry
        advances before any failure is applied: typed faults isolate the
        query; anything else is a bug and propagates (discarding the
        batch, exactly as before the resilience layer existed).
        """
        failures: List[Tuple[_Admitted, Exception]] = []
        for entry in entries:
            try:
                advance(entry)
            except Exception as error:  # noqa: BLE001 -- settled below
                failures.append((entry, error))
        for entry, error in failures:
            if not isinstance(error, ReproError):
                raise error
            self._fail_entry(entry, error)

    # ------------------------------------------------------------------ #

    def _execute_wave(self, wave: List[_Admitted], wave_index: int) -> None:
        """Drive all queries of one wave in lock-step coalesced rounds.

        Between rounds every query advances in turn -- priming, decisions,
        in-memory joins, booking; the steps the queries offer are gathered
        and evaluated in submission order.

        A query that raises a typed :class:`~repro.errors.ReproError` --
        an unrecoverable channel fault, retry exhaustion, a deadline
        timeout, an open breaker -- is isolated via :meth:`_fail_entry`:
        its generator is closed, its failure recorded, and the rest of
        the wave continues bit-identically (each query's fault stream and
        ledger are private, so a neighbour's failure cannot perturb
        them).  Anything else is a programming error and keeps the
        pre-resilience contract: it propagates and discards the batch.
        """
        self._wave_counter += 1
        if self.tracer.enabled:
            self._wave_span = self.tracer.span(
                "wave",
                parent=self._batch_span,
                wave=self._wave_counter,
                queries=len(wave),
            )
        if self._m_wave_occupancy is not None:
            self._m_wave_occupancy.observe(len(wave))
        try:
            self._run_wave(wave)
        finally:
            if self._wave_span is not None:
                self._wave_span.close()
                self._wave_span = None

    def _evaluate(self, group: Group, round_index: int) -> None:
        """Answer all rows of one group in one descent of its backing build."""
        base, kind = group.base, group.kind
        rows, requests = group.rows, len(group.members)
        span = None
        if self._wave_span is not None:
            span = self._wave_span.child(
                "coalesced",
                round=round_index,
                kind=kind.name,
                server=base.name,
                rows=rows,
                requests=requests,
            )
        group.evaluate()
        if span is not None:
            span.close()
        self.stats.bump(
            coalesced_exchanges=1,
            coalesced_count_queries=rows if kind is COUNT else 0,
            standalone_exchanges=requests,
        )
        if self._m_exchanges is not None:
            self._m_exchanges.inc(server=base.name, kind=kind.name)
            self._m_round_windows.observe(rows)

    def _run_wave(self, wave: List[_Admitted]) -> None:
        wave_span = self._wave_span
        building: List[_Admitted] = []
        for entry in wave:
            if wave_span is not None:
                # Created in submission order; the ticket label keeps
                # sibling query spans id-distinct.
                entry.span = wave_span.child(
                    "query", ticket=entry.index, algorithm=entry.plan.algorithm
                )
                plan_span = entry.span.child(
                    "plan",
                    algorithm=entry.plan.algorithm,
                    overridden=entry.plan.overridden,
                )
                plan_span.close()
            try:
                self._check_breaker(entry)
                self._build_stack(entry)
            except ReproError as error:
                self._fail_entry(entry, error)
                continue
            building.append(entry)
        # Priming stops every query at the first step it offers, its root
        # COUNT round.
        self._advance_all(building, lambda entry: self._advance(entry, None))
        active = [entry for entry in building if entry.pending is not None]
        round_index = 0
        while active:
            # Gather: one group per (backing build, query kind) across the
            # steps of all active queries, in submission order -- the cached
            # builds, so the queries' statistics views share a descent.
            groups, gathered = gather(
                ((entry.base_r, entry.base_s), entry.pending) for entry in active
            )
            slots = {entry.index: mine for entry, mine in zip(active, gathered)}
            # Evaluate: one stat-free descent per group.
            for group in groups:
                self._evaluate(group, round_index)
            # Book and advance: each query books its own shares on its own
            # connections, in step order -- what its standalone run books.
            self._advance_all(
                active,
                lambda entry: self._advance(
                    entry, book_step(entry.device.servers, entry.pending, slots[entry.index])
                ),
            )
            active = [entry for entry in active if entry.pending is not None]
            round_index += 1
        for entry in wave:
            # Keep the ledgers for provenance, digested only when read
            # (also for failed queries whose stack got built: the primary
            # lane must hold no trace of the failure), then release the
            # per-query execution state (results are kept).
            faulted: set = set()
            if entry.device is not None:
                entry.ledger_readers = (
                    entry.device.servers.r.ledger_reader(),
                    entry.device.servers.s.ledger_reader(),
                )
                # Replica losses absorbed by failover still charge the
                # losing replicas' breakers (read off the connections
                # before the device is released).
                faulted = self._note_replica_faults(entry)
            if entry.failure is None:
                self._note_entry_success(entry, frozenset(faulted))
            if entry.span is not None:
                if entry.failure is None:
                    entry.span.annotate(status="ok")
                else:
                    entry.span.annotate(
                        status=_failure_status(entry.failure),
                        error=type(entry.failure).__name__,
                    )
                if entry.result is not None:
                    entry.span.annotate(
                        pairs=len(entry.result.pairs),
                        total_bytes=entry.result.total_bytes,
                    )
                entry.span.close()
            entry.gen = None
            entry.device = None


def resolve_broker(broker: Optional[QueryBroker], broker_kwargs: Dict) -> QueryBroker:
    """The pre-built ``broker``, or one built from ``broker_kwargs``.

    A passed broker carries its own configuration, so combining it with
    any constructor argument is an error rather than a silent override.
    """
    if broker is None:
        return QueryBroker(**broker_kwargs)
    if broker_kwargs:
        raise ValueError(
            f"pass either a pre-built broker or {sorted(broker_kwargs)}, not both"
        )
    return broker
