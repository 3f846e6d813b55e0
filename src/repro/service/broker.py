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
   :meth:`QueryBroker.explain` reports predicted vs. chosen either way.
   Queries that share a cost model (configuration, probe radius,
   ``bucket_queries``, ``grid_k``) are planned as stacked rows of one
   call, each row's decision ``==`` the query's own (``explain()`` is the
   batch of one);

2. **admits** the planned queries in deterministic waves of at most
   :data:`MAX_WAVE`, deduplicating identical queries through the result cache
   (keyed on datasets, spec, algorithm and configuration): a warm cache
   serves a query without executing anything, and identical queries inside
   one batch share a single execution;

3. **executes** each wave cooperatively.  Every query runs on its own
   session stack -- own metered connections (which keep its statistics),
   own device -- to the cached server builds, which are immutable and
   shared as they are.  Like queries -- queries sharing backing builds,
   algorithm, spec, resolved parameters, configuration and buffer size --
   form one *group* and run as one step generator, their algorithm's
   ``run_group``: one :class:`~repro.core.frontier.Crew`, with one level
   table per depth and one leaf batch per level for all their windows.  A
   generator *offers* every server evaluation its queries need -- COUNT
   rounds, the operators' WINDOW downloads and RANGE probes, an index
   relay's requests -- as one step over all its queries' rows (a
   :class:`~repro.device.steps.Shared` step) and receives its answers.
   The wave is one :func:`~repro.device.steps.drive` over the groups: per
   round it evaluates all rows of one query kind that target the same
   backing build in **one** descent (:meth:`_evaluate`, which counts it),
   and every query books its own shares on its own connections, in its
   own order; a query whose booking raised a typed error leaves its group,
   which goes on without it.  A standalone run is the same loop over a
   group of one (:func:`~repro.device.steps.run_steps`), so pairs, bytes,
   server statistics, fault streams, decision traces and spans are
   bit-identical to running the query alone by construction -- under any
   submission order, with the cache cold or warm (pinned by
   ``tests/test_service_equivalence.py`` and ``tests/test_wave_fusion.py``).

   The per-query advances between the coalesced evaluations run inline on
   the executing thread, one query after the other: they are GIL-bound
   Python, and a thread pool over them measured 0.6-0.7x of this loop.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.planner import PlanDecision, build_algorithm, select_algorithm
from repro.core.result import JoinResult
from repro.device.pda import MobileDevice
from repro.device.steps import COUNT, Group, Unit, drive
from repro.errors import QueryTimeout, ReproError, ServerUnavailable
from repro.network.config import NetworkConfig
from repro.obs.trace import NULL_TRACER
from repro.server.server import SpatialServer
from repro.service.cache import ResultCache, dataset_token, query_key
from repro.service.query import JoinQuery, QueryOutcome

__all__ = ["BrokerStats", "DEFAULT_CACHE_MAX_BYTES", "QueryBroker"]

#: Byte budget of the result cache: enough for tens of thousands of typical
#: cached results, small enough that a long-lived broker cannot grow without
#: bound on result payloads alone.
DEFAULT_CACHE_MAX_BYTES = 64 * 1024 * 1024
#: LRU entry cap of the result cache.
CACHE_MAX_ENTRIES = 4096
#: Admission width: at most this many distinct queries execute per wave.
#: Waves are formed in submission order, so scheduling is deterministic.
MAX_WAVE = 16
#: Consecutive :class:`ServerUnavailable` failures against one breaker unit
#: before its circuit breaker opens and the broker sheds queries to it.
BREAKER_THRESHOLD = 3
#: Waves an open breaker stays open before going half-open (one probing
#: query decides between closing and re-opening).
BREAKER_COOLDOWN_WAVES = 2
#: LRU entry cap on the cached server builds (index builds per distinct
#: dataset pair and topology); evicting a build drops its breaker entries.
MAX_SERVER_BUILDS = 32


@dataclass
class BrokerStats:
    """Service-level accounting (metering of the joins themselves stays on
    each query's own channels).

    Counter updates go through :meth:`bump`, which holds the stats lock:
    the thread running :meth:`QueryBroker.run_batch` bumps them, and a
    caller reading :meth:`as_dict` from another thread while a batch runs
    gets a consistent snapshot.
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


class _PlanRow(NamedTuple):
    """What planning reads of one query: its group key and its row."""

    #: ``(config, probe radius, bucket_queries, grid_k)``: queries with one
    #: key share a cost model, hence one planning call.
    group: Tuple
    query: JoinQuery
    window: Tuple[float, float, float, float]
    n_r: int
    n_s: int


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
    #: The query's algorithm, built with its stack (:meth:`_build_stack`).
    algo: Any = None
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
    unit object itself: the key is a strong reference, so a dead server's
    ``id()`` cannot be recycled while its entry lives, and a rebuilt server
    of the same name is a new key that starts with a closed breaker.
    Evicting a build (or :meth:`QueryBroker.clear_caches`) drops its units'
    entries.

    States: *closed* while ``open_until_wave`` is ``None``; *open* (routed
    around, or shedding the query when no unit of its group is left; see
    :meth:`QueryBroker._check_breaker`) until the broker's wave counter
    reaches ``open_until_wave``; then *half-open* -- the next query probes
    the server, with ``failures`` primed one short of the threshold so a
    single failed probe re-opens the breaker while a success closes it.
    """

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
    cache:
        Result-cache toggle.  The cache is bounded on both axes (LRU,
        :data:`CACHE_MAX_ENTRIES` entries, :data:`DEFAULT_CACHE_MAX_BYTES`
        of payload); :meth:`clear_caches` releases both the result cache and
        the server builds of a long-lived broker.
    tracer:
        Optional :class:`repro.obs.Tracer`; threads span instrumentation
        through every wave, query and coalesced exchange.  Defaults to
        the no-op tracer (observability off, zero overhead).
    metrics:
        Optional :class:`repro.obs.MetricsRegistry`; wires counters and
        histograms through the cache, channels, resilience controllers
        and wave loop.  Strictly read-only either way: results are
        bit-identical with hooks on or off.

    Admission, the circuit breakers and the server-build cache run at the
    module constants :data:`MAX_WAVE`, :data:`BREAKER_THRESHOLD`,
    :data:`BREAKER_COOLDOWN_WAVES` and :data:`MAX_SERVER_BUILDS`, read
    when they are used.
    """

    def __init__(
        self,
        config: Optional[NetworkConfig] = None,
        cache: bool = True,
        tracer=None,
        metrics=None,
    ) -> None:
        self.config = config or NetworkConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.cache = ResultCache(
            enabled=bool(cache),
            max_entries=CACHE_MAX_ENTRIES,
            max_bytes=DEFAULT_CACHE_MAX_BYTES,
            metrics=metrics,
        )
        self.stats = BrokerStats()
        # Guards the server-build cache and the breakers: a caller may call
        # clear_caches() from another thread while a batch executes.
        self._lock = threading.RLock()
        self._servers: "OrderedDict[Tuple, Tuple[SpatialServer, SpatialServer]]" = (
            OrderedDict()
        )
        #: Circuit breakers keyed by the unit itself -- see :class:`_Breaker`.
        self._breakers: Dict[SpatialServer, _Breaker] = {}
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
        compared against the model's own preference.  A query is planned
        as the batch of one :meth:`run_batch` would make of it.
        """
        (plan,) = self._plan_group([self._plan_row(query)])
        return plan

    def _plan_row(self, query: JoinQuery) -> _PlanRow:
        """What planning reads of one query (a typed error is the query's)."""
        params = query.resolved_params()
        group = (
            query.config or self.config,
            query.spec.predicate().probe_radius(),
            params.bucket_queries,
            params.grid_k,
        )
        return _PlanRow(
            group,
            query,
            query.resolved_window().as_tuple(),
            len(query.dataset_r),
            len(query.dataset_s),
        )

    @staticmethod
    def _plan_group(rows: List[_PlanRow]) -> List[PlanDecision]:
        """One cost-model evaluation for queries sharing a planning group.

        The group's first query lends its spec and parameters: the
        prediction reads only the members of the group key of either.
        """
        lead = rows[0].query
        return select_algorithm(
            lead.spec,
            np.array([row.window for row in rows], dtype=np.float64),
            np.array([row.n_r for row in rows], dtype=np.int64),
            np.array([row.n_s for row in rows], dtype=np.int64),
            config=rows[0].group[0],
            buffer_size=np.array([row.query.buffer_size for row in rows], dtype=np.int64),
            params=lead.resolved_params(),
            algorithm=[row.query.algorithm for row in rows],
        )

    # ------------------------------------------------------------------ #
    # admission and execution
    # ------------------------------------------------------------------ #

    def run_batch(self, queries: Sequence[JoinQuery]) -> List[QueryOutcome]:
        """Plan and execute a batch; outcomes in submission order.

        Every query is planned and keyed before any executes, so a raise
        while planning leaves nothing behind (not even a
        ``queries_submitted`` count).  Queries sharing a cost model --
        configuration, probe radius, ``bucket_queries`` and ``grid_k`` --
        are planned in one :func:`~repro.core.planner.select_algorithm`
        call on the rows they contribute (window, sizes, buffer, override:
        all validated when the query was built).  The planning-time twin of
        :meth:`_fail_entry`: each query's row is read inside its own error
        boundary, so a typed
        :class:`~repro.errors.ReproError` there (no default window over two
        empty datasets) becomes that query's ``"failed"`` outcome and its
        neighbours run untouched; anything else is a bug and propagates.

        Warm cache hits never execute; identical queries within the batch
        share one execution (the first occurrence leads) when the result
        cache is enabled.  The remaining distinct queries run in waves of
        at most :data:`MAX_WAVE`, all queries of a wave advancing in lock-step
        rounds with the steps they offer evaluated together per backing
        server.
        """
        batch = [_Admitted(query, None, None, index) for index, query in enumerate(queries)]
        groups: Dict[Tuple, List[Tuple[_Admitted, _PlanRow]]] = {}
        for entry in batch:
            try:
                row = self._plan_row(entry.query)
            except ReproError as error:
                entry.failure = error
            else:
                groups.setdefault(row.group, []).append((entry, row))
        for members in groups.values():
            plans = self._plan_group([row for _, row in members])
            for (entry, _), plan in zip(members, plans):
                entry.plan = plan
                entry.key = query_key(entry.query, plan.algorithm, self.config)
        self.stats.bump(queries_submitted=len(batch))
        if self.tracer.enabled:
            self._batch_counter += 1
            self._batch_span = self.tracer.span(
                "execute", batch=self._batch_counter, queries=len(batch)
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
            pending[i : i + MAX_WAVE]
            for i in range(0, len(pending), MAX_WAVE)
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
                while len(self._servers) > MAX_SERVER_BUILDS:
                    _, evicted = self._servers.popitem(last=False)
                    for base in evicted:
                        for unit in base.breaker_units():
                            self._breakers.pop(unit, None)
        return pair

    def _build_stack(self, entry: _Admitted) -> None:
        """One isolated session stack per query: fresh metered connections
        to the cached servers (looked up once, by :meth:`_check_breaker`)
        and a fresh device."""
        query = entry.query
        entry.device = query.stack.connect(
            entry.base_r,
            entry.base_s,
            config=query.config or self.config,
            buffer_size=query.buffer_size,
            tracer=self.tracer,
            metrics=self.metrics,
            replica_health=entry.replica_health,
        )
        # The query's own "join" span (opened by the algorithm at run
        # start) parents under its wave-level query span.
        entry.device.trace_root = entry.span
        entry.algo = build_algorithm(
            entry.plan.algorithm, entry.device, query.spec, query.resolved_params()
        )

    def _units(self, entries: List[_Admitted]) -> Dict[Unit, List[_Admitted]]:
        """The wave's step generators, in order of their first query, and
        the queries each runs.

        Queries that share backing builds, algorithm, spec, resolved
        parameters, configuration and buffer size form one group, run as
        one generator by their algorithm's ``run_group``.
        """
        groups: Dict[object, List[_Admitted]] = {}
        for entry in entries:
            query = entry.query
            key = (
                id(entry.base_r),
                id(entry.base_s),
                entry.plan.algorithm,
                query.spec,
                entry.algo.params,
                query.config or self.config,
                query.buffer_size,
            )
            groups.setdefault(key, []).append(entry)
        units: Dict[Unit, List[_Admitted]] = {}
        for members in groups.values():
            runs = [(entry.algo, entry.query.resolved_window()) for entry in members]
            units[runs[0][0].run_group(runs)] = members
        return units

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
                    breaker = self._breakers.get(unit)
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
                    breaker.failures = BREAKER_THRESHOLD - 1
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
        breaker = self._breakers.setdefault(unit, _Breaker())
        breaker.failures += 1
        if breaker.failures >= BREAKER_THRESHOLD:
            breaker.open_until_wave = (
                self._wave_counter + 1 + BREAKER_COOLDOWN_WAVES
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
                breaker = self._breakers.get(unit)
                if breaker is not None and breaker.open_until_wave is None:
                    if breaker.failures:
                        self._note_breaker_transition("close", unit.name)
                    breaker.failures = 0

    def _fail_entry(self, entry: _Admitted, error: BaseException) -> None:
        """Isolate one failed query from its wave."""
        entry.failure = error
        self._note_entry_failure(entry, error)

    # ------------------------------------------------------------------ #

    def _execute_wave(self, wave: List[_Admitted], wave_index: int) -> None:
        """Drive all queries of one wave in lock-step coalesced rounds.

        Between rounds every group advances in turn -- priming, decisions,
        in-memory joins, booking; the step each group offers is gathered as
        it is and evaluated, in submission order.

        A query that raises a typed :class:`~repro.errors.ReproError` --
        an unrecoverable channel fault, retry exhaustion, a deadline
        timeout, an open breaker -- leaves its group and is isolated via
        :meth:`_fail_entry` once its round is over, and the rest of
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
        rows, requests = group.rows, group.requests
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
        # Like queries run as one generator, all of them driven in
        # lock-step rounds: one evaluation per (backing build, kind) and
        # round, each query booking its own shares on its own connections
        # -- what its standalone run books.
        units = self._units(building)

        def settle(failures: list) -> None:
            # Applied once every group advanced, in submission order: one
            # query's fault must not abort its neighbours.  A typed fault
            # isolates its query; anything else is a bug and ends the batch.
            failed = [(units[unit][q], error) for unit, q, error in failures]
            for entry, error in sorted(failed, key=lambda failure: failure[0].index):
                if not isinstance(error, ReproError):
                    raise error
                self._fail_entry(entry, error)

        drive(list(units), self._evaluate, settle)
        for unit, entries in units.items():
            for entry, result in zip(entries, unit.result or ()):
                entry.result = result
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
            entry.algo = None
            entry.device = None
