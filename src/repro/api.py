"""The top-level public API.

Three entry points:

* :func:`quick_join` -- one call from two datasets to a measured
  :class:`~repro.core.result.JoinResult`.
* :class:`AdHocJoinSession` -- a reusable session that keeps the servers
  (and their R-trees) alive across several runs, so different algorithms or
  parameters can be compared on identical data without rebuilding indexes.
* :func:`batch_join` -- many queries at once through the multi-tenant
  :class:`~repro.service.broker.QueryBroker`: per-query plan selection,
  result-cache deduplication, and cross-query COUNT coalescing on the
  shared frontier engine, with every result bit-identical to a standalone
  run.

All wrap :mod:`repro.core.planner` (and, for batches,
:mod:`repro.service`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.base import AlgorithmParameters
from repro.core.join_types import JoinSpec
from repro.core.planner import (
    ALGORITHMS,
    StackConfig,
    build_algorithm,
    build_session_stack,
    default_window,
    validate_window,
)
from repro.core.result import JoinResult
from repro.datasets.dataset import SpatialDataset
from repro.device.buffer import DeviceBuffer
from repro.errors import (
    ChannelFault,
    InvalidInput,
    QueryTimeout,
    ReproError,
    RetryExhausted,
    ServerUnavailable,
    ServiceClosed,
)
from repro.geometry.rect import Rect
from repro.network.config import NetworkConfig
from repro.network.faults import FaultPlan, RetryPolicy
from repro.datasets.partition import PARTITION_SCHEMES, partition_dataset
from repro.obs import MetricsRegistry, Tracer
from repro.server.server import SpatialServer
from repro.server.sharded import ShardedSpatialServer
from repro.service.broker import DEFAULT_CACHE_MAX_BYTES, QueryBroker, resolve_broker
from repro.service.executor import QueryService
from repro.service.query import JoinQuery, QueryOutcome

__all__ = [
    "AdHocJoinSession",
    "ChannelFault",
    "DEFAULT_CACHE_MAX_BYTES",
    "FaultPlan",
    "HISTORY_LIMIT",
    "JoinOutcome",
    "JoinQuery",
    "MetricsRegistry",
    "PARTITION_SCHEMES",
    "QueryBroker",
    "QueryOutcome",
    "QueryService",
    "QueryTimeout",
    "ReproError",
    "RetryExhausted",
    "RetryPolicy",
    "ServerUnavailable",
    "ServiceClosed",
    "ShardedSpatialServer",
    "StackConfig",
    "Tracer",
    "available_algorithms",
    "batch_join",
    "partition_dataset",
    "quick_join",
]

#: Public alias: the outcome type returned by every join execution.
JoinOutcome = JoinResult

#: How many of its most recent results an :class:`AdHocJoinSession` keeps.
HISTORY_LIMIT = 32


def available_algorithms() -> List[str]:
    """Names accepted by the ``algorithm`` argument of the API."""
    return sorted(ALGORITHMS)


def quick_join(
    dataset_r: SpatialDataset,
    dataset_s: SpatialDataset,
    algorithm: str = "srjoin",
    epsilon: float = 0.0,
    kind: str = "distance",
    min_matches: int = 1,
    buffer_size: int = 800,
    bucket_queries: bool = False,
    alpha: float = 0.25,
    rho: float = 0.30,
    config: Optional[NetworkConfig] = None,
    window: Optional[Rect] = None,
    seed: int = 0,
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    deadline_s: Optional[float] = None,
    shards_r: int = 1,
    shards_s: int = 1,
    shard_scheme: str = "grid",
    replicas: int = 1,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> JoinResult:
    """Run one ad-hoc distributed spatial join end to end.

    Parameters
    ----------
    dataset_r, dataset_s:
        The two relations, hosted on independent (simulated) servers.
    algorithm:
        ``"mobijoin"``, ``"upjoin"``, ``"srjoin"``, ``"semijoin"``,
        ``"naive"`` or ``"fixedgrid"``.
    epsilon:
        Distance threshold for ``kind="distance"`` / ``"iceberg"``.
    kind:
        ``"intersection"``, ``"distance"`` or ``"iceberg"``.
    min_matches:
        Iceberg threshold ``m`` (only for ``kind="iceberg"``).
    buffer_size:
        Device buffer capacity in objects.
    bucket_queries:
        Allow bucket epsilon-RANGE queries (the bucket NLSJ variants).
    alpha, rho:
        UpJoin's uniformity tolerance and SrJoin's density threshold.
    config:
        Wire constants / tariffs; defaults to the paper's WiFi setting.
    window:
        Joined region; defaults to the union of the dataset bounds.
    seed:
        Seed for algorithm-internal randomness.
    shards_r, shards_s, shard_scheme, replicas, faults, retry, deadline_s:
        Fleet topology and resilience of the stack -- keyword sugar for the
        fields of one :class:`~repro.core.planner.StackConfig`, documented
        (and validated) there.
    tracer, metrics:
        Optional observability hooks (see :mod:`repro.obs`): a
        :class:`Tracer` records a deterministic span tree of the run, a
        :class:`MetricsRegistry` collects channel-traffic and resilience
        counters.  Strictly read-only -- the result is bit-identical with
        or without them.

    Returns
    -------
    JoinResult
        Pairs / objects, measured bytes per server, operator counts,
        estimated response time and the execution trace.
    """
    session = AdHocJoinSession(
        dataset_r,
        dataset_s,
        buffer_size=buffer_size,
        config=config,
        indexed=algorithm.lower() == "semijoin",
        faults=faults,
        retry=retry,
        deadline_s=deadline_s,
        shards_r=shards_r,
        shards_s=shards_s,
        shard_scheme=shard_scheme,
        replicas=replicas,
        tracer=tracer,
        metrics=metrics,
    )
    return session.run(
        algorithm=algorithm,
        epsilon=epsilon,
        kind=kind,
        min_matches=min_matches,
        bucket_queries=bucket_queries,
        alpha=alpha,
        rho=rho,
        window=window,
        seed=seed,
    )


def batch_join(
    queries: Sequence[JoinQuery],
    *,
    broker: Optional[QueryBroker] = None,
    **broker_kwargs: object,
) -> List[QueryOutcome]:
    """Serve a batch of join queries through one query broker.

    Each query is planned (cheapest predicted algorithm unless the query
    names one), deduplicated against identical queries, and executed in
    deterministic waves with the COUNT exchanges of co-scheduled queries
    coalesced per server.  Outcomes arrive in submission order; each
    result is bit-identical to running the same query standalone through
    :func:`quick_join` / :func:`~repro.core.planner.run_join`.

    ``broker_kwargs`` are :class:`QueryBroker` constructor arguments:
    ``config`` and ``max_wave``; ``cache_max_bytes``, which bounds the
    result cache (default :data:`DEFAULT_CACHE_MAX_BYTES`; ``None`` means
    unbounded); ``tracer``/``metrics``, which attach the read-only
    observability hooks (see :mod:`repro.obs`) -- outcomes stay
    bit-identical with or without them.

    Pass a ``broker`` to reuse its server builds, result cache and
    circuit breakers across several batches.  A passed broker carries its
    own configuration, so combining it with any ``broker_kwargs`` is an
    error rather than a silent override.  For continuous (non-batch)
    admission use :class:`repro.api.QueryService`.
    """
    return resolve_broker(broker, broker_kwargs).run_batch(queries)


class AdHocJoinSession:
    """A reusable two-server join session.

    The servers (and their R-tree indexes) are built once; every
    :meth:`run` call resets the metered channels and the device buffer, so
    byte totals of consecutive runs are independent and comparable.
    """

    def __init__(
        self,
        dataset_r: SpatialDataset,
        dataset_s: SpatialDataset,
        buffer_size: int = 800,
        config: Optional[NetworkConfig] = None,
        indexed: bool = True,
        servers: Optional[Tuple[SpatialServer, SpatialServer]] = None,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        deadline_s: Optional[float] = None,
        shards_r: int = 1,
        shards_s: int = 1,
        shard_scheme: str = "grid",
        replicas: int = 1,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """``servers`` accepts a pre-built ``(server_r, server_s)`` pair.

        Servers are read-only during a join (their query-statistics counters
        are reset by every :meth:`run`), so a pair built once -- e.g. by the
        experiment harness's workload cache -- can back many sessions and
        algorithms without rebuilding the R-trees.  Channels and the device
        are created fresh for this session regardless.

        The fleet-topology and resilience keywords (``shards_r`` ...
        ``deadline_s``) are sugar for the fields of the session's
        :class:`~repro.core.planner.StackConfig` (kept as :attr:`stack`),
        documented and validated there; its topology members go unused
        when ``servers`` injects pre-built instances.

        ``tracer``/``metrics`` attach the read-only observability hooks
        (see :mod:`repro.obs`) for every run on this session.
        """
        self.dataset_r = dataset_r
        self.dataset_s = dataset_s
        self.config = config or NetworkConfig()
        self.buffer_size = buffer_size
        self.stack = StackConfig(
            shards_r=shards_r,
            shards_s=shards_s,
            shard_scheme=shard_scheme,
            replicas=replicas,
            faults=faults,
            retry=retry,
            deadline_s=deadline_s,
        )
        self.server_r, self.server_s, self.device = build_session_stack(
            dataset_r,
            dataset_s,
            buffer_size=buffer_size,
            config=self.config,
            indexed=indexed,
            servers=servers,
            stack=self.stack,
            tracer=tracer,
            metrics=metrics,
        )
        self._history: Deque[JoinResult] = deque(maxlen=HISTORY_LIMIT)

    # ------------------------------------------------------------------ #

    @property
    def history(self) -> List[JoinResult]:
        """The most recent results of this session, oldest first.

        At most :data:`HISTORY_LIMIT` are kept: a result holds its full pair
        set, so a long-lived session that kept them all would grow (and
        slow) without bound.
        """
        return list(self._history)

    def default_window(self) -> Rect:
        """The union MBR of both datasets (the default joined region)."""
        return default_window(self.dataset_r, self.dataset_s)

    def run(
        self,
        algorithm: str = "srjoin",
        epsilon: float = 0.0,
        kind: str = "distance",
        min_matches: int = 1,
        bucket_queries: bool = False,
        alpha: float = 0.25,
        rho: float = 0.30,
        grid_k: int = 2,
        trace: bool = True,
        window: Optional[Rect] = None,
        seed: int = 0,
        buffer_size: Optional[int] = None,
        **algorithm_kwargs: object,
    ) -> JoinResult:
        """Run one algorithm on this session's servers and record the result.

        ``buffer_size`` overrides the session's device buffer for this run;
        ``algorithm_kwargs`` are the algorithm's own options (see
        :func:`~repro.core.planner.build_algorithm`).
        """
        validate_window(window)
        algorithm = self.stack.check_algorithm(algorithm)
        # A fresh buffer per run, so a per-run size meets the constructor's
        # capacity check before anything is exchanged.
        buffer = DeviceBuffer(self.buffer_size if buffer_size is None else buffer_size)
        spec = self._spec_for(kind, epsilon, min_matches)
        params = AlgorithmParameters(
            alpha=alpha,
            rho=rho,
            grid_k=grid_k,
            bucket_queries=bucket_queries,
            trace=trace,
            seed=seed,
        )
        self.device.reset()
        self.server_r.stats.reset()
        self.server_s.stats.reset()
        if self.device.resilience is not None:
            self.device.resilience.reset()
        self.device.buffer = buffer
        algo = build_algorithm(algorithm, self.device, spec, params, **algorithm_kwargs)
        result = algo.run(window or self.default_window())
        self._history.append(result)
        return result

    def compare(
        self,
        algorithms: List[str],
        **run_kwargs: object,
    ) -> Dict[str, JoinResult]:
        """Run several algorithms on identical data; returns name -> result."""
        return {name: self.run(algorithm=name, **run_kwargs) for name in algorithms}

    # ------------------------------------------------------------------ #

    @staticmethod
    def _spec_for(kind: str, epsilon: float, min_matches: int) -> JoinSpec:
        k = kind.lower()
        if k in ("intersection", "intersect"):
            return JoinSpec.intersection()
        if k in ("distance", "within"):
            return JoinSpec.distance(epsilon)
        if k in ("iceberg", "iceberg_semi", "semi"):
            return JoinSpec.iceberg(epsilon, min_matches)
        raise InvalidInput(f"unknown join kind {kind!r}")
