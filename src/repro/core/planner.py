"""The execution facade: build and run any of the join algorithms.

The experiments (and the public API in :mod:`repro.api`) construct a full
stack -- servers, metered channels, device -- from two datasets and a
handful of parameters, run one algorithm over it, and read the measured
bytes off the result.  :func:`run_join` is that one-call path;
:func:`build_algorithm` exposes the intermediate pieces for callers that
want to reuse servers across runs (the experiment harness does, to avoid
rebuilding R-trees for every algorithm).

An algorithm is a registry name plus the shared
:class:`~repro.core.base.AlgorithmParameters`: no algorithm takes options
of its own, so neither entry point forwards any.  :func:`_algorithm_key`
is the one check of the ``algorithm`` knob on every entry path (a
non-string or unknown name is :class:`~repro.errors.InvalidInput`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.base import AlgorithmParameters
from repro.core.costmodel import SELECTABLE_ALGORITHMS, predict_algorithm_costs
from repro.core.frontier import FrontierAlgorithm
from repro.core.join_types import JoinSpec
from repro.core.mobijoin import MobiJoin
from repro.core.naive import FixedGridJoin, NaiveDownloadJoin
from repro.core.result import JoinResult
from repro.core.semijoin import SEMIJOIN_NEEDS_ONE_INDEX, SemiJoin
from repro.core.srjoin import SrJoin
from repro.core.upjoin import UpJoin
from repro.datasets.dataset import SpatialDataset
from repro.datasets.partition import PARTITION_SCHEMES
from repro.device.pda import MobileDevice
from repro.errors import InvalidInput, require_count
from repro.geometry.rect import Rect
from repro.network.config import NetworkConfig
from repro.network.faults import FaultPlan, RetryPolicy
from repro.obs.metrics import ChannelMetricsObserver
from repro.server.remote import ResilienceController, ServerPair
from repro.server.server import SpatialServer
from repro.server.sharded import ShardedSpatialServer

__all__ = [
    "ALGORITHMS",
    "SELECTABLE_ALGORITHMS",
    "PlanDecision",
    "StackConfig",
    "build_algorithm",
    "build_session_stack",
    "default_window",
    "run_join",
    "select_algorithm",
    "validate_window",
]

#: Registry of algorithm names accepted by the public API.
ALGORITHMS: Dict[str, type] = {
    "mobijoin": MobiJoin,
    "upjoin": UpJoin,
    "srjoin": SrJoin,
    "semijoin": SemiJoin,
    "naive": NaiveDownloadJoin,
    "fixedgrid": FixedGridJoin,
}

def _algorithm_key(name: str) -> str:
    """The registry key of an algorithm name, or :class:`InvalidInput`: the
    one check of the ``algorithm`` knob on every entry path."""
    key = name.lower() if isinstance(name, str) else None
    if key not in ALGORITHMS:
        raise InvalidInput(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHMS)}"
        )
    return key


@dataclass(frozen=True)
class PlanDecision:
    """The outcome of algorithm selection for one query.

    ``predicted`` maps every selectable algorithm to its predicted
    transfer cost; ``algorithm`` is the one that will run.  When
    the query named an algorithm explicitly, ``overridden`` is True and
    ``predicted`` still reports what the model would have thought -- the
    broker's ``explain()`` surfaces both so predicted vs. chosen plans stay
    inspectable.
    """

    algorithm: str
    predicted: Dict[str, float]
    overridden: bool = False

    def cheapest(self) -> str:
        """The model's own choice (ties resolved alphabetically)."""
        return min(self.predicted, key=lambda k: (self.predicted[k], k))


def select_algorithm(
    spec: JoinSpec,
    window,
    n_r,
    n_s,
    config: NetworkConfig,
    buffer_size,
    params: AlgorithmParameters,
    algorithm=None,
):
    """Pick the algorithm for one query or ``N``, or honour explicit overrides.

    The pick is the cheapest of :data:`SELECTABLE_ALGORITHMS` under
    :func:`~repro.core.costmodel.predict_algorithm_costs` for the query's
    own configuration, buffer and parameters.  An explicit ``algorithm``
    (any registry name) short-circuits the choice but the prediction set is
    still computed and reported, so callers can compare the override
    against the model's preference.

    Rows follow the cost model's convention: a ``Rect`` with ``int`` counts
    and buffer (``algorithm`` one name or ``None``) returns one
    :class:`PlanDecision`; an ``(N, 4)`` window array with ``(N,)`` counts
    and buffer sizes (``algorithm`` ``N`` names or ``None`` s, or ``None``
    for no overrides) plans ``N`` queries sharing ``spec``'s probe radius,
    ``config``, ``params.bucket_queries`` and ``params.grid_k`` in one
    evaluation and returns their ``N`` decisions, each ``==`` its
    one-query call.
    """
    predicted = predict_algorithm_costs(
        spec, window, n_r, n_s, config, buffer_size, params.bucket_queries, params.grid_k
    )
    columns = np.array(list(predicted.values()), dtype=np.float64)
    one = columns.ndim == 1
    columns = columns.reshape(len(SELECTABLE_ALGORITHMS), -1)
    # Names are in name order: the first ``argmin`` is :meth:`PlanDecision.cheapest`.
    picks = np.argmin(columns, axis=0).tolist()
    if one or algorithm is None:
        algorithm = [algorithm] * len(picks)
    decisions = [
        PlanDecision(
            algorithm=SELECTABLE_ALGORITHMS[pick] if name is None else _algorithm_key(name),
            predicted=dict(zip(SELECTABLE_ALGORITHMS, row)),
            overridden=name is not None,
        )
        for pick, row, name in zip(picks, columns.T.tolist(), algorithm)
    ]
    return decisions[0] if one else decisions


@dataclass(frozen=True)
class StackConfig:
    """The one description of a session stack's topology and resilience.

    Every layer below :mod:`repro.api` receives these seven knobs as one
    frozen value -- validated here, once, at construction, whichever entry
    path set them and even where a knob would go unused (a scheme on an
    unsharded side).  It is hashable: the
    whole config is a member of the result-cache key, and :attr:`topology`
    is the member of the broker's server-build key.

    Parameters
    ----------
    shards_r, shards_s, shard_scheme:
        Shard counts per side (integers >= 1) and the partitioning scheme (a
        :data:`~repro.datasets.partition.PARTITION_SCHEMES` name).  A count
        > 1 publishes that side as a partitioned
        :class:`~repro.server.sharded.ShardedSpatialServer` fleet; requests
        are scattered to the shards they intersect and merged, with one
        metered channel, ledger, breaker and fault substream per shard.
        Join pairs are bit-identical to the unsharded run; byte totals
        reflect the scatter.
    replicas:
        Replication factor per shard (an integer >= 1).  A factor > 1
        publishes every shard (of both sides, even at one shard) on R
        replica servers sharing one index build, each with its own channel,
        breaker and fault substream; a lost exchange fails over to a
        sibling replica mid-query (in the one health order of the shard's
        :class:`~repro.server.remote.RemoteServer`, whose plain case is a
        set of one), and the primary metering lane stays bit-identical to
        the unreplicated fault-free run under any recoverable plan.
    faults, retry, deadline_s:
        The per-session :class:`~repro.server.remote.ResilienceController`:
        a seeded :class:`~repro.network.faults.FaultPlan` injected at the
        channel boundary, the :class:`~repro.network.faults.RetryPolicy`
        answering it (the standard policy whenever a controller is
        attached), and a per-query budget in simulated seconds whose
        crossing raises :class:`~repro.errors.QueryTimeout`.  Under any
        plan whose operations eventually succeed the result is
        bit-identical to the fault-free run on the primary metering lane.
    """

    shards_r: int = 1
    shards_s: int = 1
    shard_scheme: str = "grid"
    replicas: int = 1
    faults: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        for count in (self.shards_r, self.shards_s):
            require_count(count, "shard counts")
        require_count(self.replicas, "replicas")
        if self.shard_scheme not in PARTITION_SCHEMES:
            raise InvalidInput(
                f"unknown partition scheme {self.shard_scheme!r}; "
                f"available: {PARTITION_SCHEMES}"
            )
        # ``not >=`` also rejects NaN, a budget that could never fire; an
        # infinite budget is no deadline, so this is not ``require_finite``.
        if self.deadline_s is not None and not (
            isinstance(self.deadline_s, numbers.Real) and self.deadline_s >= 0
        ):
            raise InvalidInput(
                f"deadline_s must be a non-negative number of simulated seconds, "
                f"got {self.deadline_s!r}"
            )

    @property
    def fleet(self) -> bool:
        """True when any side is sharded or replicated."""
        return self.shards_r > 1 or self.shards_s > 1 or self.replicas > 1

    @property
    def topology(self) -> Tuple[int, int, str, int]:
        """What decides the server builds (and nothing that does not)."""
        return (self.shards_r, self.shards_s, self.shard_scheme, self.replicas)

    def check_algorithm(self, name: str) -> str:
        """The registry key of ``name``, if it can run on this stack.

        The one SemiJoin-on-a-fleet rule for stacks built from a config;
        :class:`~repro.core.semijoin.SemiJoin` holds its twin for injected
        servers.
        """
        key = _algorithm_key(name)
        if key == "semijoin" and self.fleet:
            raise InvalidInput(SEMIJOIN_NEEDS_ONE_INDEX)
        return key

    def servers(
        self, dataset_r: SpatialDataset, dataset_s: SpatialDataset
    ) -> Tuple[SpatialServer, SpatialServer]:
        """Build both sides: a single server each, or a (replicated) fleet.

        Replication rides on the fleet build even at one shard: a
        single-shard fleet with R replicas is still a fleet, with replica
        channels, breaker units and failover routing.
        """

        def side(dataset: SpatialDataset, name: str, shards: int):
            if shards == 1 and self.replicas == 1:
                return SpatialServer(dataset, name=name)
            return ShardedSpatialServer(
                dataset,
                name=name,
                shards=shards,
                scheme=self.shard_scheme,
                replicas=self.replicas,
            )

        return side(dataset_r, "R", self.shards_r), side(dataset_s, "S", self.shards_s)

    def resilience(self, metrics=None) -> Optional[ResilienceController]:
        """A fresh per-session controller, or None when no knob asks for one."""
        if self.faults is None and self.retry is None and self.deadline_s is None:
            return None
        return ResilienceController(self.faults, self.retry, self.deadline_s, metrics)

    def connect(
        self,
        server_r: SpatialServer,
        server_s: SpatialServer,
        config: NetworkConfig,
        buffer_size: int = 800,
        tracer=None,
        metrics=None,
        replica_health: Optional[Dict[str, str]] = None,
    ) -> MobileDevice:
        """Fresh metered connections to two servers, and the device on them.

        The one connect path of sessions and the broker.  ``tracer`` /
        ``metrics`` are the strictly read-only observability hooks, which
        travel beside the config (a tracer keys nothing): a
        :class:`repro.obs.Tracer` on the device, a
        :class:`repro.obs.MetricsRegistry` behind a per-channel traffic
        observer and the controller's fault/retry counters.
        ``replica_health`` maps replica names to the broker's breaker verdicts.
        """
        pair = ServerPair.connect(
            server_r,
            server_s,
            config=config,
            resilience=self.resilience(metrics),
            replica_health=replica_health,
            observer=ChannelMetricsObserver(metrics) if metrics is not None else None,
        )
        return MobileDevice(pair, buffer_size=buffer_size, tracer=tracer)


def validate_window(window: Optional[Rect]) -> None:
    """Reject a join window no algorithm can subdivide to an answer.

    An infinite extent never shrinks below the buffer and NaN fails every
    comparison (so :class:`Rect` lets it through and the algorithms then
    disagree); ``None`` is the default window, finite because datasets are.
    """
    if window is not None and not all(map(math.isfinite, window)):
        raise InvalidInput(f"join window must have finite coordinates, got {window!r}")


def default_window(dataset_r: SpatialDataset, dataset_s: SpatialDataset) -> Rect:
    """The region a join covers when none is given: the union MBR of both datasets.

    An empty side has no bounds and adds none, so the other side's MBR is
    the window (and the join finds 0 pairs in it); with both sides empty
    there is no region to join at all, which is the caller's mistake.
    """
    sides = [d.bounds() for d in (dataset_r, dataset_s) if len(d)]
    if not sides:
        raise InvalidInput(
            "both datasets are empty: there is no default join window, pass window="
        )
    return sides[0].union(sides[-1])


def build_session_stack(
    dataset_r: SpatialDataset,
    dataset_s: SpatialDataset,
    buffer_size: int = 800,
    config: Optional[NetworkConfig] = None,
    servers: Optional[Tuple[SpatialServer, SpatialServer]] = None,
    stack: StackConfig = StackConfig(),
    tracer=None,
    metrics=None,
) -> Tuple[SpatialServer, SpatialServer, MobileDevice]:
    """Build the two servers, the metered connections and the device.

    ``servers`` injects pre-built ``(server_r, server_s)`` instances --
    server-side state (dataset, aggregate R-tree, flattened snapshots) is
    immutable during a join, so the experiment harness builds each server
    once per workload and shares it across algorithm runs (the topology
    members of ``stack`` then go unused).  The metered channels and the
    device are always fresh, so byte accounting starts from zero either way.

    ``stack`` is the :class:`StackConfig` describing fleet topology and
    resilience; ``tracer`` / ``metrics`` are the read-only observability
    hooks (:meth:`StackConfig.connect`).
    """
    if servers is None:
        servers = stack.servers(dataset_r, dataset_s)
    server_r, server_s = servers
    device = stack.connect(
        server_r,
        server_s,
        config=config or NetworkConfig(),
        buffer_size=buffer_size,
        tracer=tracer,
        metrics=metrics,
    )
    return server_r, server_s, device


def build_algorithm(
    name: str,
    device: MobileDevice,
    spec: JoinSpec,
    params: Optional[AlgorithmParameters] = None,
) -> FrontierAlgorithm:
    """Instantiate an algorithm by registry name.

    An algorithm has no options of its own: its tunables are ``params``,
    shared by all of them.
    """
    return ALGORITHMS[_algorithm_key(name)](device, spec, params)


def run_join(
    dataset_r: SpatialDataset,
    dataset_s: SpatialDataset,
    spec: JoinSpec,
    algorithm: str = "srjoin",
    buffer_size: int = 800,
    config: Optional[NetworkConfig] = None,
    params: Optional[AlgorithmParameters] = None,
    window: Optional[Rect] = None,
    stack: StackConfig = StackConfig(),
    tracer=None,
    metrics=None,
) -> JoinResult:
    """Build the full stack, run one algorithm, return the measured result.

    Parameters
    ----------
    dataset_r, dataset_s:
        The two spatial relations (hosted by independent servers).
    spec:
        The join query.
    algorithm:
        One of :data:`ALGORITHMS`.
    buffer_size:
        Device buffer capacity in objects.
    config:
        Wire constants and tariffs (defaults to the paper's WiFi setting).
    params:
        Algorithm tunables (alpha, rho, bucket queries, ...).
    window:
        The joined region; defaults to the union MBR of both datasets.
    stack:
        Fleet topology and resilience (:class:`StackConfig`).
    tracer, metrics:
        Optional observability hooks (see :mod:`repro.obs`); strictly
        read-only, the result is bit-identical with or without them.
    """
    validate_window(window)
    key = stack.check_algorithm(algorithm)
    _, _, device = build_session_stack(
        dataset_r,
        dataset_s,
        buffer_size=buffer_size,
        config=config,
        stack=stack,
        tracer=tracer,
        metrics=metrics,
    )
    algo = build_algorithm(key, device, spec, params)
    if window is None:
        window = default_window(dataset_r, dataset_s)
    return algo.run(window)
