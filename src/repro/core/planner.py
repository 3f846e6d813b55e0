"""The execution facade: build and run any of the join algorithms.

The experiments (and the public API in :mod:`repro.api`) construct a full
stack -- servers, metered channels, device -- from two datasets and a
handful of parameters, run one algorithm over it, and read the measured
bytes off the result.  :func:`run_join` is that one-call path;
:func:`build_algorithm` exposes the intermediate pieces for callers that
want to reuse servers across runs (the experiment harness does, to avoid
rebuilding R-trees for every algorithm).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.base import AlgorithmParameters, MobileJoinAlgorithm
from repro.core.costmodel import CalibratedCostModel
from repro.core.join_types import JoinSpec
from repro.core.mobijoin import MobiJoin
from repro.core.naive import FixedGridJoin, NaiveDownloadJoin
from repro.core.result import JoinResult
from repro.core.semijoin import SemiJoin
from repro.core.srjoin import SrJoin
from repro.core.upjoin import UpJoin
from repro.datasets.dataset import SpatialDataset
from repro.datasets.partition import PARTITION_SCHEMES
from repro.device.pda import MobileDevice
from repro.errors import InvalidInput
from repro.geometry.rect import Rect
from repro.network.config import NetworkConfig
from repro.server.remote import ROUTER_POLICIES, ResilienceController, ServerPair
from repro.server.server import SpatialServer
from repro.server.sharded import ShardedSpatialServer

__all__ = [
    "ALGORITHMS",
    "SELECTABLE_ALGORITHMS",
    "PlanDecision",
    "build_algorithm",
    "build_resilience",
    "build_server",
    "build_session_stack",
    "default_window",
    "run_join",
    "select_algorithm",
    "validate_stack_knobs",
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

#: Algorithms eligible for *automatic* selection.  SemiJoin assumes
#: cooperating, index-publishing servers (the paper notes it "cannot be
#: applied in our problem"); it runs only when a query names it explicitly.
SELECTABLE_ALGORITHMS: Tuple[str, ...] = (
    "mobijoin",
    "upjoin",
    "srjoin",
    "naive",
    "fixedgrid",
)


@dataclass(frozen=True)
class PlanDecision:
    """The outcome of algorithm selection for one query.

    ``predicted`` maps every candidate algorithm to its calibrated
    transfer-cost estimate; ``algorithm`` is the one that will run.  When
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
    model: CalibratedCostModel,
    spec: JoinSpec,
    window: Rect,
    n_r: int,
    n_s: int,
    algorithm: Optional[str] = None,
    candidates: Optional[Sequence[str]] = None,
) -> PlanDecision:
    """Pick the algorithm for one query, or honour an explicit override.

    ``candidates`` defaults to :data:`SELECTABLE_ALGORITHMS`; an explicit
    ``algorithm`` (any registry name) short-circuits the choice but the
    prediction set is still computed and reported, so callers can compare
    the override against the model's preference.
    """
    pool = tuple(candidates) if candidates is not None else SELECTABLE_ALGORITHMS
    for name in pool:
        if name.lower() not in ALGORITHMS:
            raise ValueError(f"unknown candidate algorithm {name!r}")
    predicted = model.predict(spec, window, n_r, n_s)
    predicted = {name: predicted[name.lower()] for name in pool}
    if algorithm is not None:
        key = algorithm.lower()
        if key not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; available: {sorted(ALGORITHMS)}"
            )
        return PlanDecision(algorithm=key, predicted=predicted, overridden=True)
    chosen = min(predicted, key=lambda k: (predicted[k], k))
    return PlanDecision(algorithm=chosen.lower(), predicted=predicted, overridden=False)


def validate_stack_knobs(
    shards_r: int,
    shards_s: int,
    shard_scheme: str,
    replicas: int,
    router: Optional[str],
    deadline_s: Optional[float],
) -> None:
    """Reject unusable fleet / deadline knobs, whichever entry path set them.

    The one validation site shared by :func:`build_session_stack` (hence
    ``quick_join``, ``AdHocJoinSession`` and :func:`run_join`) and
    :class:`~repro.service.query.JoinQuery`: a bad value raises
    :class:`~repro.errors.InvalidInput` even when the knob would go unused
    (a router on an unreplicated side, a scheme on an unsharded one).
    """
    if shards_r < 1 or shards_s < 1:
        raise InvalidInput("shard counts must be >= 1")
    if replicas < 1:
        raise InvalidInput("replicas must be >= 1")
    if shard_scheme not in PARTITION_SCHEMES:
        raise InvalidInput(
            f"unknown partition scheme {shard_scheme!r}; "
            f"available: {PARTITION_SCHEMES}"
        )
    if router is not None and router not in ROUTER_POLICIES:
        raise InvalidInput(
            f"unknown replica router policy {router!r}; "
            f"known: {sorted(ROUTER_POLICIES)}"
        )
    # ``not >=`` also rejects NaN, a budget that could never fire.
    if deadline_s is not None and not deadline_s >= 0:
        raise InvalidInput(
            f"deadline_s must be a non-negative number of simulated seconds, "
            f"got {deadline_s!r}"
        )


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
    indexed: bool = False,
    index_fanout: int = 16,
    servers: Optional[Tuple[SpatialServer, SpatialServer]] = None,
    faults=None,
    retry=None,
    deadline_s: Optional[float] = None,
    shards_r: int = 1,
    shards_s: int = 1,
    shard_scheme: str = "grid",
    replicas: int = 1,
    router: Optional[str] = None,
    tracer=None,
    metrics=None,
) -> Tuple[SpatialServer, SpatialServer, MobileDevice]:
    """Build the two servers, the metered connections and the device.

    ``servers`` injects pre-built ``(server_r, server_s)`` instances --
    server-side state (dataset, aggregate R-tree, flattened snapshots) is
    immutable during a join, so the experiment harness builds each server
    once per workload and shares it across algorithm runs.  The metered
    channels and the device are always fresh, so byte accounting starts
    from zero either way.

    ``shards_r``/``shards_s`` (> 1) publish that side as a
    :class:`~repro.server.sharded.ShardedSpatialServer` fleet split by
    ``shard_scheme``; the connection then scatters every request to the
    shards it intersects and merges the answers, with one metered channel
    per shard.  SemiJoin (``indexed=True``) requires unsharded servers.

    ``replicas`` (> 1) publishes each shard on R replica servers sharing
    one index build, each with its own channel and fault substream; the
    connection routes every exchange through the ``router`` policy (a
    :data:`~repro.server.remote.ROUTER_POLICIES` name, default
    healthy-first) and fails over to a sibling replica on retry
    exhaustion.  Replication applies to both sides and requires sharded-
    capable algorithms (i.e. not SemiJoin).

    ``faults``/``retry``/``deadline_s`` attach a per-session
    :class:`~repro.server.remote.ResilienceController` (a seeded
    :class:`~repro.network.faults.FaultPlan`, a retry policy, and a
    simulated-time deadline budget) to both connections.

    ``tracer``/``metrics`` attach the (strictly read-only) observability
    hooks: a :class:`repro.obs.Tracer` on the device and, when a
    :class:`repro.obs.MetricsRegistry` is given, a per-channel traffic
    observer plus fault/retry counters on the resilience controller.
    """
    config = config or NetworkConfig()
    validate_stack_knobs(shards_r, shards_s, shard_scheme, replicas, router, deadline_s)
    if indexed and replicas > 1:
        raise ValueError(
            "semijoin needs index-published servers; replicated fleets do "
            "not publish a single R-tree"
        )
    if servers is None:
        server_r = build_server(
            dataset_r, "R", shards_r, shard_scheme, index_fanout, replicas
        )
        server_s = build_server(
            dataset_s, "S", shards_s, shard_scheme, index_fanout, replicas
        )
    else:
        server_r, server_s = servers
    resilience = build_resilience(faults, retry, deadline_s, metrics)
    observer = None
    if metrics is not None:
        from repro.obs.metrics import ChannelMetricsObserver

        observer = ChannelMetricsObserver(metrics)
    pair = ServerPair.connect(
        server_r,
        server_s,
        config=config,
        indexed=indexed,
        resilience=resilience,
        router=router,
        observer=observer,
    )
    device = MobileDevice(pair, buffer_size=buffer_size, tracer=tracer)
    return server_r, server_s, device


def build_server(
    dataset: SpatialDataset,
    name: str,
    shards: int,
    scheme: str,
    index_fanout: int,
    replicas: int = 1,
):
    """One side's server build: a single server, or a (replicated) fleet.

    Replication rides on the fleet build even at ``shards == 1``: a
    single-shard fleet with R replicas is still a fleet, with replica
    channels, breaker units and failover routing.
    """
    if shards == 1 and replicas == 1:
        return SpatialServer(dataset.rename(name), name=name, index_fanout=index_fanout)
    return ShardedSpatialServer(
        dataset,
        name=name,
        shards=shards,
        scheme=scheme,
        index_fanout=index_fanout,
        replicas=replicas,
    )


def build_resilience(
    faults, retry, deadline_s: Optional[float], metrics=None
) -> Optional[ResilienceController]:
    """The per-session resilience controller, or None when no knob asks for one."""
    if faults is None and retry is None and deadline_s is None:
        return None
    resilience = ResilienceController(faults=faults, retry=retry, deadline_s=deadline_s)
    if metrics is not None:
        resilience.metrics = metrics
    return resilience


def build_algorithm(
    name: str,
    device: MobileDevice,
    spec: JoinSpec,
    params: Optional[AlgorithmParameters] = None,
    **algorithm_kwargs: object,
) -> MobileJoinAlgorithm:
    """Instantiate an algorithm by registry name.

    ``algorithm_kwargs`` are the algorithm's own constructor options
    (``grid_size`` / ``prune_empty`` for ``fixedgrid``, ``enforce_buffer``
    for ``naive``); one it does not take is :class:`~repro.errors.InvalidInput`.
    """
    key = name.lower()
    if key not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHMS)}"
        )
    cls = ALGORITHMS[key]
    if algorithm_kwargs:
        accepted = tuple(inspect.signature(cls).parameters)[3:]  # after device, spec, params
        unknown = sorted(set(algorithm_kwargs) - set(accepted))
        if unknown:
            raise InvalidInput(
                f"algorithm {key!r} takes no option {', '.join(map(repr, unknown))}; "
                f"it accepts: {', '.join(accepted) or 'none'}"
            )
    return cls(device, spec, params, **algorithm_kwargs)  # type: ignore[call-arg]


def run_join(
    dataset_r: SpatialDataset,
    dataset_s: SpatialDataset,
    spec: JoinSpec,
    algorithm: str = "srjoin",
    buffer_size: int = 800,
    config: Optional[NetworkConfig] = None,
    params: Optional[AlgorithmParameters] = None,
    window: Optional[Rect] = None,
    index_fanout: int = 16,
    faults=None,
    retry=None,
    deadline_s: Optional[float] = None,
    shards_r: int = 1,
    shards_s: int = 1,
    shard_scheme: str = "grid",
    replicas: int = 1,
    router: Optional[str] = None,
    tracer=None,
    metrics=None,
    **algorithm_kwargs: object,
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
    faults, retry, deadline_s:
        Optional resilience stack: a seeded fault plan to inject, the
        retry policy answering it, and a per-query simulated-time deadline.
    shards_r, shards_s, shard_scheme:
        Shard counts per side (> 1 publishes the side as a partitioned
        server fleet) and the partitioning scheme.
    replicas, router:
        Replication factor per shard (> 1 publishes every shard on R
        replica servers with mid-query failover) and the replica-routing
        policy name (default healthy-first).
    tracer, metrics:
        Optional observability hooks (see :mod:`repro.obs`); strictly
        read-only, the result is bit-identical with or without them.
    """
    validate_window(window)
    indexed = algorithm.lower() == "semijoin"
    _, _, device = build_session_stack(
        dataset_r,
        dataset_s,
        buffer_size=buffer_size,
        config=config,
        indexed=indexed,
        index_fanout=index_fanout,
        faults=faults,
        retry=retry,
        deadline_s=deadline_s,
        shards_r=shards_r,
        shards_s=shards_s,
        shard_scheme=shard_scheme,
        replicas=replicas,
        router=router,
        tracer=tracer,
        metrics=metrics,
    )
    algo = build_algorithm(algorithm, device, spec, params, **algorithm_kwargs)
    if window is None:
        window = default_window(dataset_r, dataset_s)
    return algo.run(window)
