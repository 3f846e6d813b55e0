"""Query and outcome containers of the query service.

A :class:`JoinQuery` is one client request: which two datasets to join,
under which :class:`~repro.core.join_types.JoinSpec`, with which device and
wire configuration -- and, optionally, which algorithm (``algorithm=None``
lets the broker pick the cheapest predicted one).  Queries are plain
immutable descriptions; all execution state (servers, channels, device) is
owned by the broker, which is what lets many queries over the same
datasets share one server build while keeping their metering ledgers fully
isolated.

A :class:`QueryOutcome` pairs the query with its measured
:class:`~repro.core.result.JoinResult`, the plan decision that picked its
algorithm, and the service-level provenance (which wave ran it, whether it
was served from the result cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Tuple

from repro.core.base import DEFAULT_PARAMETERS, AlgorithmParameters
from repro.core.join_types import JoinSpec
from repro.core.planner import (
    PlanDecision,
    StackConfig,
    default_window,
    validate_window,
)
from repro.core.result import JoinResult
from repro.datasets.dataset import SpatialDataset
from repro.errors import require_count
from repro.geometry.rect import Rect
from repro.network.config import NetworkConfig
from repro.server.server import SpatialServer

__all__ = ["JoinQuery", "QueryOutcome"]


@dataclass(frozen=True, eq=False)
class JoinQuery:
    """One join request submitted to the broker.

    Identity note: queries compare (and hash) by object identity -- the
    dataset fields hold arrays, so structural equality lives in the result
    cache's content-derived keys instead
    (:func:`repro.service.cache.dataset_token`).

    Parameters
    ----------
    dataset_r, dataset_s:
        The two relations.  Queries over the same pair share one cached
        server build inside the broker (each execution counts on its own
        connections).
    spec:
        The join query (intersection / distance / iceberg).
    algorithm:
        Explicit registry algorithm, or ``None`` to let the broker pick
        the cheapest predicted one of
        :data:`~repro.core.planner.SELECTABLE_ALGORITHMS`
        (:func:`~repro.core.planner.select_algorithm`, one call per batch
        for the queries sharing a cost model; the pick is the one the
        query gets alone).
    buffer_size:
        Device buffer capacity in objects for this query.
    params:
        Algorithm tunables; defaults to :class:`AlgorithmParameters`
        (one shared default instance).
    window:
        Joined region; defaults to the union MBR of both datasets.
    config:
        Wire constants / tariffs; ``None`` inherits the broker's config.
    servers:
        Optional pre-built base ``(server_r, server_s)`` pair; the broker
        connects the execution to them as they are (a build is immutable,
        the query's own connections count).
    stack:
        Fleet topology and resilience of the query's stack
        (:class:`~repro.core.planner.StackConfig`): the broker builds (and
        caches) each side as the server or shard fleet it describes and
        attaches its fault plan, retry policy and deadline to this query's
        own channels.

    A query is validated whole at construction -- its stack, its window and
    that a named algorithm exists and can run on that stack -- so an
    unrunnable query cannot be built, let alone queued.
    """

    dataset_r: SpatialDataset
    dataset_s: SpatialDataset
    spec: JoinSpec
    algorithm: Optional[str] = None
    buffer_size: int = 800
    params: Optional[AlgorithmParameters] = None
    window: Optional[Rect] = None
    config: Optional[NetworkConfig] = None
    servers: Optional[Tuple[SpatialServer, SpatialServer]] = field(
        default=None, compare=False
    )
    stack: StackConfig = StackConfig()

    def __post_init__(self) -> None:
        require_count(self.buffer_size, "buffer_size")
        if self.algorithm is not None:
            self.stack.check_algorithm(self.algorithm)
        validate_window(self.window)

    def resolved_window(self) -> Rect:
        """The joined region (defaults to the union MBR of both datasets).

        The default-window computation is memoised on the (frozen) query:
        planning, cache-key derivation and wave execution all consult it,
        possibly from different threads, and must always see one
        identical Rect object.
        """
        if self.window is not None:
            return self.window
        window = self.__dict__.get("_resolved_window_cache")
        if window is None:
            window = default_window(self.dataset_r, self.dataset_s)
            object.__setattr__(self, "_resolved_window_cache", window)
        return window

    def resolved_params(self) -> AlgorithmParameters:
        return self.params if self.params is not None else DEFAULT_PARAMETERS


@dataclass
class QueryOutcome:
    """One executed (or cache-served) query, with full provenance.

    ``status`` is the degradation contract of PR 7: ``"ok"`` outcomes
    carry a result exactly as before; ``"failed"`` / ``"timeout"``
    outcomes carry ``result=None`` plus the typed ``error`` that isolated
    this query from its wave (the rest of the wave completed untouched).
    """

    query: JoinQuery
    result: Optional[JoinResult]
    #: ``None`` when planning itself failed (``status == "failed"``).
    plan: Optional[PlanDecision]
    #: ``"ok"``, ``"failed"`` (unrecoverable fault / retry exhaustion) or
    #: ``"timeout"`` (per-query deadline budget exceeded).
    status: str = "ok"
    #: The typed error that failed the query (``None`` when ``ok``).
    error: Optional[BaseException] = None
    #: True when the result came from the cache (warm hit or an identical
    #: query earlier in the same submission); the result object is shared
    #: with the execution that produced it.
    cached: bool = False
    #: Index of the wave that executed the query (-1: cache hit, or unplanned).
    wave: int = -1
    #: ``(R, S)`` :meth:`~repro.server.remote.RemoteServer.ledger_reader`
    #: calls (channels only: no device, no server build); ``None`` if cached.
    ledger_readers: Optional[Tuple[Callable[[], Tuple], ...]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def algorithm(self) -> Optional[str]:
        return self.plan.algorithm if self.plan is not None else None

    @cached_property
    def ledger_fingerprints(self) -> Optional[Tuple[Tuple, Tuple]]:
        """``(R, S)`` channel ledger fingerprints of the execution, digested
        on first read; ``None`` for cache-served outcomes.  The equivalence
        suite pins these record for record against standalone runs --
        coalescing may share evaluations, never the attributed ledger."""
        if self.ledger_readers is None:
            return None
        return tuple(read() for read in self.ledger_readers)
