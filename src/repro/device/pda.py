"""The mobile device facade.

:class:`MobileDevice` bundles everything the join algorithms need on the
client side: the bounded buffer, the two metered server connections, the
physical operators (HBSJ / NLSJ) and per-operator bookkeeping.  The
algorithms in :mod:`repro.core` are written against this facade, so the
same algorithm code runs in unit tests (tiny datasets, in-process servers)
and in the full experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.device.buffer import DeviceBuffer
from repro.device.hbsj import (
    HBSJColumns,
    HBSJRequest,
    HBSJRequests,
    HBSJResult,
    hash_based_spatial_join_steps,
)
from repro.device.nlsj import (
    NLSJColumns,
    NLSJRequest,
    NLSJRequests,
    NLSJResult,
    nested_loop_spatial_join_steps,
)
from repro.device.steps import Steps, run_steps
from repro.geometry.predicates import JoinPredicate
from repro.geometry.rect import Rect
from repro.geometry.rect_array import Windows
from repro.network.config import NetworkConfig
from repro.network.wifi import WifiLinkModel
from repro.obs.trace import NULL_TRACER
from repro.server.remote import ServerPair

__all__ = ["MobileDevice", "OperatorCounts"]


@dataclass
class OperatorCounts:
    """How many times each physical operator was applied, and on what."""

    hbsj_invocations: int = 0
    nlsj_invocations: int = 0
    windows_pruned: int = 0
    count_queries: int = 0
    aggregate_queries: int = 0
    repartitions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hbsj_invocations": self.hbsj_invocations,
            "nlsj_invocations": self.nlsj_invocations,
            "windows_pruned": self.windows_pruned,
            "count_queries": self.count_queries,
            "aggregate_queries": self.aggregate_queries,
            "repartitions": self.repartitions,
        }


class MobileDevice:
    """A PDA holding two metered server connections and a bounded buffer.

    Parameters
    ----------
    servers:
        The metered R/S connections.
    buffer_size:
        Buffer capacity in objects (the paper uses 100 and 800 points).
    link:
        Optional 802.11b timing model used for response-time estimates.
    tracer:
        Optional :class:`repro.obs.trace.Tracer`; defaults to the no-op
        tracer, which the algorithms' instrumentation guards treat as
        "observability off".
    """

    def __init__(
        self,
        servers: ServerPair,
        buffer_size: int = 800,
        link: Optional[WifiLinkModel] = None,
        tracer=None,
    ) -> None:
        self.servers = servers
        self.buffer = DeviceBuffer(capacity=buffer_size)
        self.link = link or WifiLinkModel()
        self.counts = OperatorCounts()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Parent span for the per-run "join" span (the broker points this
        # at the owning query's span; standalone runs leave it None).
        self.trace_root = None

    # ------------------------------------------------------------------ #
    # metered primitives (thin, counted wrappers)
    # ------------------------------------------------------------------ #

    @property
    def config(self) -> NetworkConfig:
        return self.servers.r.config

    @property
    def resilience(self):
        """The session's shared resilience controller (``None`` if plain)."""
        return self.servers.r.resilience

    def sim_now(self) -> float:
        """Deterministic simulated-clock reading for trace timestamps.

        Runs without a resilience stack have no simulated clock; they
        stamp 0.0, which is equally deterministic.
        """
        res = self.servers.r.resilience
        return res.elapsed_s if res is not None else 0.0

    def count_window(self, server_name: str, window: Rect) -> int:
        """COUNT on one server; counted as an aggregate query."""
        self.counts.count_queries += 1
        server = self.servers.r if server_name.upper() == "R" else self.servers.s
        return server.count(window)

    def count_windows(self, server_name: str, windows: Windows) -> List[int]:
        """COUNT a batch of windows on one server.

        The batch is evaluated in a single index descent server-side; each
        window is metered as its own COUNT exchange, so byte totals match a
        loop of :meth:`count_window` calls exactly.
        """
        self.counts.count_queries += len(windows)
        server = self.servers.r if server_name.upper() == "R" else self.servers.s
        return server.count_batch(windows)

    def count_windows_prefetched(
        self, server_name: str, windows: Windows, values: Sequence[int]
    ) -> List[int]:
        """Attribute a COUNT batch evaluated elsewhere (``values`` its answers).

        Books operator counters, server statistics and channel ledgers
        exactly as a :meth:`count_windows` call over the same windows.  Step
        drivers book whole steps (:func:`repro.device.steps.book_step`) and
        never call this; ``benchmarks/e2e/layers.py`` (frozen) still names it.
        """
        self.counts.count_queries += len(windows)
        server = self.servers.r if server_name.upper() == "R" else self.servers.s
        return server.count_batch_prefetched(windows, values)

    def count_both(self, window: Rect) -> Tuple[int, int]:
        """COUNT the window on both servers; returns ``(|Rw|, |Sw|)``."""
        return self.count_window("R", window), self.count_window("S", window)

    # ------------------------------------------------------------------ #
    # physical operators
    # ------------------------------------------------------------------ #

    def hbsj(
        self,
        window: Rect,
        predicate: JoinPredicate,
        count_r: Optional[int] = None,
        count_s: Optional[int] = None,
    ) -> HBSJResult:
        """Run hash-based spatial join on a window: a batch of one."""
        return self.hbsj_batch([HBSJRequest(window, count_r, count_s)], predicate)[0]

    def nlsj(
        self,
        window: Rect,
        predicate: JoinPredicate,
        outer: str = "S",
        bucket: bool = False,
    ) -> NLSJResult:
        """Run nested-loop spatial join on a window: a batch of one."""
        return self.nlsj_batch([NLSJRequest(window, outer)], predicate, bucket=bucket)[0]

    def hbsj_batch(self, requests: HBSJRequests, predicate: JoinPredicate) -> List[HBSJResult]:
        """Run many HBSJ invocations: :meth:`hbsj_steps` on this device's connections."""
        return list(run_steps(self.hbsj_steps(requests, predicate), self.servers))

    def nlsj_batch(
        self, requests: NLSJRequests, predicate: JoinPredicate, bucket: bool = False
    ) -> List[NLSJResult]:
        """Run many NLSJ invocations: :meth:`nlsj_steps` on this device's connections."""
        return list(run_steps(self.nlsj_steps(requests, predicate, bucket=bucket), self.servers))

    def hbsj_steps(self, requests: HBSJRequests, predicate: JoinPredicate) -> Steps:
        """Many HBSJ invocations (a request list or :class:`HBSJColumns`) as a
        step generator (:mod:`repro.device.steps`).

        Books one invocation per request and adds their count / prune
        counters to the device's; returns the operator's
        :class:`~repro.device.hbsj.HBSJTable`.
        """
        requests = HBSJColumns.of(requests)
        self.counts.hbsj_invocations += requests.windows.shape[0]
        table = yield from hash_based_spatial_join_steps(requests, predicate, self.buffer)
        self.counts.count_queries += int(table.count_queries.sum())
        self.counts.windows_pruned += int(table.windows_pruned.sum())
        return table

    def nlsj_steps(
        self, requests: NLSJRequests, predicate: JoinPredicate, bucket: bool = False
    ) -> Steps:
        """Many NLSJ invocations (a request list or :class:`NLSJColumns`) as a
        step generator; returns the operator's :class:`~repro.device.nlsj.NLSJTable`."""
        requests = NLSJColumns.of(requests)
        self.counts.nlsj_invocations += requests.windows.shape[0]
        return (
            yield from nested_loop_spatial_join_steps(
                requests, predicate, self.buffer, bucket=bucket
            )
        )

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def total_bytes(self) -> int:
        """Total wire bytes over both server connections so far."""
        return self.servers.total_bytes()

    def total_cost(self) -> float:
        """Tariff-weighted transfer cost so far."""
        return self.servers.total_cost()

    def estimated_response_time(self) -> float:
        """Estimated wall-clock seconds to replay all traffic over the link.

        Every connection channel log -- one per server, one per shard for a
        sharded connection, one per *replica* for a replicated fleet (the
        ``channels`` property flattens replica channels, so traffic that
        failed over to a sibling replica is counted on the channel that
        actually carried it) -- contributes the link model's closed form
        over the packet, byte and uplink totals the channel already keeps
        (three integers per channel, whatever the log length); the wifi
        tests pin it within float tolerance of the per-record walk in
        ``tests/oracles/wifi_event.py``.
        """
        return sum(
            self.link.estimate_channel_time(chan)
            for server in (self.servers.r, self.servers.s)
            for chan in server.channels
        )

    def note_repartition(self) -> None:
        """Record that an algorithm decided to repartition a window."""
        self.counts.repartitions += 1

    def reset(self) -> None:
        """Reset buffer, counters and both channels (fresh experiment run)."""
        self.buffer.reset()
        self.counts = OperatorCounts()
        self.servers.reset()
