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

import numpy as np

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

__all__ = ["DeviceGroup", "MobileDevice", "OperatorCounts"]

#: The 802.11b timing model every device's response-time estimate uses.
LINK = WifiLinkModel()


@dataclass
class OperatorCounts:
    """How many times each physical operator was applied, and on what."""

    hbsj_invocations: int = 0
    nlsj_invocations: int = 0
    windows_pruned: int = 0
    count_queries: int = 0
    repartitions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hbsj_invocations": self.hbsj_invocations,
            "nlsj_invocations": self.nlsj_invocations,
            "windows_pruned": self.windows_pruned,
            "count_queries": self.count_queries,
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
    tracer:
        Optional :class:`repro.obs.trace.Tracer`; defaults to the no-op
        tracer, which the algorithms' instrumentation guards treat as
        "observability off".
    """

    def __init__(
        self,
        servers: ServerPair,
        buffer_size: int = 800,
        tracer=None,
    ) -> None:
        self.servers = servers
        self.buffer = DeviceBuffer(capacity=buffer_size)
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
        """COUNT on one server: a batch of one (:meth:`count_windows`)."""
        return self.count_windows(server_name, [window])[0]

    def count_windows(self, server_name: str, windows: Windows) -> List[int]:
        """COUNT a batch of windows on one server.

        The batch is evaluated in a single index descent server-side; each
        window is metered as its own COUNT query string and answer.
        """
        self.counts.count_queries += len(windows)
        server = self.servers.r if server_name.upper() == "R" else self.servers.s
        return server.count_batch(windows)

    def count_windows_prefetched(
        self, server_name: str, windows: Windows, values: Sequence[int]
    ) -> List[int]:
        """Attribute a COUNT batch evaluated elsewhere (``values`` its answers).

        Books operator counters, server statistics and channel ledgers
        exactly as a :meth:`count_windows` call over the same windows.  The
        step driver books each query's shares of a step
        (:func:`repro.device.steps.book_step`) and never calls this;
        ``benchmarks/e2e/layers.py`` (frozen) still names it.
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
        """Run nested-loop spatial join on a window: a batch of one.

        ``outer`` is the dataset downloaded and iterated (``"R"`` is the
        cost model's strategy ``c2``, ``"S"`` its ``c3``); ``bucket`` ships
        all probes in one bucket range query.
        """
        return self.nlsj_batch([NLSJRequest(window, outer)], predicate, bucket=bucket)[0]

    def hbsj_batch(self, requests: HBSJRequests, predicate: JoinPredicate) -> List[HBSJResult]:
        """Run many HBSJ invocations: the operator of this device alone
        (:meth:`DeviceGroup.hbsj_steps`) on its connections."""
        steps = DeviceGroup([self]).hbsj_steps(HBSJColumns.of(requests), predicate)
        return list(run_steps(steps, self.servers))

    def nlsj_batch(
        self, requests: NLSJRequests, predicate: JoinPredicate, bucket: bool = False
    ) -> List[NLSJResult]:
        """Run many NLSJ invocations (see :meth:`hbsj_batch`)."""
        steps = DeviceGroup([self]).nlsj_steps(NLSJColumns.of(requests), predicate, bucket=bucket)
        return list(run_steps(steps, self.servers))

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
        """Estimated wall-clock seconds to replay all traffic over the link (:data:`LINK`).

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
            LINK.estimate_channel_time(chan)
            for server in (self.servers.r, self.servers.s)
            for chan in server.channels
        )

    def reset(self) -> None:
        """Reset buffer, counters and both channels (fresh experiment run)."""
        self.buffer.reset()
        self.counts = OperatorCounts()
        self.servers.reset()


class DeviceGroup:
    """The devices of a query group: one per query, in the group's order.

    The operators of a group run once over the invocations of all its
    queries (the columns' query column names each invocation's); each
    device keeps its own counters and buffer.  A query that leaves the
    group (:meth:`leave`) has its device dropped: nothing is counted or
    held on it any more.
    """

    def __init__(self, devices: Sequence[MobileDevice]) -> None:
        #: ``None`` where the query left the group.
        self.devices: List[Optional[MobileDevice]] = list(devices)
        #: Parallel to :attr:`devices`; the list the operators hold on.
        self.buffers = [device.buffer for device in self.devices]

    def leave(self, q: int) -> None:
        """Query ``q`` left the group: count and hold nothing more on its device."""
        self.devices[q] = None
        self.buffers[q] = None

    def tally(self, counter: str, query: np.ndarray, weights: Optional[np.ndarray] = None) -> None:
        """Add one per row -- or each row's ``weights`` -- to counter
        ``counter`` of the row's device (``query`` is the rows' query column)."""
        per_query = np.bincount(query, weights, minlength=len(self.devices))
        for device, n in zip(self.devices, per_query.astype(np.int64).tolist()):
            if device is not None and n:
                setattr(device.counts, counter, getattr(device.counts, counter) + n)

    def hbsj_steps(self, requests: HBSJColumns, predicate: JoinPredicate) -> Steps:
        """HBSJ over the invocations of the group's queries: books one
        invocation per request and adds their count / prune counters to
        their queries' devices."""
        requests = _with_query(requests)
        self.tally("hbsj_invocations", requests.query)
        table = yield from hash_based_spatial_join_steps(requests, predicate, self.buffers)
        self.tally("count_queries", requests.query, table.count_queries)
        self.tally("windows_pruned", requests.query, table.windows_pruned)
        return table

    def nlsj_steps(
        self, requests: NLSJColumns, predicate: JoinPredicate, bucket: bool = False
    ) -> Steps:
        """NLSJ over the invocations of the group's queries (see :meth:`hbsj_steps`)."""
        requests = _with_query(requests)
        self.tally("nlsj_invocations", requests.query)
        steps = nested_loop_spatial_join_steps(requests, predicate, self.buffers, bucket)
        return (yield from steps)


def _with_query(requests):
    """Operator columns with their query column (all the first query's
    when there is none)."""
    if requests.query is not None:
        return requests
    return requests._replace(query=np.zeros(requests.windows.shape[0], dtype=np.intp))
