"""A fleet of shard servers publishing one logical dataset.

The sharded data plane splits a published dataset across N
:class:`~repro.server.server.SpatialServer` instances (one per shard of a
deterministic :func:`~repro.datasets.partition.partition_dataset` split) and
presents them as one logical server build.  The fleet itself never answers
queries -- the client side talks to the fleet through one scatter/merge
connection (:class:`~repro.server.remote.ShardedRemoteServer`) that holds a
:class:`~repro.server.remote.RemoteServer` per shard over the shard's
replica set -- but it is the unit the query broker caches, primes, places
and reuses:

* ``shared_view()`` hands every in-flight query a statistics-isolated view
  of the whole fleet (each shard's index and dataset shared by reference);
* ``forest`` lays the shard indexes out as one
  :meth:`~repro.index.flat.FlatRTree.forest` (a root per shard; the shard
  trees' entries are slices of it), and ``route()`` turns a request batch
  into the ``(shard, window)`` rows it scatters to, so a whole scatter is
  evaluated by *one* index descent whatever the shard count;
* ``evaluate_count_batch()`` answers a COUNT batch by that routed descent,
  summing the per-shard counts (shards partition the object set exactly, so
  the sums equal the union server's counts bit for bit) and keeping the
  routed rows (:class:`RoutedCounts`); ``evaluate_window_batch()`` /
  ``evaluate_range_batch()`` are its payload siblings.  They are what every
  scatter of the client-side proxy -- and the step driver -- evaluates
  before the proxy books the routed shards;
* ``breaker_units()`` exposes every replica of every shard as an
  independently-breakable server, so one misbehaving shard (or replica)
  trips only its own circuit breaker, and ``breaker_groups()`` groups them
  by shard: the broker sheds a query only when a whole group is open.

Shard servers are named ``"<name>#<i>"``; those names key the per-shard
channels, ledgers and deterministic fault substreams.

With a replication factor R > 1 each shard is published on R *replica*
servers named ``"<name>#<i>/<j>"`` (``j`` in ``0..R-1``).  Replicas share
one immutable shard dataset build (:meth:`SpatialServer.replica_view`) but
each has its own ``breaker_token``, its own metered channel and its own
deterministic fault substream, so they fail and recover independently --
the shard's connection fails a scattered exchange over to a sibling replica
instead of failing the query.  At R == 1 a shard is a replica set of one:
the same connection, with nothing to fail over to.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.datasets.dataset import SpatialDataset
from repro.datasets.partition import partition_dataset
from repro.errors import require_count
from repro.geometry.rect_array import Windows, pairwise_intersects, window_array
from repro.index.aggregate_rtree import Probes, probe_arrays
from repro.index.flat import FlatRTree
from repro.server.server import Prefetched, ServerQueryStats, SpatialServer

__all__ = ["ShardedSpatialServer", "FleetStats", "RoutedCounts", "probe_squares"]


class RoutedCounts(list):
    """A fleet's COUNT answer: the per-window totals (a ``List[int]``) and
    the routed rows they sum.

    Row ``k`` is ``rows[k]`` objects of shard ``shard[k]`` in window
    ``request[k]``, request-major with shards ascending, like
    :class:`~repro.server.server.Prefetched`; ``answer[i:j]`` is the share
    of windows ``i..j-1``, renumbered from 0.
    """

    def __init__(self, totals, shard: np.ndarray, request: np.ndarray, rows: np.ndarray):
        super().__init__(totals)
        self.shard = shard
        self.request = request
        self.rows = rows

    def __getitem__(self, key):
        if not isinstance(key, slice):
            return super().__getitem__(key)
        first, stop, _ = key.indices(len(self))
        a, b = np.searchsorted(self.request, (first, stop)).tolist()
        return RoutedCounts(
            super().__getitem__(key), self.shard[a:b], self.request[a:b] - first, self.rows[a:b]
        )


def probe_squares(pts: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """The Chebyshev squares ``centre +- radius`` that make range-probe routing safe.

    Min-distance <= radius implies the object's MBR meets that square, and
    a shard's objects lie inside its bounds, so routing loses no answer.
    """
    x, y = pts.T
    return np.column_stack([x - radii, y - radii, x + radii, y + radii])


class FleetStats:
    """Read-through statistics over a fleet of shard servers.

    Quacks like :class:`~repro.server.server.ServerQueryStats` where the
    rest of the stack needs it to -- ``as_dict()`` sums the per-shard
    counters, ``reset()`` clears every shard -- while keeping the real
    counters on the shards, where the metered proxies bump them.
    """

    def __init__(self, shards: Sequence[SpatialServer]) -> None:
        self._shards = tuple(shards)

    def as_dict(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for shard in self._shards:
            for key, value in shard.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def reset(self) -> None:
        for shard in self._shards:
            shard.stats.reset()

    def per_shard(self) -> Dict[str, Dict[str, int]]:
        """Per-shard counter dicts, keyed by shard server name."""
        return {shard.name: shard.stats.as_dict() for shard in self._shards}

    def __getattr__(self, key: str) -> int:
        # Counter reads (``stats.count_queries`` etc.) sum over the fleet.
        if key not in ServerQueryStats.__dataclass_fields__:
            raise AttributeError(key)
        return sum(getattr(shard.stats, key) for shard in self._shards)


class ShardedSpatialServer:
    """One logical dataset published by a fleet of shard servers.

    Parameters
    ----------
    dataset:
        The logical dataset to publish.
    name:
        Logical server name (``"R"`` / ``"S"``); shard servers are named
        ``"<name>#<i>"``.
    shards:
        Number of shards (>= 1; empty shards are legal and never answer).
    scheme:
        Partitioning scheme, see :data:`~repro.datasets.partition.PARTITION_SCHEMES`.
    replicas:
        Replication factor R (>= 1).  With R == 1 the fleet is exactly the
        PR 8 sharded plane (shard servers named ``"<name>#<i>"``); with
        R > 1 each shard ``i`` is published on R replicas named
        ``"<name>#<i>/<j>"`` sharing one index build.
    """

    def __init__(
        self,
        dataset: SpatialDataset,
        name: str = "server",
        shards: int = 2,
        scheme: str = "grid",
        replicas: int = 1,
    ) -> None:
        require_count(replicas, "replicas")
        self.dataset = dataset.rename(name)
        self.name = name
        self.scheme = scheme
        self.replicas = replicas
        parts = partition_dataset(self.dataset, shards, scheme)
        groups: List[Tuple[SpatialServer, ...]] = []
        for part in parts:
            # The primary replica keeps the bare shard name at R == 1 so an
            # unreplicated fleet stays bit-identical to the PR 8 plane
            # (channel names key ledgers and fault substreams).
            primary_name = part.name if replicas == 1 else f"{part.name}/0"
            primary = SpatialServer(part, name=primary_name)
            group = [primary]
            for j in range(1, replicas):
                group.append(primary.replica_view(f"{part.name}/{j}"))
            groups.append(tuple(group))
        self.replica_groups: Tuple[Tuple[SpatialServer, ...], ...] = tuple(
            groups
        )
        self.shard_names: Tuple[str, ...] = tuple(part.name for part in parts)
        # ``shards`` stays the per-shard primaries: bounds routing, count
        # evaluation and snapshot priming all run against the shared builds,
        # which the primaries own.
        self.shards: Tuple[SpatialServer, ...] = tuple(
            group[0] for group in self.replica_groups
        )
        self.stats = FleetStats(
            tuple(rep for group in self.replica_groups for rep in group)
        )
        #: Every shard index in one layout, ``forest.roots[i]`` shard ``i``'s root.
        self.forest = FlatRTree.forest([shard.index.flat for shard in self.shards])
        # Routing table: the bounds (root boxes) of the non-empty shards;
        # an empty shard never answers and is never routed to.
        self._live = np.flatnonzero([len(shard) for shard in self.shards])
        self._live_bounds = self.forest.boxes[self.forest.roots[self._live]]

    def __len__(self) -> int:
        return len(self.dataset)

    def shared_view(self) -> "ShardedSpatialServer":
        """A fleet of statistics-isolated views over the same shard builds.

        Mirrors :meth:`SpatialServer.shared_view`: the broker builds a
        fleet once per dataset and hands each in-flight query its own view,
        so concurrent queries meter per-shard statistics in isolation
        without re-partitioning or re-indexing.
        """
        view = ShardedSpatialServer.__new__(ShardedSpatialServer)
        view.dataset = self.dataset
        view.name = self.name
        view.scheme = self.scheme
        view.replicas = self.replicas
        view.replica_groups = tuple(
            tuple(rep.shared_view() for rep in group)
            for group in self.replica_groups
        )
        view.shard_names = self.shard_names
        view.shards = tuple(group[0] for group in view.replica_groups)
        view.stats = FleetStats(
            tuple(rep for group in view.replica_groups for rep in group)
        )
        view.forest = self.forest
        view._live = self._live
        view._live_bounds = self._live_bounds
        return view

    def breaker_units(self) -> Tuple[SpatialServer, ...]:
        """The independently-breakable servers: every replica of every shard."""
        return tuple(rep for group in self.replica_groups for rep in group)

    def breaker_groups(self) -> Tuple[Tuple[SpatialServer, ...], ...]:
        """Breaker units grouped by failover domain (one group per shard).

        The broker routes around a cooling replica as long as a sibling in
        its group is available, and sheds the query only when the whole
        group is open.
        """
        return self.replica_groups

    def route(self, wins: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(shard, window)`` rows a ``(W, 4)`` request batch scatters to.

        A window goes to the non-empty shards whose bounds it intersects.
        Returns parallel ``(shard, window)`` index arrays, window-major with
        the shards of one window ascending -- the order the merged answer
        lists them in.
        """
        window, live = np.nonzero(pairwise_intersects(wins, self._live_bounds))
        return self._live.take(live), window

    def descend(self, query, requests: np.ndarray, *more: np.ndarray):
        """Route a request batch and answer its rows in one forest descent.

        ``requests`` is the ``(N, 4)`` routing windows and ``query`` a batch
        query of :attr:`forest`, called with ``more`` (what it takes per
        request; the windows themselves by default) at the routed rows,
        each row starting at its shard's root.  Statistics untouched.
        Returns ``(shard, request, answer)``.
        """
        shard, request = self.route(requests)
        args = [a.take(request, axis=0) for a in more or (requests,)]
        return shard, request, query(*args, self.forest.roots.take(shard))

    def evaluate_count_batch(self, windows: Windows) -> "RoutedCounts":
        """Answer COUNTs in one routed descent, statistics untouched.

        The shards partition the object set exactly, so summing a window's
        per-shard counts reproduces the union server's count bit for bit;
        the answer keeps the routed rows, so its booking routes nothing again.
        """
        wins = window_array(windows)
        shard, request, counts = self.descend(self.forest.count_batch, wins)
        totals = np.zeros(wins.shape[0], dtype=np.int64)
        np.add.at(totals, request, counts)
        return RoutedCounts(totals.tolist(), shard, request, counts)

    def evaluate_window_batch(self, windows: Windows) -> Prefetched:
        """Answer WINDOWs in one routed descent, statistics untouched.

        One row per ``(window, routed shard)``, window-major with shards
        ascending: the merged answer a scatter returns, still carrying the
        shard of every row so each shard's share can be booked afterwards.
        """
        return self._prefetched(self.forest.window_batch_flat, window_array(windows))

    def evaluate_range_batch(self, centers: Probes, radii: Sequence[float]) -> Prefetched:
        """Answer RANGE probes in one routed descent, statistics untouched.

        Probes are routed through their :func:`probe_squares`.
        """
        pts, reach = probe_arrays(centers, radii)
        return self._prefetched(
            self.forest.range_batch_flat, probe_squares(pts, reach), pts, reach
        )

    def _prefetched(self, query, requests: np.ndarray, *more: np.ndarray) -> Prefetched:
        shard, request, (bounds, rows) = self.descend(query, requests, *more)
        return Prefetched(shard, request, bounds, *self.forest.entries_at(rows))

    def prime_snapshot(self) -> None:
        """Nothing to force (see :meth:`SpatialServer.prime_snapshot`)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"ShardedSpatialServer(name={self.name!r}, shards={len(self.shards)}, "
            f"scheme={self.scheme!r}, replicas={self.replicas}, n={len(self)})"
        )
