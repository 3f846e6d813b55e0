"""A fleet of shard servers publishing one logical dataset.

The sharded data plane splits a published dataset across N
:class:`~repro.server.server.SpatialServer` instances (one per shard of a
deterministic :func:`~repro.datasets.partition.partition_dataset` split) and
presents them as one logical server build.  The fleet itself never answers
queries -- the client side talks to the fleet through one scatter/merge
connection (:class:`~repro.server.remote.ShardedRemoteServer`) that holds a
:class:`~repro.server.remote.RemoteServer` per shard over the shard's
replica set -- but it is the unit the query broker caches, primes, places
and reuses.  Like a single server build it is immutable once constructed:
the connection counts, so every query connects to the cached fleet as it is.

* ``forest`` lays the shard indexes out as one
  :meth:`~repro.index.flat.FlatRTree.forest` (a root per shard; the shard
  trees' page tables and oids are read-only slices of it), and ``route()``
  turns a request batch into the ``(shard, window)`` rows it scatters to,
  so a whole scatter is evaluated by *one* index descent whatever the
  shard count.  A shard server is, like every server, its name and its
  index (``len()`` counts the index's entries), so the fleet holds each
  object's coordinates where a plain server does -- the user's dataset and
  the (forest's) page table -- and keeps no partition copy;
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
one immutable shard build and index
(:meth:`SpatialServer.replica_view`), but
each is its own breaker unit, with its own metered channel, its own
statistics on the shard's connection and its own deterministic fault
substream, so they fail and recover independently --
the shard's connection fails a scattered exchange over to a sibling replica
instead of failing the query.  At R == 1 a shard is a replica set of one:
the same connection, with nothing to fail over to.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.datasets.dataset import SpatialDataset
from repro.datasets.partition import partition_dataset
from repro.errors import require_count
from repro.geometry.rect_array import Windows, pairwise_intersects, window_array
from repro.index.aggregate_rtree import Probes, probe_arrays
from repro.index.flat import FlatRTree
from repro.server.server import Prefetched, SpatialServer

__all__ = ["ShardedSpatialServer", "RoutedCounts", "probe_squares"]


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
        self.shard_names: Tuple[str, ...] = tuple(part.name for part in parts)
        # ``shards`` are the per-shard primaries, which own the shared
        # builds.  At R == 1 a primary keeps the bare shard name
        # ``"<name>#<i>"`` (channel names key ledgers and fault substreams).
        self.shards: Tuple[SpatialServer, ...] = tuple(
            SpatialServer(part, name=part.name if replicas == 1 else f"{part.name}/0")
            for part in parts
        )
        # The partition copies the shards were built from go before the
        # forest is laid out.
        del parts
        #: Every shard index in one layout, ``forest.roots[i]`` shard ``i``'s root.
        self.forest = FlatRTree.forest([shard.index for shard in self.shards])
        self.replica_groups: Tuple[Tuple[SpatialServer, ...], ...] = tuple(
            (primary, *(primary.replica_view(f"{name}/{j}") for j in range(1, replicas)))
            for name, primary in zip(self.shard_names, self.shards)
        )
        # Routing table: the bounds (root boxes) of the non-empty shards;
        # an empty shard never answers and is never routed to.
        self._live = np.flatnonzero([len(shard) for shard in self.shards])
        self._live_bounds = self.forest.boxes[self.forest.roots[self._live]]

    def __len__(self) -> int:
        return len(self.dataset)

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
        each row starting at its shard's root.
        Returns ``(shard, request, answer)``.
        """
        shard, request = self.route(requests)
        args = [a.take(request, axis=0) for a in more or (requests,)]
        return shard, request, query(*args, self.forest.roots.take(shard))

    def evaluate_count_batch(self, windows: Windows) -> "RoutedCounts":
        """Answer COUNTs in one routed descent.

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
        """Answer WINDOWs in one routed descent.

        One row per ``(window, routed shard)``, window-major with shards
        ascending: the merged answer a scatter returns, still carrying the
        shard of every row so each shard's share can be booked afterwards.
        """
        return self._prefetched(self.forest.window_batch_flat, window_array(windows))

    def evaluate_range_batch(self, centers: Probes, radii: Sequence[float]) -> Prefetched:
        """Answer RANGE probes in one routed descent.

        Probes are routed through their :func:`probe_squares`.
        """
        pts, reach = probe_arrays(centers, radii)
        return self._prefetched(
            self.forest.range_batch_flat, probe_squares(pts, reach), pts, reach
        )

    def _prefetched(self, query, requests: np.ndarray, *more: np.ndarray) -> Prefetched:
        shard, request, (bounds, rows) = self.descend(query, requests, *more)
        # The routed rows' CSR read at request boundaries: the merged answer.
        merged = bounds.take(np.searchsorted(request, np.arange(requests.shape[0] + 1)))
        return Prefetched(
            *self.forest.entries_at(rows), merged, shard, request, np.diff(bounds)
        )

    def prime_snapshot(self) -> None:
        """Warm the fleet before timing it (see :meth:`SpatialServer.prime_snapshot`).

        Nothing is left to build: the forest laid out the fleet's one page
        table when the fleet was built, and every scatter descends it.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"ShardedSpatialServer(name={self.name!r}, shards={len(self.shards)}, "
            f"scheme={self.scheme!r}, replicas={self.replicas}, n={len(self)})"
        )
