"""The spatial server proper.

A :class:`SpatialServer` owns one :class:`~repro.datasets.dataset.SpatialDataset`
and answers every primitive query (COUNT and the area aggregate, WINDOW,
RANGE) from one array-native aggregate R-tree.  The server also keeps
simple query statistics, which the experiments report to show how many
aggregate vs. data queries each algorithm issued.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.dataset import SpatialDataset
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.rect_array import Windows
from repro.index.aggregate_rtree import (
    AggregateRTree,
    Probes,
    bucket_probe_arrays,
    probe_arrays,
)

__all__ = ["SpatialServer", "ServerQueryStats", "Prefetched", "per_request"]

#: Monotonic registration ids: every server *build* (not view) gets a fresh
#: uid, so ``breaker_token`` stays unique across the process lifetime even
#: when Python recycles ``id()`` values of garbage-collected servers.
_SERVER_UIDS = itertools.count(1)


@dataclass
class ServerQueryStats:
    """Counters of queries answered by a server."""

    window_queries: int = 0
    count_queries: int = 0
    range_queries: int = 0
    bucket_range_queries: int = 0
    bucket_range_probes: int = 0
    aggregate_queries: int = 0
    objects_returned: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "window_queries": self.window_queries,
            "count_queries": self.count_queries,
            "range_queries": self.range_queries,
            "bucket_range_queries": self.bucket_range_queries,
            "bucket_range_probes": self.bucket_range_probes,
            "aggregate_queries": self.aggregate_queries,
            "objects_returned": self.objects_returned,
        }

    # The one statistics rule of each query kind: what answering a batch of
    # it counts, whoever evaluated the batch.

    def book_count(self, windows: int) -> None:
        self.count_queries += windows

    def book_window(self, windows: int, objects: int) -> None:
        self.window_queries += windows
        self.objects_returned += objects

    def book_range(self, probes: int, objects: int) -> None:
        self.range_queries += probes
        self.objects_returned += objects

    def book_bucket(self, probes: int, objects: int) -> None:
        """One bucket query carrying ``probes`` probes."""
        self.bucket_range_queries += 1
        self.bucket_range_probes += probes
        self.objects_returned += objects

    def reset(self) -> None:
        self.window_queries = 0
        self.count_queries = 0
        self.range_queries = 0
        self.bucket_range_queries = 0
        self.bucket_range_probes = 0
        self.aggregate_queries = 0
        self.objects_returned = 0


class Prefetched:
    """The answer rows of one stat-free payload descent, gathered once.

    Row ``k`` answers request ``request[k]`` on shard ``shard[k]`` with the
    payload rows ``bounds[k]:bounds[k + 1]`` of ``mbrs`` / ``oids``.  Rows
    are request-major (a fleet lists the shards of one request ascending;
    a plain server has exactly one row per request, on shard 0), so the
    share of a contiguous run of requests is one slice of every array:
    ``answer[i:j]`` is that share, its requests renumbered from 0.  A
    build evaluates, a connection to the same build books
    (``book_window_batch`` / ``book_range_batch`` / ``book_bucket_range``);
    nothing else needs to look inside.
    """

    __slots__ = ("shard", "request", "bounds", "mbrs", "oids")

    def __init__(
        self,
        shard: np.ndarray,
        request: np.ndarray,
        bounds: np.ndarray,
        mbrs: np.ndarray,
        oids: np.ndarray,
    ) -> None:
        self.shard = shard
        self.request = request
        self.bounds = bounds
        self.mbrs = mbrs
        self.oids = oids

    def __getitem__(self, requests: slice) -> "Prefetched":
        first = requests.start
        a, b = np.searchsorted(self.request, (first, requests.stop)).tolist()
        lo, hi = self.bounds[a], self.bounds[b]
        return Prefetched(
            self.shard[a:b],
            self.request[a:b] - first,
            self.bounds[a : b + 1] - lo,
            self.mbrs[lo:hi],
            self.oids[lo:hi],
        )


def per_request(
    mbrs: np.ndarray, oids: np.ndarray, bounds: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """A flat (CSR) answer cut into one ``(mbrs, oids)`` payload per request."""
    cuts = bounds.tolist()
    return [(mbrs[lo:hi], oids[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


class SpatialServer:
    """An index-backed, non-cooperative spatial data server.

    Parameters
    ----------
    dataset:
        The published dataset.
    name:
        Server name used in traces (conventionally ``"R"`` or ``"S"``).
    index_fanout:
        Fanout of the internal aggregate R-tree.
    """

    def __init__(
        self,
        dataset: SpatialDataset,
        name: str = "server",
        index_fanout: int = 16,
    ) -> None:
        self.dataset = dataset
        self.name = name
        self.server_uid = next(_SERVER_UIDS)
        self.stats = ServerQueryStats()
        # Array-native bulk load straight off the dataset's MBR array; no
        # per-object Rect materialisation.
        self._index = AggregateRTree.from_mbr_array(
            dataset.mbrs, dataset.oids, max_entries=index_fanout
        )

    def __len__(self) -> int:
        return len(self.dataset)

    def shared_view(self) -> "SpatialServer":
        """A server sharing this one's immutable state, with fresh statistics.

        The dataset and the aggregate R-tree are shared by reference -- both
        read-only during queries -- while the query-statistics counters are
        private to the view.  The query broker hands every in-flight query
        its own view of a cached server build, so concurrent queries meter
        their server statistics in full isolation without re-running the
        index construction.
        """
        view = SpatialServer.__new__(SpatialServer)
        view.dataset = self.dataset
        view.name = self.name
        # Views share the build's identity: a breaker opened against the
        # build must shed traffic from every view of it.
        view.server_uid = self.server_uid
        view.stats = ServerQueryStats()
        view._index = self._index
        return view

    def replica_view(self, name: str) -> "SpatialServer":
        """A *replica* of this server: shared build, independent identity.

        Like :meth:`shared_view`, the dataset and index are shared by
        reference -- replicas publish one immutable shard dataset build.
        Unlike a view, a replica gets its own ``name``, a *fresh*
        ``server_uid`` (and therefore its own ``breaker_token``) and private
        statistics: replicas fail, breaker-trip and meter independently even
        though they serve identical answers.
        """
        replica = SpatialServer.__new__(SpatialServer)
        replica.dataset = self.dataset
        replica.name = name
        replica.server_uid = next(_SERVER_UIDS)
        replica.stats = ServerQueryStats()
        replica._index = self._index
        return replica

    @property
    def breaker_token(self) -> Tuple[str, int]:
        """Stable identity for circuit-breaker bookkeeping.

        ``(name, server_uid)`` survives garbage collection: a *new* server
        that happens to reuse a dead server's ``id()`` (or its name) gets a
        fresh uid and therefore a closed breaker.
        """
        return (self.name, self.server_uid)

    def breaker_units(self) -> Tuple["SpatialServer", ...]:
        """The independently-breakable servers behind this one (itself)."""
        return (self,)

    def breaker_groups(self) -> Tuple[Tuple["SpatialServer", ...], ...]:
        """Breaker units grouped by failover domain.

        A plain server is its own (only) replica: one group of one unit.
        Replicated fleets override this so the broker can distinguish "one
        replica cooling" (route around it) from "every replica of a shard
        cooling" (shed the query).
        """
        return ((self,),)

    def evaluate_count_batch(self, windows: Windows) -> List[int]:
        """Answer COUNTs without touching query statistics: the evaluate
        half of every COUNT, whose connection books the statistics."""
        return self._index.count_batch(windows)

    def evaluate_window_batch(self, windows: Windows) -> Prefetched:
        """Answer WINDOWs without touching query statistics (see :class:`Prefetched`)."""
        return self._prefetched(self._index.window_query_batch_flat(windows))

    def evaluate_range_batch(self, centers: Probes, radii: Sequence[float]) -> Prefetched:
        """Answer RANGE probes without touching query statistics."""
        return self._prefetched(self._index.range_query_batch_flat(centers, radii))

    def _prefetched(self, answer: Tuple[np.ndarray, np.ndarray]) -> Prefetched:
        bounds, rows = answer
        request = np.arange(bounds.shape[0] - 1, dtype=np.intp)
        return Prefetched(
            np.zeros_like(request), request, bounds, *self._index.entries_at(rows)
        )

    def prime_snapshot(self) -> None:
        """Nothing to force: the index is its own snapshot, built eagerly.

        Kept for callers that warm a server before timing it or before
        fanning queries out over threads.
        """

    @property
    def index(self) -> AggregateRTree:
        """The internal index.

        This is *server private* state: the mobile-join algorithms never
        touch it.  Only the SemiJoin comparator (via
        :class:`~repro.server.remote.IndexedRemoteServer`) and the tests
        read it.
        """
        return self._index

    # ------------------------------------------------------------------ #
    # primitive queries
    # ------------------------------------------------------------------ #

    def window(self, window: Rect) -> Tuple[np.ndarray, np.ndarray]:
        """WINDOW query: ``(mbrs, oids)`` of the objects intersecting ``window``."""
        # ``window_rows`` checks the window: nothing is counted before.
        mbrs, oids = self._index.entries_at(self._index.window_rows(window))
        self.stats.book_window(1, oids.shape[0])
        return mbrs, oids

    def window_batch(self, windows: Windows) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Answer a batch of WINDOW queries in one index descent.

        Statistics are updated exactly as if :meth:`window` had been called
        once per window; the per-window payloads are slices of the flat
        assembly of :meth:`window_batch_flat`.
        """
        return per_request(*self.window_batch_flat(windows))

    def window_batch_flat(
        self, windows: Windows
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Answer a batch of WINDOW queries, response assembled in one pass.

        Returns ``(mbrs, oids, bounds)`` in CSR form: the concatenated
        payloads of all windows in window order, window ``i`` owning rows
        ``bounds[i]:bounds[i+1]`` (``len(bounds) == W + 1``).  The payload
        is one take of the entry rows the index descent matched; statistics
        are identical to a loop of :meth:`window` calls.
        """
        answer = self.evaluate_window_batch(windows)
        self.stats.book_window(answer.request.shape[0], answer.oids.shape[0])
        return answer.mbrs, answer.oids, answer.bounds

    def count(self, window: Rect) -> int:
        """COUNT query: the number of objects intersecting ``window``."""
        value = self._index.count(window)
        self.stats.book_count(1)
        return value

    def count_batch(self, windows: Windows) -> List[int]:
        """Answer a batch of COUNT queries in one aggregate-tree descent."""
        values = self.evaluate_count_batch(windows)
        self.stats.book_count(len(values))
        return values

    def range(self, center: Point, epsilon: float) -> Tuple[np.ndarray, np.ndarray]:
        """epsilon-RANGE query: the objects within ``epsilon`` of ``center``
        (exact circular semantics, not the paper's square-window stand-in)."""
        probe_arrays([center], [epsilon])
        mbrs, oids = self._index.entries_at(self._index.range_rows(center, epsilon))
        self.stats.book_range(1, oids.shape[0])
        return mbrs, oids

    def range_batch(
        self, centers: Probes, radii: Sequence[float]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Answer a batch of RANGE queries in one index descent.

        Statistics are updated exactly as if :meth:`range` had been called
        once per probe; the per-probe payloads are slices of the flat
        assembly of :meth:`range_batch_flat`.
        """
        return per_request(*self.range_batch_flat(centers, radii))

    def range_batch_flat(
        self, centers: Probes, radii: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Answer a batch of RANGE queries, response assembled in one pass.

        ``centers`` is a sequence of :class:`Point` or a ``(P, 2)`` array,
        checked before anything is counted.  Returns ``(mbrs, oids, bounds)`` in CSR form:
        the concatenated payloads of all probes in probe order, probe ``i``
        owning rows ``bounds[i]:bounds[i+1]`` (``len(bounds) == P + 1``).
        The payload is one take of the entry rows the index descent matched;
        statistics are identical to a loop of :meth:`range` calls.
        """
        answer = self.evaluate_range_batch(centers, radii)
        self.stats.book_range(answer.request.shape[0], answer.oids.shape[0])
        return answer.mbrs, answer.oids, answer.bounds

    def bucket_range(
        self,
        centers: Probes,
        epsilon: float,
        radii: Optional[Sequence[float]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bucket epsilon-RANGE: ``(mbrs, oids, probe_index)`` of many probes,
        each answered independently (no deduplication across probes)."""
        pts, reach = bucket_probe_arrays(centers, epsilon, radii)
        answer = self.evaluate_range_batch(pts, reach)
        self.stats.book_bucket(pts.shape[0], answer.oids.shape[0])
        return answer.mbrs, answer.oids, np.repeat(answer.request, np.diff(answer.bounds))

    def average_mbr_area(self, window: Rect) -> float:
        """Scalar aggregate: the average object-MBR area inside ``window``."""
        value = self._index.average_mbr_area(window)
        self.stats.aggregate_queries += 1
        return value
