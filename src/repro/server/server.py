"""The spatial server proper.

A :class:`SpatialServer` publishes one :class:`~repro.datasets.dataset.SpatialDataset`
and answers every primitive query (COUNT and the area aggregate, WINDOW,
RANGE) from one array-native aggregate R-tree built over it.  A server is
its name and its index: the dataset goes once the index is built.  A build
is immutable once constructed: it keeps no per-query state.  The
connection counts (:class:`~repro.server.remote.RemoteServer` books one
:class:`ServerQueryStats` per replica), so any number of sessions and
queries can share one build.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.dataset import SpatialDataset
from repro.geometry.point import Point
from repro.geometry.predicates import IntersectionPredicate, WithinDistancePredicate
from repro.geometry.rect import Rect
from repro.geometry.rect_array import Windows, intersects_window, window_array
from repro.index.aggregate_rtree import (
    Probes,
    average_mbr_area,
    bucket_probe_arrays,
    probe_arrays,
)
from repro.index.flat import FlatRTree
from repro.index.hash_join import JoinBatch, grid_hash_join_batch

__all__ = ["INDEX_FANOUT", "SpatialServer", "ServerQueryStats", "Prefetched", "per_request"]

#: Fanout of every server's aggregate R-tree: each server publishes one tree
#: built at this fanout (SemiJoin's level-size estimate reads it too).
INDEX_FANOUT = 16


@dataclass
class ServerQueryStats:
    """Counters of the queries one replica answered over one connection."""

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

    def book_aggregate(self) -> None:
        self.aggregate_queries += 1


class Prefetched(tuple):
    """The answer of one payload descent: ``(mbrs, oids, bounds)``, request
    ``i`` owning payload rows ``bounds[i]:bounds[i + 1]`` -- the triple a
    WINDOW / RANGE endpoint returns -- plus the routed rows it was read from.

    Routed row ``k`` answers request ``request[k]`` on shard ``shard[k]``
    with ``sizes[k]`` objects.  Rows are request-major (a fleet lists the
    shards of one request ascending; a plain server has exactly one row per
    request, on shard 0), so the share of a contiguous run of requests is
    one slice of every array: ``answer[i:j]`` is that share, its requests
    renumbered from 0 (a slice takes requests, never fields of the triple).
    A build evaluates, a connection to the same build books the routed
    rows (``book_window_batch`` / ``book_range_batch`` /
    ``book_bucket_range`` / ``book_collect``), and every reader -- booker
    or step generator -- reads the answer by the same rule: the triple,
    :meth:`probes` for the request of every payload row (a bucket's probe
    index) and :attr:`first_seen` for what COLLECT ships.
    """

    def __new__(cls, mbrs, oids, bounds, shard, request, sizes) -> "Prefetched":
        answer = super().__new__(cls, (mbrs, oids, bounds))
        answer.shard, answer.request, answer.sizes = shard, request, sizes
        return answer

    mbrs = property(operator.itemgetter(0))
    oids = property(operator.itemgetter(1))
    bounds = property(operator.itemgetter(2))

    def __getitem__(self, key):
        if not isinstance(key, slice):
            return super().__getitem__(key)
        first, stop = key.start, key.stop
        a, b = np.searchsorted(self.request, (first, stop)).tolist()
        mbrs, oids, bounds = self
        lo, hi = bounds[first], bounds[stop]
        return Prefetched(
            mbrs[lo:hi],
            oids[lo:hi],
            bounds[first : stop + 1] - lo,
            self.shard[a:b],
            self.request[a:b] - first,
            self.sizes[a:b],
        )

    def probes(self) -> np.ndarray:
        """The request of every payload row (a bucket's probe index)."""
        bounds = self[2]
        return np.repeat(np.arange(bounds.shape[0] - 1, dtype=np.intp), np.diff(bounds))

    @functools.cached_property
    def first_seen(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(mbrs, oids)`` of the payload, an object inside several windows
        once, first seen first: what SemiJoin's COLLECT ships (the server
        deduplicates before shipping, as the original algorithm does)."""
        mbrs, oids, _ = self
        _, first = np.unique(oids, return_index=True)
        keep = np.sort(first)
        return mbrs[keep], oids[keep]


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

    A server is its name and its :attr:`index`, an aggregate R-tree
    (:class:`~repro.index.flat.FlatRTree`) of fanout :data:`INDEX_FANOUT`
    bulk loaded from the dataset's MBR array, and every answer comes from
    it: ``len()`` is its entry count and SemiJoin's final join reads its
    entries.  The dataset is not kept, so plain, shard and replica servers
    hold the same two fields.

    :attr:`index` is *server private* state: the mobile-join algorithms
    never touch it.  Only the build's own answers (SemiJoin's index relay
    among them), the fleet that lays its shards' indexes out as one forest,
    and the tests read it.
    """

    def __init__(self, dataset: SpatialDataset, name: str = "server") -> None:
        self.name = name
        self.index = FlatRTree.from_mbr_array(
            dataset.mbrs, dataset.oids, max_entries=INDEX_FANOUT
        )

    def __len__(self) -> int:
        return self.index.size

    def replica_view(self, name: str) -> "SpatialServer":
        """A *replica* of this server: shared build, independent identity.

        The index is shared by reference -- replicas publish one immutable
        build -- but a replica is its own object under its own ``name``: its
        own breaker unit, channel and fault substream, so replicas fail and
        breaker-trip independently even though they serve identical answers.
        """
        replica = SpatialServer.__new__(SpatialServer)
        replica.name = name
        replica.index = self.index
        return replica

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
        """Answer COUNTs: the evaluate half of every COUNT, whose connection
        books the statistics."""
        return self.index.count_batch(window_array(windows)).tolist()

    def evaluate_window_batch(self, windows: Windows) -> Prefetched:
        """Answer WINDOWs (see :class:`Prefetched`)."""
        return self._prefetched(self.index.window_batch_flat(window_array(windows)))

    def evaluate_range_batch(self, centers: Probes, radii: Sequence[float]) -> Prefetched:
        """Answer RANGE probes."""
        return self._prefetched(self.index.range_batch_flat(*probe_arrays(centers, radii)))

    # SemiJoin's index relay: one answer per request, every request whole.

    def evaluate_size(self, requests: Sequence[tuple]) -> List[int]:
        """The object count."""
        return [len(self)] * len(requests)

    def evaluate_level_mbrs(self, requests: Sequence[tuple]) -> List[np.ndarray]:
        """The ``(K, 4)`` boxes of the index's second-to-last level."""
        return [self.index.second_to_last_level_mbrs()] * len(requests)

    def evaluate_join_batch(self, requests: Sequence[tuple]) -> List[np.ndarray]:
        """Answer JOIN requests, SemiJoin's final join: each upload
        ``(mbrs, oids, epsilon, window)`` joined against this index's
        entries that meet ``window`` (every entry when it is ``None`` or
        left out), the sorted ``(foreign_oid, local_oid)`` pairs of each as
        a ``(k, 2)`` ``int64`` block.  Each upload is its own kernel call."""
        entry_mbrs, entry_oids = self.index.entry_mbrs, self.index.entry_oids
        answers = []
        for mbrs, oids, epsilon, *window in requests:
            entries = (entry_mbrs, entry_oids)
            if window and window[0] is not None:
                meets = intersects_window(entry_mbrs, window[0])
                if not meets.all():
                    entries = (entry_mbrs[meets], entry_oids[meets])
            predicate = WithinDistancePredicate(epsilon) if epsilon > 0 else IntersectionPredicate()
            answers.append(grid_hash_join_batch(JoinBatch.one(mbrs, oids, *entries), predicate)[0])
        return answers

    def _prefetched(self, answer: Tuple[np.ndarray, np.ndarray]) -> Prefetched:
        bounds, rows = answer
        request = np.arange(bounds.shape[0] - 1, dtype=np.intp)
        return Prefetched(
            *self.index.entries_at(rows), bounds, np.zeros_like(request), request, np.diff(bounds)
        )

    def prime_snapshot(self) -> None:
        """Warm the build before timing it: nothing is left to build.

        The index lays out its page table when it is built
        (:class:`~repro.index.flat.FlatRTree`), so the first query reads the
        table every later one reads.  Warm-up code calls this on any build.
        """

    # ------------------------------------------------------------------ #
    # primitive queries (answered, never counted: the connection counts)
    # ------------------------------------------------------------------ #

    def window(self, window: Rect) -> Tuple[np.ndarray, np.ndarray]:
        """WINDOW query: ``(mbrs, oids)`` of the objects intersecting ``window``
        (a batch of one)."""
        return self.window_batch([window])[0]

    def window_batch(self, windows: Windows) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Answer a batch of WINDOW queries in one index descent; the
        per-window payloads are slices of :meth:`window_batch_flat`."""
        return per_request(*self.window_batch_flat(windows))

    def window_batch_flat(
        self, windows: Windows
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Answer a batch of WINDOW queries, response assembled in one pass.

        Returns ``(mbrs, oids, bounds)`` in CSR form: the concatenated
        payloads of all windows in window order, window ``i`` owning rows
        ``bounds[i]:bounds[i+1]`` (``len(bounds) == W + 1``).  The payload
        is one take of the entry rows the index descent matched.
        """
        return self.evaluate_window_batch(windows)

    def count(self, window: Rect) -> int:
        """COUNT query: the number of objects intersecting ``window`` (a batch of one)."""
        return self.count_batch([window])[0]

    def count_batch(self, windows: Windows) -> List[int]:
        """Answer a batch of COUNT queries in one aggregate-tree descent."""
        return self.evaluate_count_batch(windows)

    def range(self, center: Point, epsilon: float) -> Tuple[np.ndarray, np.ndarray]:
        """epsilon-RANGE query: the objects within ``epsilon`` of ``center``
        (exact circular semantics, not the paper's square-window stand-in; a
        batch of one)."""
        return self.range_batch([center], [epsilon])[0]

    def range_batch(
        self, centers: Probes, radii: Sequence[float]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Answer a batch of RANGE queries in one index descent; the
        per-probe payloads are slices of :meth:`range_batch_flat`."""
        return per_request(*self.range_batch_flat(centers, radii))

    def range_batch_flat(
        self, centers: Probes, radii: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Answer a batch of RANGE queries, response assembled in one pass.

        ``centers`` is a sequence of :class:`Point` or a ``(P, 2)`` array,
        checked first.  Returns ``(mbrs, oids, bounds)`` in CSR form:
        the concatenated payloads of all probes in probe order, probe ``i``
        owning rows ``bounds[i]:bounds[i+1]`` (``len(bounds) == P + 1``).
        The payload is one take of the entry rows the index descent matched.
        """
        return self.evaluate_range_batch(centers, radii)

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
        return answer.mbrs, answer.oids, answer.probes()

    def average_mbr_area(self, window: Rect) -> float:
        """Scalar aggregate: the average object-MBR area inside ``window``."""
        return average_mbr_area(self.index, window)
