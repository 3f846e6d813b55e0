"""The result cache of the query service.

Identical queries are executed once.  "Identical" is decided by a
content-derived key covering everything that determines a join's pairs and
bytes:

* the two datasets (name, cardinality and a digest of the MBR/oid arrays
  -- two dataset *objects* holding the same rows share cache entries; the
  digest covers dtype and shape as well as the raw bytes, so two arrays
  that merely serialize to the same byte string never collide),
* the join spec,
* the algorithm that actually runs (post plan-selection),
* the device/network configuration: buffer size, algorithm parameters,
  joined window and wire constants.

Dataset digests are memoised on the dataset object itself (datasets are
immutable, their arrays write-locked at construction -- the same idiom as
``SpatialDataset.entries()``), so hashing the arrays happens once per
dataset rather than once per query.

Cache hits return the *same* :class:`~repro.core.result.JoinResult` object
the original execution produced -- but that object is **deep-frozen** at
:meth:`ResultCache.put`: its mutable containers become read-only views
that raise on mutation, next to the pair set, which already is one
(:func:`freeze_result`).  One caller mutating a hit can therefore never
poison what the next caller is served.

The cache is safe to share between brokers and the threads that run
them: ``get``/``put``/``clear`` and the
hit/miss/eviction counters are guarded by one lock, and eviction is LRU --
a hit refreshes an entry's recency (``OrderedDict.move_to_end``), so a hot
result survives a long tail of one-shot queries.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.result import JoinResult, Trace
from repro.datasets.dataset import SpatialDataset
from repro.errors import require_count
from repro.index.pairs import PairSet
from repro.service.query import JoinQuery

__all__ = [
    "FrozenDict",
    "FrozenList",
    "ResultCache",
    "dataset_token",
    "freeze_result",
    "query_key",
    "result_weight",
]


# --------------------------------------------------------------------------- #
# read-only containers + result freezing
# --------------------------------------------------------------------------- #


def _refuse_mutation(self, *args, **kwargs):
    raise TypeError(
        f"{type(self).__name__} belongs to a cached JoinResult and is "
        "read-only; copy it before modifying"
    )


class FrozenList(list):
    """A list that raises on every mutating operation.

    Unlike a tuple it still *equals* the plain list a standalone execution
    produces (``FrozenList([1]) == [1]``), which is what lets the
    equivalence suite compare cached results field-for-field against
    uncached references.
    """

    __setitem__ = __delitem__ = _refuse_mutation
    append = extend = insert = remove = pop = clear = _refuse_mutation
    sort = reverse = __iadd__ = __imul__ = _refuse_mutation


class FrozenDict(dict):
    """A dict that raises on every mutating operation (equality preserved)."""

    __setitem__ = __delitem__ = _refuse_mutation
    update = pop = popitem = clear = setdefault = __ior__ = _refuse_mutation


def _freeze_stats(mapping) -> FrozenDict:
    return FrozenDict(
        (key, FrozenDict(value) if isinstance(value, dict) else value)
        for key, value in mapping.items()
    )


def _freeze_deep(value):
    """Recursively freeze nested dict/list containers (tuples kept as-is).

    The resilience summary nests dicts inside dicts (per-server retry
    bytes, per-server fault-event tuples); one-level freezing is not
    enough there.
    """
    if isinstance(value, dict):
        return FrozenDict((k, _freeze_deep(v)) for k, v in value.items())
    if isinstance(value, list):
        return FrozenList(_freeze_deep(v) for v in value)
    return value


def freeze_result(result: JoinResult) -> JoinResult:
    """Deep-freeze a result in place; returns the same object.

    Every container field is replaced by a read-only equivalent that still
    compares equal to its mutable twin: lists become :class:`FrozenList`,
    dicts become :class:`FrozenDict` (nested one level for the per-server
    stats); the pairs, a read-only :class:`~repro.index.pairs.PairSet`
    view, and the trace, a read-only lazy
    :class:`~repro.core.result.Trace`, are kept as they are.  Freezing in place
    keeps object identity: the outcome handed to the executing query and
    every later cache hit share one immutable result, so ``hit.result is
    original.result`` stays true while ``hit.result.pairs.add(...)`` (and
    friends) raise instead of silently corrupting all future hits.
    Idempotent.
    """
    if getattr(result, "_frozen", False):
        return result
    if not isinstance(result.pairs, PairSet):
        result.pairs = PairSet(result.pairs)
    result.objects = FrozenList(result.objects)
    result.operator_counts = FrozenDict(result.operator_counts)
    result.server_stats = _freeze_stats(result.server_stats)
    result.channel_stats = _freeze_stats(result.channel_stats)
    if not isinstance(result.trace, Trace):
        result.trace = FrozenList(result.trace)
    if result.resilience is not None:
        result.resilience = _freeze_deep(result.resilience)
    result._frozen = True
    return result


# --------------------------------------------------------------------------- #
# content-derived keys
# --------------------------------------------------------------------------- #


def _array_digest(arr: np.ndarray) -> str:
    """SHA-1 of one array's dtype, shape *and* bytes.

    Hashing ``tobytes()`` alone would let two arrays with identical byte
    strings but different dtype or shape (e.g. 4 float64 zeros vs 8
    float32 zeros) share a digest -- a cache-poisoning collision once the
    digest feeds a result-cache key.
    """
    h = hashlib.sha1()
    h.update(str(arr.dtype.str).encode("ascii"))
    h.update(repr(tuple(arr.shape)).encode("ascii"))
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def dataset_token(dataset: SpatialDataset) -> Tuple:
    """A hashable content token of one dataset.

    ``(name, n, digest(mbrs), digest(oids))`` -- stable across dataset
    objects holding the same rows, memoised on the (immutable) dataset so
    each one is digested once.  The digests cover dtype and shape, not just
    the raw bytes.  The memo write is an idempotent benign race under
    concurrent callers: both threads compute the same token.
    """
    token = dataset.__dict__.get("_service_token_cache")
    if token is None:
        token = (
            dataset.name,
            len(dataset),
            _array_digest(dataset.mbrs),
            _array_digest(dataset.oids),
        )
        object.__setattr__(dataset, "_service_token_cache", token)
    return token


def query_key(query: JoinQuery, algorithm: str, default_config) -> Tuple:
    """The full cache key of one query under its resolved algorithm.

    ``default_config`` is the broker's network config, substituted when the
    query does not carry its own -- two queries differing only in *where*
    the config came from must share an entry.
    """
    config = query.config if query.config is not None else default_config
    return (
        dataset_token(query.dataset_r),
        dataset_token(query.dataset_s),
        query.spec,
        algorithm.lower(),
        query.buffer_size,
        query.resolved_params(),
        query.resolved_window().as_tuple(),
        config,
        # The whole stack description.  A fault-injected run's primary lane
        # is pinned bit-identical to the fault-free run, but its resilience
        # summary (and failure mode) is not; sharding changes byte totals
        # and per-shard ledgers, replication the per-replica detail (none
        # of them the pairs) -- so queries differing in any one knob are
        # distinct results.
        query.stack,
    )


# --------------------------------------------------------------------------- #
# the cache proper
# --------------------------------------------------------------------------- #


def result_weight(result: JoinResult) -> int:
    """Deterministic byte-weight estimate of one stored result payload.

    The simulation has no serialized result form, so the byte budget is
    charged against a stable structural estimate: a fixed per-entry
    overhead plus the dominant variable-size payloads (join pairs, shipped
    result objects, trace events).  The exact constants matter less than
    determinism -- the same result always weighs the same, so eviction
    order is reproducible.
    """
    pairs = len(result.pairs) if result.pairs is not None else 0
    objects = len(result.objects) if result.objects is not None else 0
    trace = len(result.trace) if result.trace is not None else 0
    return 256 + 16 * pairs + 48 * objects + 64 * trace


class ResultCache:
    """A keyed LRU store of finished join results with hit/miss accounting.

    ``max_entries`` bounds the store for long-lived brokers: when full, the
    least-recently-*used* entry is evicted (a hit refreshes recency, so a
    hot result outlives any number of one-shot queries).  ``max_bytes``
    adds a size-aware budget over the stored result payloads (weighed by
    :func:`result_weight`): after an insert, least-recently-used entries
    are dropped until the store fits, always keeping the entry just
    inserted (a single oversized result is cached alone rather than
    rejected).  ``None`` means unbounded on either axis; both bounds may be
    active at once.  All operations and counters are lock-guarded, so one
    cache can back several brokers running batches on different threads.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        metrics=None,
    ) -> None:
        require_count(max_entries, "max_entries", unbounded=True)
        require_count(max_bytes, "max_bytes", unbounded=True)
        self.enabled = enabled
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes_stored = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, JoinResult]" = OrderedDict()
        self._weights: Dict[Tuple, int] = {}
        # Optional observability counters (repro.obs.MetricsRegistry);
        # instruments are created once here so the per-get cost is a None
        # check plus one counter bump.
        self._m_hits = self._m_misses = self._m_evictions = None
        self._m_bytes = None
        if metrics is not None:
            self._m_hits = metrics.counter(
                "repro_cache_hits_total", "Result-cache hits"
            )
            self._m_misses = metrics.counter(
                "repro_cache_misses_total", "Result-cache misses"
            )
            self._m_evictions = metrics.counter(
                "repro_cache_evictions_total", "Result-cache evictions"
            )
            self._m_bytes = metrics.gauge(
                "repro_cache_bytes", "Result-cache stored payload weight"
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Tuple) -> Optional[JoinResult]:
        if not self.enabled:
            return None
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
                if self._m_misses is not None:
                    self._m_misses.inc()
            else:
                self.hits += 1
                if self._m_hits is not None:
                    self._m_hits.inc()
                self._entries.move_to_end(key)
            return result

    def put(self, key: Tuple, result: JoinResult) -> JoinResult:
        """Freeze and store one result; returns the (frozen) result.

        Results are deep-frozen *before* insertion -- every later hit
        aliases the stored object, so the store must never hand out
        anything mutable.  Re-putting an existing key refreshes its recency
        and replaces the value without counting an eviction; ``evictions``
        counts exactly the entries dropped by the size bound.
        """
        if not self.enabled:
            return result
        frozen = freeze_result(result)
        weight = result_weight(frozen)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.bytes_stored -= self._weights[key]
            elif (
                self.max_entries is not None
                and len(self._entries) >= self.max_entries
            ):
                self._evict_oldest()
            self._entries[key] = frozen
            self._weights[key] = weight
            self.bytes_stored += weight
            if self.max_bytes is not None:
                # Size-aware pass: shed LRU entries until the byte budget
                # holds, but never the entry just inserted.
                while self.bytes_stored > self.max_bytes and len(self._entries) > 1:
                    self._evict_oldest()
            if self._m_bytes is not None:
                self._m_bytes.set(self.bytes_stored)
        return frozen

    def _evict_oldest(self) -> None:
        """Drop the least-recently-used entry (lock held by caller)."""
        old_key, _ = self._entries.popitem(last=False)
        self.bytes_stored -= self._weights.pop(old_key)
        self.evictions += 1
        if self._m_evictions is not None:
            self._m_evictions.inc()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._weights.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.bytes_stored = 0
