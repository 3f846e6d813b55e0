"""Join execution results and traces.

A :class:`JoinResult` is what every algorithm returns: the qualifying pairs
(and, for semi-joins, the qualifying objects), the measured transfer bytes
broken down per server and per direction, the operator bookkeeping, and an
optional step-by-step trace that the examples print and the tests inspect.

The trace is kept as the columns it was decided from and becomes objects
only when read.  Every row is a row of a :class:`LevelTrace` -- a level's
``(N, 4)`` windows plus one :class:`TraceBatch` per recording call (window
indices, action, detail template and its argument columns, counts); a
run's ``start`` row is a table of one -- and :attr:`JoinResult.trace` is a
:class:`Trace`: those tables concatenated into one read-only
``Sequence[TraceEvent]``.  An event, its :class:`Rect` and its
detail string are built when indexed or iterated, details from
``.tolist()`` Python numbers; ``len`` builds nothing.  The tables hold
arrays, strings and numbers only, so a result pins no algorithm, table or
device, and pickles.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from typing import AbstractSet, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.join_types import JoinSpec
from repro.geometry.rect import Rect
from repro.index.pairs import PairSet

__all__ = ["JoinResult", "LevelTrace", "Trace", "TraceBatch", "TraceEvent"]


@dataclass(frozen=True)
class TraceEvent:
    """One planning or execution step of an algorithm."""

    depth: int
    window: Rect
    action: str
    detail: str = ""
    count_r: Optional[int] = None
    count_s: Optional[int] = None

    def format(self) -> str:
        indent = "  " * self.depth
        counts = ""
        if self.count_r is not None or self.count_s is not None:
            counts = f" |Rw|={self.count_r} |Sw|={self.count_s}"
        detail = f" ({self.detail})" if self.detail else ""
        return f"{indent}{self.action}{counts}{detail} @ {self.window}"


class TraceBatch(NamedTuple):
    """One recording call of a level table: a row per window of ``idx``."""

    idx: np.ndarray
    action: str
    #: A ``str.format`` template over ``columns`` (verbatim without them).
    detail: str
    columns: Tuple[np.ndarray, ...]
    count_r: Optional[np.ndarray]
    count_s: Optional[np.ndarray]

    def rows(self) -> Iterator[tuple]:
        """``(window index, action, detail, count_r, count_s)`` of every row."""
        details = repeat(self.detail)
        if self.columns:
            values = zip(*(column.tolist() for column in self.columns))
            details = [self.detail.format(*row) for row in values]
        counts = (repeat(None) if c is None else c.tolist() for c in (self.count_r, self.count_s))
        return zip(self.idx.tolist(), repeat(self.action), details, *counts)

    def row(self, r: int) -> tuple:
        """Row ``r`` alone (what :meth:`rows` yields ``r``-th)."""
        detail = self.detail
        if self.columns:
            detail = detail.format(*(column[r].item() for column in self.columns))
        counts = (None if c is None else c[r].item() for c in (self.count_r, self.count_s))
        return (int(self.idx[r]), self.action, detail, *counts)


class _Events(SequenceABC):
    """A read-only ``Sequence[TraceEvent]`` whose events are built on read."""

    __slots__ = ()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._event(k) for k in range(len(self))[index]]
        k = operator.index(index)
        if not -len(self) <= k < len(self):
            raise IndexError("trace index out of range")
        return self._event(k % len(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, _Events)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only; copy it with list() first")

    append = extend = insert = remove = pop = clear = sort = reverse = _read_only


class LevelTrace(_Events):
    """The trace rows of one frontier level, as recorded.

    Row ``k`` is batch row ``order[k]`` of the concatenated ``batches``:
    ``order`` sorts their window indices stably, so windows follow level
    order and each window's own rows keep their recording order -- the
    per-depth log of a depth-first execution.
    """

    __slots__ = ("depth", "windows", "batches", "order", "_starts")

    def __init__(self, depth: int, windows: np.ndarray, batches: Sequence[TraceBatch]) -> None:
        self.depth = depth
        self.windows = windows
        self.batches = tuple(batches)
        self._starts = [0, *accumulate(batch.idx.size for batch in self.batches)]
        where = [batch.idx for batch in self.batches]
        self.order = np.argsort(np.concatenate(where or [np.empty(0, np.intp)]), kind="stable")

    def __len__(self) -> int:
        return self._starts[-1]

    def _event(self, k: int) -> TraceEvent:
        j = int(self.order[k])
        b = bisect_right(self._starts, j) - 1
        i, *rest = self.batches[b].row(j - self._starts[b])
        return TraceEvent(self.depth, Rect(*self.windows[i].tolist()), *rest)

    def __iter__(self) -> Iterator[TraceEvent]:
        rows = [row for batch in self.batches for row in batch.rows()]
        windows, depth = self.windows.tolist(), self.depth
        for i, *rest in map(rows.__getitem__, self.order.tolist()):
            yield TraceEvent(depth, Rect(*windows[i]), *rest)


class Trace(_Events):
    """A join's decision log: its level tables, in order."""

    __slots__ = ("_parts", "_ends")

    def __init__(self, parts: Sequence[Sequence[TraceEvent]] = ()) -> None:
        self._parts = tuple(parts)
        self._ends = list(accumulate(map(len, self._parts)))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def _event(self, k: int) -> TraceEvent:
        p = bisect_right(self._ends, k)
        return self._parts[p][k - (self._ends[p - 1] if p else 0)]

    def __iter__(self) -> Iterator[TraceEvent]:
        return chain.from_iterable(self._parts)


@dataclass
class JoinResult:
    """The outcome of one ad-hoc distributed spatial join execution."""

    algorithm: str
    spec: JoinSpec
    #: Deduplicated qualifying pairs ``(r_oid, s_oid)``, a read-only view
    #: over their sorted ``(k, 2)`` block (other pairs given are turned into one).
    pairs: PairSet = field(default_factory=PairSet)
    #: Qualifying R objects (iceberg / semi-join answers only).
    objects: List[int] = field(default_factory=list)
    #: Measured wire bytes, total and per server.
    total_bytes: int = 0
    bytes_r: int = 0
    bytes_s: int = 0
    #: Tariff-weighted cost (equals total_bytes when both tariffs are 1).
    total_cost: float = 0.0
    #: Estimated wall-clock seconds over the 802.11b link model.
    estimated_time_s: float = 0.0
    #: Operator and query bookkeeping.
    operator_counts: Dict[str, int] = field(default_factory=dict)
    server_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    channel_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    buffer_high_water_mark: int = 0
    #: Step-by-step decision trace (every run records one).
    trace: Sequence[TraceEvent] = field(default_factory=Trace)
    #: Retry/fault counters and retry-lane traffic of a fault-injected run
    #: (``None`` when the session ran without a fault plan).  Never part of
    #: the paper's transfer figures -- those read the primary lane only.
    resilience: Optional[Dict] = None

    def __post_init__(self) -> None:
        if not isinstance(self.pairs, PairSet):
            self.pairs = PairSet(self.pairs)

    # ------------------------------------------------------------------ #

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    @property
    def num_objects(self) -> int:
        return len(self.objects)

    def sorted_pairs(self) -> List[Tuple[int, int]]:
        """Qualifying pairs in deterministic order."""
        return list(self.pairs)

    def matches_pairs(self, expected: AbstractSet[Tuple[int, int]]) -> bool:
        """Exact-answer check against an oracle pair set."""
        return self.pairs == set(expected)

    def summary(self) -> str:
        """A one-paragraph human-readable summary."""
        lines = [
            f"algorithm      : {self.algorithm}",
            f"query          : {self.spec.describe()}",
            f"result pairs   : {self.num_pairs}",
        ]
        if self.spec.is_semi_join:
            lines.append(f"result objects : {self.num_objects}")
        lines += [
            f"total bytes    : {self.total_bytes}",
            f"  server R     : {self.bytes_r}",
            f"  server S     : {self.bytes_s}",
            f"total cost     : {self.total_cost:.1f}",
            f"est. time      : {self.estimated_time_s:.3f} s",
            f"buffer peak    : {self.buffer_high_water_mark}",
        ]
        if self.operator_counts:
            ops = ", ".join(f"{k}={v}" for k, v in sorted(self.operator_counts.items()))
            lines.append(f"operators      : {ops}")
        return "\n".join(lines)

    def format_trace(self, max_events: Optional[int] = None) -> str:
        """The execution trace as indented text."""
        events = self.trace if max_events is None else self.trace[:max_events]
        return "\n".join(ev.format() for ev in events)
