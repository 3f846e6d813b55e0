"""Deterministic span tracing for the join/service/fleet stack.

A :class:`Tracer` records a tree of spans over one run -- broker batches
and their waves, plan selection, per-query joins, frontier rounds, coalesced
COUNT exchanges, operator-leaf batches, result merges -- plus instant events
for retries, failovers, breaker transitions and cache hits.  Two properties
make it useful in a reproduction whose test suites pin bit-identity:

* **Deterministic identity.**  A span's id is a hash of its parent's id,
  its name and its labels (plus a duplicate counter for identically
  labelled siblings) -- never a wall-clock reading, an object id or a
  thread ident.  Instrumentation labels every sibling distinctly (round
  and batch indexes, server names, tickets), so the id set of a run is a
  pure function of the workload: the same seed and queries produce the
  same span tree under any wave width, and :func:`trace_fingerprint`
  digests exactly the deterministic fields (ids, names, labels,
  annotations, simulated-time stamps, event sequences) into one stable
  hex string.
* **Zero overhead when off.**  The module-level :data:`NULL_TRACER` is the
  default everywhere; its ``enabled`` attribute is ``False`` and every
  instrumentation site guards on that one attribute read, so a run without
  a tracer attached stays on the pre-observability hot paths.

Spans carry **both clocks**: wall-clock ``perf_counter`` stamps (exported
to Chrome trace-event JSON, loadable in Perfetto / ``chrome://tracing``)
and optional simulated-time stamps read off the resilience controller's
deterministic clock (included in the fingerprint; wall times never are).
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "NULL_TRACER",
    "NullSpan",
    "NullTracer",
    "Span",
    "Tracer",
    "span_tree",
    "to_chrome_trace",
    "trace_fingerprint",
]


def _canonical_labels(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    """Labels as a sorted tuple of string pairs (hashable, deterministic)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _span_id(
    parent_id: Optional[str],
    name: str,
    labels: Tuple[Tuple[str, str], ...],
    dup: int,
) -> str:
    """The deterministic span id: a hash of the span's logical identity."""
    h = hashlib.sha1()
    h.update((parent_id or "").encode("utf-8"))
    h.update(b"|")
    h.update(name.encode("utf-8"))
    h.update(repr(labels).encode("utf-8"))
    h.update(str(dup).encode("ascii"))
    return h.hexdigest()[:16]


class NullSpan:
    """Inert span handle handed out by the no-op tracer."""

    __slots__ = ()
    enabled = False

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def child(self, name: str, sim: Optional[float] = None, **labels) -> "NullSpan":
        return self

    def event(self, name: str, sim: Optional[float] = None, **labels) -> None:
        return None

    def annotate(self, **labels) -> None:
        return None

    def close(self, sim: Optional[float] = None) -> None:
        return None


NULL_SPAN = NullSpan()


class NullTracer:
    """The default tracer: disabled, and every operation a no-op.

    Instrumentation sites guard on :attr:`enabled`, so the cost of the
    disabled path is one attribute read per site; ``BENCHMARK.json``'s
    ``obs.enabled_overhead`` measures the enabled one.
    """

    __slots__ = ()
    enabled = False

    def span(
        self, name: str, parent=None, sim: Optional[float] = None, **labels
    ) -> NullSpan:
        return NULL_SPAN

    def spans(self) -> List["Span"]:
        return []

    def clear(self) -> None:
        return None

    def fingerprint(self) -> str:
        return trace_fingerprint([])

    def to_chrome(self) -> Dict[str, object]:
        return to_chrome_trace([])


NULL_TRACER = NullTracer()


class Span:
    """One live span: explicit parenting, deterministic id, two clocks.

    Handles are context managers (``with tracer.span(...)``) but also close
    explicitly via :meth:`close` -- the frontier engine opens round spans
    before yielding a COUNT round outward and closes them when the answers
    come back, which no ``with`` block can straddle.

    ``labels`` are fixed at creation and participate in the span id;
    :meth:`annotate` attaches outcome facts (status, byte totals) that are
    part of the fingerprint but not the identity.  Events append in the
    owning query's execution order, which is deterministic per span.
    """

    __slots__ = (
        "_tracer",
        "span_id",
        "parent_id",
        "name",
        "labels",
        "annotations",
        "wall_start",
        "wall_end",
        "sim_start",
        "sim_end",
        "events",
        "tid",
    )

    enabled = True

    def __init__(
        self,
        tracer: "Tracer",
        span_id: str,
        parent_id: Optional[str],
        name: str,
        labels: Tuple[Tuple[str, str], ...],
        sim: Optional[float],
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.labels = labels
        self.annotations: Dict[str, str] = {}
        self.wall_start = time.perf_counter()
        self.wall_end: Optional[float] = None
        self.sim_start = sim
        self.sim_end: Optional[float] = None
        #: ``(name, labels, wall_ts, sim_ts)`` in emission order.
        self.events: List[Tuple[str, Tuple[Tuple[str, str], ...], float, Optional[float]]] = []
        self.tid = threading.get_ident()

    def child(self, name: str, sim: Optional[float] = None, **labels) -> "Span":
        return self._tracer.span(name, parent=self, sim=sim, **labels)

    def event(self, name: str, sim: Optional[float] = None, **labels) -> None:
        self.events.append(
            (name, _canonical_labels(labels), time.perf_counter(), sim)
        )

    def annotate(self, **labels) -> None:
        for key, value in labels.items():
            self.annotations[str(key)] = str(value)

    def close(self, sim: Optional[float] = None) -> None:
        """Seal the span (idempotent); records the end stamps."""
        if self.wall_end is None:
            self.wall_end = time.perf_counter()
            self.sim_end = sim

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


class Tracer:
    """A thread-safe collector of spans with deterministic identity.

    One tracer per run (standalone session or broker); spans parent
    explicitly through :meth:`Span.child` / the ``parent`` argument, so
    concurrent threads never race on an implicit "current span".
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        #: Duplicate counters keyed by ``(parent_id, name, labels)`` -- the
        #: collision valve for identically labelled siblings.  The
        #: instrumentation keeps siblings label-distinct, so under the
        #: shipped hooks every key stays at 0 and ids are independent of
        #: cross-thread creation order.
        self._dups: Dict[Tuple, int] = {}

    def span(
        self, name: str, parent=None, sim: Optional[float] = None, **labels
    ) -> Span:
        labels_t = _canonical_labels(labels)
        parent_id = getattr(parent, "span_id", None)
        key = (parent_id, name, labels_t)
        with self._lock:
            dup = self._dups.get(key, 0)
            self._dups[key] = dup + 1
            span = Span(
                self, _span_id(parent_id, name, labels_t, dup),
                parent_id, name, labels_t, sim,
            )
            self._spans.append(span)
        return span

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dups.clear()

    def fingerprint(self) -> str:
        return trace_fingerprint(self.spans())

    def to_chrome(self) -> Dict[str, object]:
        return to_chrome_trace(self.spans())

    def span_tree(self) -> List[Dict[str, object]]:
        return span_tree(self.spans())


def trace_fingerprint(spans: List[Span]) -> str:
    """A stable SHA-256 digest over the deterministic span fields.

    Covers ids, parent links, names, labels, annotations, simulated-time
    stamps and the per-span event sequences; excludes wall-clock stamps,
    thread idents and creation order (entries are sorted by span id), so
    the same workload fingerprints identically across repeats and worker
    counts.
    """
    entries = []
    for span in spans:
        entries.append(
            (
                span.span_id,
                span.parent_id or "",
                span.name,
                span.labels,
                tuple(sorted(span.annotations.items())),
                span.sim_start,
                span.sim_end,
                tuple(
                    (index, name, labels, sim)
                    for index, (name, labels, _wall, sim) in enumerate(span.events)
                ),
            )
        )
    entries.sort()
    return hashlib.sha256(repr(entries).encode("utf-8")).hexdigest()


def to_chrome_trace(spans: List[Span]) -> Dict[str, object]:
    """Spans as a Chrome trace-event JSON document (Perfetto-loadable).

    Spans become complete (``"ph": "X"``) events with microsecond
    timestamps relative to the earliest span; instant events ride along as
    ``"ph": "i"``.  Thread idents are remapped to small stable ints in
    first-seen order of the (wall-sorted) spans.
    """
    origin = min((s.wall_start for s in spans), default=0.0)
    tids: Dict[int, int] = {}
    events: List[Dict[str, object]] = []
    for span in sorted(spans, key=lambda s: (s.wall_start, s.span_id)):
        tid = tids.setdefault(span.tid, len(tids) + 1)
        end = span.wall_end if span.wall_end is not None else span.wall_start
        args: Dict[str, object] = {k: v for k, v in span.labels}
        args.update(span.annotations)
        args["span_id"] = span.span_id
        if span.parent_id:
            args["parent_id"] = span.parent_id
        if span.sim_start is not None:
            args["sim_start_s"] = span.sim_start
        if span.sim_end is not None:
            args["sim_end_s"] = span.sim_end
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": (span.wall_start - origin) * 1e6,
                "dur": max(0.0, (end - span.wall_start) * 1e6),
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
        for index, (name, labels, wall, sim) in enumerate(span.events):
            eargs: Dict[str, object] = {k: v for k, v in labels}
            eargs["span_id"] = span.span_id
            eargs["index"] = index
            if sim is not None:
                eargs["sim_s"] = sim
            events.append(
                {
                    "name": name,
                    "cat": "repro",
                    "ph": "i",
                    "s": "t",
                    "ts": (wall - origin) * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": eargs,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_tree(spans: List[Span]) -> List[Dict[str, object]]:
    """The deterministic span tree as nested plain dicts.

    Only deterministic fields appear (no wall stamps, no thread idents)
    and children sort by span id, so two runs of the same workload produce
    ``==``-comparable trees -- the shape the determinism tests pin.
    """
    nodes: Dict[str, Dict[str, object]] = {}
    for span in spans:
        nodes[span.span_id] = {
            "span_id": span.span_id,
            "name": span.name,
            "labels": dict(span.labels),
            "annotations": dict(span.annotations),
            "sim_start": span.sim_start,
            "sim_end": span.sim_end,
            "events": [
                (name, dict(labels), sim)
                for name, labels, _wall, sim in span.events
            ],
            "children": [],
        }
    roots: List[Dict[str, object]] = []
    for span in sorted(spans, key=lambda s: s.span_id):
        node = nodes[span.span_id]
        parent = nodes.get(span.parent_id) if span.parent_id else None
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    return roots
