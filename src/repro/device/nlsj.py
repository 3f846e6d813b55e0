"""NLSJ -- the nested-loop spatial join physical operator.

``NLSJ(w)`` downloads all objects of the *outer* dataset in the window and,
for each of them, probes the other server with an epsilon-RANGE query
centred on the object (Section 3: "for each hotel apply a window query on S
to find the matching restaurants").  The bucket variant ships all probes in
one request, saving per-probe TCP/IP header overhead (Section 3.1,
Eqs. 5-6).

Window semantics follow the anchored-at-R scheme shared with HBSJ: when the
outer relation is R the outer download uses the unexpanded window; when the
outer relation is S the outer download uses the window expanded by epsilon
(so that S objects just outside the cell that still pair with R objects
inside it are probed).  Candidates returned by a probe are always verified
with the exact predicate, and the R partner of a reported pair must
intersect the unexpanded window, which keeps partitioned executions exact;
pairs rediscovered by neighbouring cells are deduplicated globally.

NLSJ never holds more than the outer window in device memory and therefore
has no buffer feasibility constraint in the paper's model; the outer
objects are still charged against the buffer (capped at its capacity) so
the high-water mark stays meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.device.buffer import DeviceBuffer, capacity, hold_each_in_turn
from repro.device.steps import BUCKET, RANGE, WINDOW, OperatorTable, Request, Shared, Steps
from repro.geometry import rect_array
from repro.geometry.predicates import JoinPredicate, WithinDistancePredicate
from repro.geometry.rect import Rect
from repro.index.pairs import PairBlocks

__all__ = [
    "NLSJColumns",
    "NLSJRequest",
    "NLSJResult",
    "NLSJTable",
    "nested_loop_spatial_join_steps",
]


@dataclass(frozen=True)
class NLSJRequest:
    """One NLSJ invocation requested from the batch executor."""

    window: Rect
    outer: str = "S"


@dataclass
class NLSJResult:
    """Outcome of one NLSJ invocation (``pairs`` in discovery order)."""

    pairs: PairBlocks = field(default_factory=PairBlocks)
    outer: str = "R"
    outer_objects: int = 0
    probes_sent: int = 0
    bucket_queries: int = 0
    inner_objects_received: int = 0


class NLSJColumns(NamedTuple):
    """Many NLSJ invocations as columns: what the operator body runs on."""

    #: ``(N, 4)`` windows.
    windows: np.ndarray
    #: ``(N,)`` ``bool``: the outer relation is S.
    outer_s: np.ndarray
    #: ``(N,)`` ascending query of every invocation in its query group
    #: (``None``: all are the group's first query's).
    query: Optional[np.ndarray] = None

    @classmethod
    def of(cls, requests: "NLSJRequests") -> "NLSJColumns":
        """The columns of a request list (columns pass through)."""
        if isinstance(requests, cls):
            return requests
        outers = [req.outer.upper() for req in requests]
        if any(outer not in ("R", "S") for outer in outers):
            raise ValueError("outer must be 'R' or 'S'")
        return cls(
            rect_array.rects_to_array([req.window for req in requests]),
            np.array([outer == "S" for outer in outers], dtype=bool),
        )


NLSJRequests = Union[NLSJColumns, Sequence[NLSJRequest]]


class NLSJTable(OperatorTable):
    """The outcomes of many NLSJ invocations; a ``Sequence[NLSJResult]``."""

    counters = tuple(f.name for f in fields(NLSJResult))[2:]  # all but ``pairs``, ``outer``

    def __init__(self, outer_s: np.ndarray) -> None:
        super().__init__(outer_s.shape[0])
        self.outer_s = outer_s

    def result(self, i: int, pairs, **counters: int) -> NLSJResult:
        return NLSJResult(pairs, "S" if self.outer_s[i] else "R", **counters)


def nested_loop_spatial_join_steps(
    requests: NLSJColumns,
    predicate: JoinPredicate,
    buffers: Sequence[Optional[DeviceBuffer]],
    bucket: bool = False,
) -> Steps:
    """The NLSJ operator for many invocations, as a step generator.

    ``requests`` are the invocations' columns, their query column filled
    in (:class:`~repro.device.pda.DeviceGroup`); the body returns an
    :class:`NLSJTable`.  Per-invocation results and the wire bytes are
    those of running the invocations one at a time (pinned against
    ``tests/oracles/operators_scalar.py``).  Two steps
    (:mod:`repro.device.steps`): the outer downloads, one WINDOW request per
    outer server; then the epsilon probes -- centres and radii of a whole
    download computed in one pass -- as one RANGE request per inner server
    (each probe still its own exchange) or, bucket queries, one BUCKET
    request per invocation (merging them would change the wire payloads).
    Either way all candidates of a download are verified at once.

    The invocations are a query group's (see
    :func:`~repro.device.hbsj.hash_based_spatial_join_steps`): every step is
    :class:`~repro.device.steps.Shared` (a bucket request carries one
    invocation's probes) and the outer objects are held on the buffer of
    their query.
    """
    windows, outer_s, query = requests
    table = NLSJTable(outer_s)

    # Outer downloads: one WINDOW request per outer server (the window
    # rule's windows of the cells), invocation order preserved.
    step, asked = [], []
    for side, idxs in (("R", np.flatnonzero(~outer_s)), ("S", np.flatnonzero(outer_s))):
        if idxs.size:
            step.append(Request(WINDOW, side, (predicate.request_windows(side, windows[idxs]),)))
            asked.append((side, idxs))
    if not step:
        return table
    outers: List[_Outer] = []
    rows = [query[idxs] for _, idxs in asked]
    for (side, idxs), (mbrs, oids, bounds) in zip(asked, (yield Shared(step, rows))):
        table.outer_objects[idxs] = table.probes_sent[idxs] = np.diff(bounds)
        if mbrs.shape[0]:
            outers.append(_Outer(side, idxs, mbrs, oids, bounds, predicate))
    if not outers:
        return table

    # Probes: every outer object's, per download; the inner server of outer
    # R is S and the other way round.  Either protocol's answers become, per
    # download, the candidate rows and the outer row whose probe found each.
    if bucket:
        # One BUCKET request per non-empty invocation, in invocation order.
        buckets = sorted(
            (int(i), outer, lo, hi, radius)
            for outer in outers
            for i, lo, hi, radius in zip(*outer.buckets())
        )
        table.bucket_queries[[i for i, *_ in buckets]] = 1
        step = [
            Request(BUCKET, outer.inner, (outer.centers[lo:hi], radius, outer.radii[lo:hi]))
            for _, outer, lo, hi, radius in buckets
        ]
        rows = [np.full(hi - lo, query[i]) for i, _, lo, hi, _ in buckets]
        answers = yield Shared(step, rows)
        # A BUCKET answer's probes are counted from the invocation's first
        # outer row.
        candidates = []
        for outer in outers:
            mine = [
                (answer.mbrs, answer.oids, answer.probes() + lo)
                for (_, its, lo, _, _), answer in zip(buckets, answers)
                if its is outer
            ]
            candidates.append([np.concatenate(column) for column in zip(*mine)])
        held = table.outer_objects
        held_by = query
    else:
        # One RANGE request per inner server; its answer is flat (one
        # concatenated payload in probe order).
        step = [Request(RANGE, outer.inner, (outer.centers, outer.radii)) for outer in outers]
        answers = yield Shared(step, [query[outer.owner] for outer in outers])
        candidates = [(answer.mbrs, answer.oids, answer.probes()) for answer in answers]
        held = np.concatenate([outer.sizes for outer in outers])
        held_by = np.concatenate([query[o.idxs] for o in outers])
    for outer, (cand_mbrs, cand_oids, probe_idx) in zip(outers, candidates):
        table.inner_objects_received += np.bincount(outer.owner[probe_idx], minlength=table.n)
        table.add_pairs(*outer.verify(windows, cand_mbrs, cand_oids, probe_idx, predicate))
    # Each invocation holds its outer objects (capped) while it is verified.
    live = held > 0
    hold_each_in_turn(buffers, np.minimum(held[live], capacity(buffers)), held_by[live])
    return table


class _Outer:
    """The outer download of one server: the objects of all its invocations
    back to back, and one probe per object."""

    def __init__(self, side, idxs, mbrs, oids, bounds, predicate: JoinPredicate) -> None:
        self.side = side
        self.inner = "S" if side == "R" else "R"
        #: The invocations this server is the outer relation of; invocation
        #: ``idxs[k]`` owns rows ``bounds[k]:bounds[k + 1]``.
        self.idxs = idxs
        self.mbrs, self.oids, self.bounds = mbrs, oids, bounds
        self.sizes = np.diff(bounds)
        #: The invocation of every outer row.
        self.owner = np.repeat(idxs, self.sizes)
        self.centers, self.radii = _probe_geometry(mbrs, predicate)

    def buckets(self):
        """``(invocation, first row, end row, bucket radius)`` columns of the
        non-empty invocations; the radius is the one that covers every probe
        of the bucket, its largest."""
        live = np.flatnonzero(self.sizes)
        lo = self.bounds[live]
        reach = np.maximum.reduceat(self.radii, lo)
        return self.idxs[live], lo.tolist(), self.bounds[live + 1].tolist(), reach.tolist()

    def verify(
        self,
        windows: np.ndarray,
        cand_mbrs: np.ndarray,
        cand_oids: np.ndarray,
        probe_idx: np.ndarray,
        predicate: JoinPredicate,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Verify probe candidates over offset arrays; the qualifying
        ``(r, s)`` block and the invocation of every row.

        ``probe_idx`` assigns every candidate row to the outer object whose
        probe returned it.  The exact-predicate arithmetic is the minimum
        MBR separation of the epsilon-cell kernel, term for term.  The R partner of every
        reported pair must intersect its invocation's unexpanded window:
        checked on the outer rows when the outer relation is R, on each
        candidate when it is S, so a partitioned execution assigns every
        pair to at least the cell(s) the R object touches and never to
        unrelated cells.
        """
        a = self.mbrs[probe_idx]
        dx = np.maximum(np.maximum(a[:, 0] - cand_mbrs[:, 2], 0.0), cand_mbrs[:, 0] - a[:, 2])
        dy = np.maximum(np.maximum(a[:, 1] - cand_mbrs[:, 3], 0.0), cand_mbrs[:, 1] - a[:, 3])
        if isinstance(predicate, WithinDistancePredicate):
            eps = predicate.probe_radius()
            mask = dx * dx + dy * dy <= eps * eps
        else:
            mask = (dx <= 0.0) & (dy <= 0.0)
        if self.side == "R":
            mask &= _intersect(self.mbrs, windows[self.owner])[probe_idx]
        else:
            mask &= _intersect(cand_mbrs, windows[self.owner[probe_idx]])
        matched = probe_idx[mask]
        columns = (self.oids[matched], cand_oids[mask])
        return np.column_stack(columns if self.side == "R" else columns[::-1]), self.owner[matched]


def _intersect(mbrs: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Row by row: the MBR intersects the (closed) window beside it."""
    return ~(
        (mbrs[:, 2] < windows[:, 0])
        | (mbrs[:, 0] > windows[:, 2])
        | (mbrs[:, 3] < windows[:, 1])
        | (mbrs[:, 1] > windows[:, 3])
    )


def _probe_geometry(
    outer_mbrs: np.ndarray, predicate: JoinPredicate
) -> Tuple[np.ndarray, np.ndarray]:
    """``(P, 2)`` centres and ``(P,)`` radii of the range probes for the outer objects.

    Each probe is centred on its object's MBR centre with radius
    ``predicate.probe_radius()`` plus the half diagonal of the MBR, so no
    candidate is missed regardless of object extent (candidates are
    verified with the exact predicate afterwards); a single shared radius
    would blow up responses when a few outer objects (long railway
    segments, say) are much larger than the rest.  For intersection joins
    ``probe_radius()`` is zero and the probe covers just the MBR itself.
    """
    x0, y0, x1, y1 = outer_mbrs.T
    centers = np.column_stack(((x0 + x1) / 2.0, (y0 + y1) / 2.0))
    return centers, predicate.probe_radius() + 0.5 * np.hypot(x1 - x0, y1 - y0)
