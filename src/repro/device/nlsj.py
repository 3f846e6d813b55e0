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

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.device.buffer import DeviceBuffer
from repro.device.steps import BUCKET, RANGE, WINDOW, Request, Steps, run_steps
from repro.geometry import rect_array
from repro.geometry.point import Point
from repro.geometry.predicates import (
    IntersectionPredicate,
    JoinPredicate,
    WithinDistancePredicate,
)
from repro.geometry.rect import Rect
from repro.index.pairs import PairBlocks
from repro.server.remote import ServerPair

__all__ = [
    "NLSJRequest",
    "NLSJResult",
    "nested_loop_spatial_join",
    "nested_loop_spatial_join_batch",
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

    def merge(self, other: "NLSJResult") -> None:
        self.pairs.extend(other.pairs)
        self.outer_objects += other.outer_objects
        self.probes_sent += other.probes_sent
        self.bucket_queries += other.bucket_queries
        self.inner_objects_received += other.inner_objects_received


def nested_loop_spatial_join(
    servers: ServerPair,
    window: Rect,
    predicate: JoinPredicate,
    buffer: DeviceBuffer,
    outer: str = "S",
    bucket: bool = False,
) -> NLSJResult:
    """Execute NLSJ on ``window``: the one-request case of the batch form.

    Parameters
    ----------
    servers:
        Metered connections to the R and S servers.
    window:
        The window to join (R-anchored; see module docstring).
    predicate:
        Join predicate; distance joins probe with radius epsilon,
        intersection joins probe with the object's own MBR extent.
    buffer:
        Device buffer (outer batch is charged against it).
    outer:
        Which dataset is downloaded and iterated: ``"R"`` or ``"S"``.  The
        paper's cost model calls these strategies ``c2`` (outer = R) and
        ``c3`` (outer = S).
    bucket:
        Use the bucket range query (one request carrying all probes).
    """
    return nested_loop_spatial_join_batch(
        servers, [NLSJRequest(window, outer)], predicate, buffer, bucket=bucket
    )[0]


def nested_loop_spatial_join_batch(
    servers: ServerPair,
    requests: Sequence[NLSJRequest],
    predicate: JoinPredicate,
    buffer: DeviceBuffer,
    bucket: bool = False,
) -> List[NLSJResult]:
    """Execute many NLSJ invocations: :func:`nested_loop_spatial_join_steps`
    driven through the query's own connections."""
    return run_steps(
        nested_loop_spatial_join_steps(requests, predicate, buffer, bucket=bucket), servers
    )


def nested_loop_spatial_join_steps(
    requests: Sequence[NLSJRequest],
    predicate: JoinPredicate,
    buffer: DeviceBuffer,
    bucket: bool = False,
) -> Steps:
    """The NLSJ operator for many invocations, as a step generator.

    The per-request results (pairs, probe/object counters) and the wire
    bytes are those of running the requests one at a time (pinned against
    ``tests/oracles/operators_scalar.py``).  Two steps (see
    :mod:`repro.device.steps`): the outer downloads, concatenated into one
    WINDOW request per outer server; then the epsilon probes of every
    request as one RANGE request per inner server (each probe still metered
    as its own exchange), verified once over offset arrays instead of once
    per probe.  Bucket queries stay one BUCKET request per invocation --
    merging them would change the wire payloads -- but share the step and
    are verified the same way.  Returns the ``List[NLSJResult]``.
    """
    outers = [req.outer.upper() for req in requests]
    if any(outer not in ("R", "S") for outer in outers):
        raise ValueError("outer must be 'R' or 'S'")
    results = [NLSJResult(outer=outer) for outer in outers]
    margin = predicate.window_margin

    # Outer downloads: one WINDOW request per outer server, invocation
    # order preserved within each.
    step, asked = [], []
    for side in ("R", "S"):
        idxs = [i for i, outer in enumerate(outers) if outer == side]
        if idxs:
            wins = [requests[i].window for i in idxs]
            if side == "S" and margin > 0:
                wins = [w.expanded(margin) for w in wins]
            step.append(Request(WINDOW, side, (wins,)))
            asked.append(idxs)
    downloads: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(requests)
    for idxs, (mbrs, oids, bounds) in zip(asked, (yield step) if step else ()):
        for k, i in enumerate(idxs):
            lo, hi = bounds[k], bounds[k + 1]
            downloads[i] = (mbrs[lo:hi], oids[lo:hi])
            results[i].outer_objects = int(hi - lo)

    # Probes.  ``asked`` lists, per request of the step, ``(invocation,
    # first probe, probe count)`` for the invocations it carries.
    step, asked = [], []
    if bucket:
        # One BUCKET request per invocation, in invocation order.
        for i, outer in enumerate(outers):
            outer_mbrs = downloads[i][0]
            if outer_mbrs.shape[0]:
                centers, radii = _probe_geometry(outer_mbrs, predicate)
                radius = _bucket_radius(outer_mbrs, predicate)
                step.append(Request(BUCKET, "S" if outer == "R" else "R", (centers, radius, radii)))
                asked.append([(i, 0, len(centers))])
    else:
        # Every invocation's probes concatenated into one RANGE request per
        # inner server (inner = S for outer R, inner = R for outer S).
        for inner in ("S", "R"):
            spans: List[Tuple[int, int, int]] = []
            centers_all: List[Point] = []
            radii_all: List[float] = []
            for i, outer in enumerate(outers):
                outer_mbrs = downloads[i][0]
                if outer != inner and outer_mbrs.shape[0]:
                    centers, radii = _probe_geometry(outer_mbrs, predicate)
                    spans.append((i, len(centers_all), len(centers)))
                    centers_all.extend(centers)
                    radii_all.extend(radii)
            if spans:
                step.append(Request(RANGE, inner, (centers_all, radii_all)))
                asked.append(spans)
    for spans, (all_mbrs, all_oids, index) in zip(asked, (yield step) if step else ()):
        # ``index`` assigns candidate rows to probes.  A BUCKET answer names
        # the probe of every row; a RANGE answer is flat (one concatenated
        # payload, ``index`` its CSR offsets in probe order), so an
        # invocation's candidate block is a slice of it.
        for i, start, n in spans:
            outer_mbrs, outer_oids = downloads[i]
            result = results[i]
            if bucket:
                result.bucket_queries += 1
                cand_mbrs, cand_oids, probe_idx = all_mbrs, all_oids, index
            else:
                bounds = index[start : start + n + 1]
                cand_mbrs = all_mbrs[bounds[0] : bounds[-1]]
                cand_oids = all_oids[bounds[0] : bounds[-1]]
                probe_idx = np.repeat(np.arange(n, dtype=np.intp), np.diff(bounds))
            result.probes_sent += n
            result.inner_objects_received += int(cand_oids.shape[0])
            token = buffer.allocate(min(int(outer_oids.shape[0]), buffer.capacity))
            try:
                result.pairs.extend(
                    _verify_candidates(
                        outer_mbrs,
                        outer_oids,
                        cand_mbrs,
                        cand_oids,
                        probe_idx,
                        requests[i].window,
                        predicate,
                        outers[i],
                    )
                )
            finally:
                buffer.release(token)
    return results


# -------------------------------------------------------------------------- #
# candidate verification
# -------------------------------------------------------------------------- #


def _verify_candidates(
    outer_mbrs: np.ndarray,
    outer_oids: np.ndarray,
    cand_mbrs: np.ndarray,
    cand_oids: np.ndarray,
    probe_idx: np.ndarray,
    window: Rect,
    predicate: JoinPredicate,
    outer: str,
) -> np.ndarray:
    """Verify probe candidates over offset arrays; the qualifying ``(r, s)`` block.

    ``probe_idx`` assigns every candidate row to the outer object whose
    probe returned it.  The exact-predicate arithmetic matches
    ``predicate.matches_matrix`` term for term.  The R partner of every
    reported pair must intersect the unexpanded window: checked on the
    outer rows when the outer relation is R, on each candidate when it is
    S, so a partitioned execution assigns every pair to at least the
    cell(s) the R object touches and never to unrelated cells.
    """
    a = outer_mbrs[probe_idx]
    dx = np.maximum(np.maximum(a[:, 0] - cand_mbrs[:, 2], 0.0), cand_mbrs[:, 0] - a[:, 2])
    dy = np.maximum(np.maximum(a[:, 1] - cand_mbrs[:, 3], 0.0), cand_mbrs[:, 1] - a[:, 3])
    if isinstance(predicate, WithinDistancePredicate):
        eps = predicate.probe_radius()
        mask = dx * dx + dy * dy <= eps * eps
    else:
        mask = (dx <= 0.0) & (dy <= 0.0)
    if outer == "R":
        mask &= rect_array.intersects_window(outer_mbrs, window)[probe_idx]
    else:
        mask &= rect_array.intersects_window(cand_mbrs, window)
    matched_outer = outer_oids[probe_idx[mask]]
    matched_inner = cand_oids[mask]
    if outer == "R":
        return np.column_stack((matched_outer, matched_inner))
    return np.column_stack((matched_inner, matched_outer))


# -------------------------------------------------------------------------- #
# probe geometry
# -------------------------------------------------------------------------- #


def _probe_geometry(
    outer_mbrs: np.ndarray, predicate: JoinPredicate
) -> Tuple[List[Point], List[float]]:
    """Centres and per-probe radii of the range probes for the outer objects.

    Each probe is centred on its object's MBR centre with radius
    ``predicate.probe_radius()`` plus the half diagonal of the MBR, so no
    candidate is missed regardless of object extent (candidates are
    verified with the exact predicate afterwards); a single shared radius
    would blow up responses when a few outer objects (long railway
    segments, say) are much larger than the rest.  For intersection joins
    ``probe_radius()`` is zero and the probe covers just the MBR itself.
    """
    centers = [
        Point((float(r[0]) + float(r[2])) / 2.0, (float(r[1]) + float(r[3])) / 2.0)
        for r in outer_mbrs
    ]
    half_diags = 0.5 * np.hypot(
        outer_mbrs[:, 2] - outer_mbrs[:, 0], outer_mbrs[:, 3] - outer_mbrs[:, 1]
    )
    return centers, (predicate.probe_radius() + half_diags).tolist()


def _bucket_radius(outer_mbrs: np.ndarray, predicate: JoinPredicate) -> float:
    """One radius that covers every probe of a bucket query."""
    widths = outer_mbrs[:, 2] - outer_mbrs[:, 0]
    heights = outer_mbrs[:, 3] - outer_mbrs[:, 1]
    half_diag = 0.5 * float(np.hypot(widths, heights).max()) if outer_mbrs.size else 0.0
    if isinstance(predicate, IntersectionPredicate):
        return half_diag
    return predicate.probe_radius() + half_diag
