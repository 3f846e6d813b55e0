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
from repro.geometry import rect_array
from repro.geometry.point import Point
from repro.geometry.predicates import (
    IntersectionPredicate,
    JoinPredicate,
    WithinDistancePredicate,
)
from repro.geometry.rect import Rect
from repro.server.remote import ServerPair

__all__ = [
    "NLSJRequest",
    "NLSJResult",
    "nested_loop_spatial_join",
    "nested_loop_spatial_join_batch",
]


@dataclass(frozen=True)
class NLSJRequest:
    """One NLSJ invocation requested from the batch executor."""

    window: Rect
    outer: str = "S"


@dataclass
class NLSJResult:
    """Outcome of one NLSJ invocation."""

    pairs: List[Tuple[int, int]] = field(default_factory=list)
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
    """Execute many NLSJ invocations with batched exchanges and kernels.

    The per-request results (pairs, probe/object counters) and the wire
    bytes are those of running the requests one at a time (pinned against
    ``tests/oracles/operators_scalar.py``): outer downloads are
    concatenated into one WINDOW batch per server, the epsilon probes of
    every request into one RANGE batch per inner server (each probe still
    metered as its own exchange), and the candidate verification runs once
    over offset arrays instead of once per probe.  Bucket queries stay one
    exchange per request -- merging them would change the wire payloads --
    but their verification is vectorised the same way.
    """
    for req in requests:
        if req.outer.upper() not in ("R", "S"):
            raise ValueError("outer must be 'R' or 'S'")
    results = [NLSJResult(outer=req.outer.upper()) for req in requests]
    margin = predicate.window_margin

    # Outer downloads: one WINDOW batch per outer server, request order
    # preserved within each group.
    downloads: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(requests)
    for outer_name, server in (("R", servers.r), ("S", servers.s)):
        idxs = [i for i, req in enumerate(requests) if req.outer.upper() == outer_name]
        if not idxs:
            continue
        wins = []
        for i in idxs:
            w = requests[i].window
            if outer_name == "S" and margin > 0:
                w = w.expanded(margin)
            wins.append(w)
        for i, payload in zip(idxs, server.window_batch(wins)):
            downloads[i] = payload
    for i, (outer_mbrs, outer_oids) in enumerate(downloads):
        results[i].outer_objects = int(outer_oids.shape[0])

    if bucket:
        for i, req in enumerate(requests):
            outer_mbrs, outer_oids = downloads[i]
            if outer_oids.shape[0] == 0:
                continue
            inner_server = servers.s if req.outer.upper() == "R" else servers.r
            centers, radii = _probe_geometry(outer_mbrs, predicate)
            radius = _bucket_radius(outer_mbrs, predicate)
            inner_mbrs, inner_oids, probe_idx = inner_server.bucket_range(
                centers, radius, radii
            )
            result = results[i]
            result.bucket_queries += 1
            result.probes_sent += len(centers)
            result.inner_objects_received += int(inner_oids.shape[0])
            token = buffer.allocate(min(int(outer_oids.shape[0]), buffer.capacity))
            try:
                result.pairs.extend(
                    _verify_candidates(
                        outer_mbrs,
                        outer_oids,
                        inner_mbrs,
                        inner_oids,
                        probe_idx,
                        req.window,
                        predicate,
                        req.outer.upper(),
                    )
                )
            finally:
                buffer.release(token)
        return results

    # Non-bucket probes: concatenate every request's probes into one RANGE
    # batch per inner server (inner = S for outer R, inner = R for outer S).
    for inner_name, inner_server in (("S", servers.s), ("R", servers.r)):
        spans: List[Tuple[int, int, int]] = []  # (request idx, start, count)
        centers_all: List[Point] = []
        radii_all: List[float] = []
        for i, req in enumerate(requests):
            inner_of_req = "S" if req.outer.upper() == "R" else "R"
            outer_mbrs, outer_oids = downloads[i]
            if inner_of_req != inner_name or outer_oids.shape[0] == 0:
                continue
            centers, radii = _probe_geometry(outer_mbrs, predicate)
            spans.append((i, len(centers_all), len(centers)))
            centers_all.extend(centers)
            radii_all.extend(radii)
        if not spans:
            continue
        # The probe responses arrive flat (one concatenated payload array in
        # CSR probe order): each request's candidate block is a slice, not a
        # per-probe vstack.
        all_mbrs, all_oids, bounds = inner_server.range_batch_flat(
            centers_all, radii_all
        )
        for i, start, n in spans:
            outer_mbrs, outer_oids = downloads[i]
            result = results[i]
            lo, hi = int(bounds[start]), int(bounds[start + n])
            counts = np.diff(bounds[start : start + n + 1])
            result.probes_sent += n
            result.inner_objects_received += hi - lo
            cand_mbrs = all_mbrs[lo:hi]
            cand_oids = all_oids[lo:hi]
            probe_idx = np.repeat(np.arange(n, dtype=np.intp), counts)
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
                        requests[i].outer.upper(),
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
) -> List[Tuple[int, int]]:
    """Verify probe candidates over offset arrays; report qualifying pairs.

    ``probe_idx`` assigns every candidate row to the outer object whose
    probe returned it.  The exact-predicate arithmetic matches
    ``predicate.matches_matrix`` term for term.  The R partner of every
    reported pair must intersect the unexpanded window: checked on the
    outer rows when the outer relation is R, on each candidate when it is
    S, so a partitioned execution assigns every pair to at least the
    cell(s) the R object touches and never to unrelated cells.
    """
    if cand_mbrs.shape[0] == 0:
        return []
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
        return list(zip(matched_outer.tolist(), matched_inner.tolist()))
    return list(zip(matched_inner.tolist(), matched_outer.tolist()))


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
