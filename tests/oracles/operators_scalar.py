"""The scalar HBSJ and NLSJ operators ``repro.device`` shipped until PR 19.

Oracle of the batched operator pipeline
(:func:`repro.device.hbsj.hash_based_spatial_join_batch`,
:func:`repro.device.nlsj.nested_loop_spatial_join_batch`, and the
one-request forms ``hash_based_spatial_join`` / ``nested_loop_spatial_join``
/ ``MobileDevice.hbsj`` / ``.nlsj`` stated over them).  Verbatim in
behaviour: HBSJ recurses depth-first over quadrants with scalar ``count`` /
``window`` exchanges, NLSJ downloads the outer window and verifies each
probe's candidates in a per-object Python loop.  The probe geometry and the
split guard are frozen copies, not imports, so the two sides share no
operator code -- only the result containers, the wire endpoints and the
in-memory join kernel (which has its own oracle,
``tests/oracles/plane_sweep_scalar.py``).  :func:`device_hbsj` /
:func:`device_nlsj` are ``MobileDevice.hbsj`` / ``.nlsj`` as they were: the
scalar operator plus the device's operator bookkeeping.

Where a window splits, this twin visits quadrants depth-first and the batch
form level by level: results, counters, statistics and byte totals are
equal, the *order* of ledger records may differ (``tests/test_device.py``
compares the record multiset there).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.device.buffer import DeviceBuffer
from repro.device.hbsj import HBSJResult
from repro.device.nlsj import NLSJResult
from repro.geometry import rect_array
from repro.geometry.point import Point
from repro.geometry.predicates import IntersectionPredicate, JoinPredicate
from repro.geometry.rect import Rect
from repro.index.hash_join import grid_hash_join
from repro.server.remote import RemoteServer, ServerPair

__all__ = [
    "device_hbsj",
    "device_nlsj",
    "hash_based_spatial_join",
    "nested_loop_spatial_join",
]

#: Frozen copy of :data:`repro.device.hbsj.MAX_RECURSION_DEPTH`.
MAX_RECURSION_DEPTH = 16


# -------------------------------------------------------------------------- #
# HBSJ
# -------------------------------------------------------------------------- #


def hash_based_spatial_join(
    servers: ServerPair,
    window: Rect,
    predicate: JoinPredicate,
    buffer: DeviceBuffer,
    count_r: Optional[int] = None,
    count_s: Optional[int] = None,
    _depth: int = 0,
) -> HBSJResult:
    """Execute HBSJ on ``window``.

    Parameters
    ----------
    servers:
        Metered connections to the R and S servers.
    window:
        The window to join (R-side query window; the S side is expanded by
        the predicate's margin).
    predicate:
        Join predicate; its ``window_margin`` drives the S-side expansion.
    buffer:
        The device buffer; both downloads must fit simultaneously.
    count_r, count_s:
        Known object counts (R over ``window``, S over the expanded window)
        from earlier COUNT queries.  When provided they are trusted and no
        extra COUNT is issued for the feasibility check; otherwise the
        operator issues its own counts.
    """
    result = HBSJResult()
    margin = predicate.window_margin
    window_s = window.expanded(margin) if margin > 0 else window

    if count_r is None:
        count_r = servers.r.count(window)
        result.count_queries += 1
    if count_s is None:
        count_s = servers.s.count(window_s)
        result.count_queries += 1

    if count_r == 0 or count_s == 0:
        result.windows_pruned += 1
        return result

    if count_r + count_s <= buffer.capacity:
        _join_in_memory(servers, window, window_s, predicate, buffer, result)
        return result

    if _depth >= MAX_RECURSION_DEPTH or _too_small_to_split(window, margin):
        # Further splitting cannot shrink the working set (coincident points
        # or cells already at the epsilon scale): probe instead of splitting.
        _fallback_nested_loop(servers, window, predicate, buffer, result)
        return result

    # Too big for the buffer: split into quadrants, prune, recurse.  The
    # per-quadrant feasibility COUNTs the children would issue on entry are
    # batched here instead -- same queries, same bytes, one index descent.
    result.recursive_splits += 1
    quadrants = window.quadrants()
    quad_counts_r = servers.r.count_batch(quadrants)
    quad_counts_s = servers.s.count_batch(
        [q.expanded(margin) if margin > 0 else q for q in quadrants]
    )
    result.count_queries += 2 * len(quadrants)
    for quadrant, qr, qs in zip(quadrants, quad_counts_r, quad_counts_s):
        sub = hash_based_spatial_join(
            servers,
            quadrant,
            predicate,
            buffer,
            count_r=qr,
            count_s=qs,
            _depth=_depth + 1,
        )
        result.merge(sub)
    return result


def _too_small_to_split(window: Rect, margin: float) -> bool:
    """True when child cells would be dominated by the S-side expansion."""
    if margin <= 0:
        return False
    return min(window.width, window.height) / 2.0 <= 2.0 * margin


def _join_in_memory(
    servers: ServerPair,
    window: Rect,
    window_s: Rect,
    predicate: JoinPredicate,
    buffer: DeviceBuffer,
    result: HBSJResult,
) -> None:
    """Download both sides and join them on the device."""
    r_mbrs, r_oids = servers.r.window(window)
    s_mbrs, s_oids = servers.s.window(window_s)
    result.objects_downloaded_r += int(r_oids.shape[0])
    result.objects_downloaded_s += int(s_oids.shape[0])

    token = buffer.allocate(int(r_oids.shape[0]) + int(s_oids.shape[0]))
    try:
        result.pairs.extend(grid_hash_join(r_mbrs, r_oids, s_mbrs, s_oids, predicate))
        result.windows_joined += 1
    finally:
        buffer.release(token)


def _fallback_nested_loop(
    servers: ServerPair,
    window: Rect,
    predicate: JoinPredicate,
    buffer: DeviceBuffer,
    result: HBSJResult,
) -> None:
    """Finish an un-splittable, over-budget window with NLSJ probing."""
    nlsj = nested_loop_spatial_join(
        servers, window, predicate, buffer, outer="R", bucket=False
    )
    result.pairs.extend(nlsj.pairs)
    result.nlsj_fallbacks += 1
    result.objects_downloaded_r += nlsj.outer_objects
    result.objects_downloaded_s += nlsj.inner_objects_received


# -------------------------------------------------------------------------- #
# NLSJ
# -------------------------------------------------------------------------- #


def nested_loop_spatial_join(
    servers: ServerPair,
    window: Rect,
    predicate: JoinPredicate,
    buffer: DeviceBuffer,
    outer: str = "S",
    bucket: bool = False,
) -> NLSJResult:
    """Execute NLSJ on ``window``.

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
    outer = outer.upper()
    if outer not in ("R", "S"):
        raise ValueError("outer must be 'R' or 'S'")
    result = NLSJResult(outer=outer)

    outer_server: RemoteServer = servers.r if outer == "R" else servers.s
    inner_server: RemoteServer = servers.s if outer == "R" else servers.r

    margin = predicate.window_margin
    outer_window = window if outer == "R" else (
        window.expanded(margin) if margin > 0 else window
    )

    outer_mbrs, outer_oids = outer_server.window(outer_window)
    n_outer = int(outer_oids.shape[0])
    result.outer_objects = n_outer
    if n_outer == 0:
        return result

    token = buffer.allocate(min(n_outer, buffer.capacity))
    try:
        if bucket:
            _probe_bucket(
                inner_server, outer_mbrs, outer_oids, window, predicate, result, outer
            )
        else:
            _probe_one_by_one(
                inner_server, outer_mbrs, outer_oids, window, predicate, result, outer
            )
    finally:
        buffer.release(token)
    return result


def _probe_one_by_one(
    inner_server: RemoteServer,
    outer_mbrs: np.ndarray,
    outer_oids: np.ndarray,
    window: Rect,
    predicate: JoinPredicate,
    result: NLSJResult,
    outer: str,
) -> None:
    # One metered range exchange per outer object, exactly as before; the
    # server-side evaluation of all probes happens in one batched descent.
    centers, radii = _probe_geometry(outer_mbrs, predicate)
    payloads = inner_server.range_batch(centers, radii)
    for row, oid, (inner_mbrs, inner_oids) in zip(outer_mbrs, outer_oids, payloads):
        outer_rect = Rect(float(row[0]), float(row[1]), float(row[2]), float(row[3]))
        result.probes_sent += 1
        result.inner_objects_received += int(inner_oids.shape[0])
        _collect_matches(
            outer_rect, int(oid), inner_mbrs, inner_oids, window, predicate, result, outer
        )


def _probe_bucket(
    inner_server: RemoteServer,
    outer_mbrs: np.ndarray,
    outer_oids: np.ndarray,
    window: Rect,
    predicate: JoinPredicate,
    result: NLSJResult,
    outer: str,
) -> None:
    centers, radii = _probe_geometry(outer_mbrs, predicate)
    radius = _bucket_radius(outer_mbrs, predicate)
    inner_mbrs, inner_oids, probe_idx = inner_server.bucket_range(centers, radius, radii)
    result.bucket_queries += 1
    result.probes_sent += len(centers)
    result.inner_objects_received += int(inner_oids.shape[0])
    # Split the concatenated response into per-probe groups without an
    # all-pairs mask scan per probe.
    order = np.argsort(probe_idx, kind="stable")
    sorted_idx = probe_idx[order]
    bounds = np.searchsorted(sorted_idx, np.arange(len(centers) + 1))
    for i, oid in enumerate(outer_oids):
        sel = order[bounds[i] : bounds[i + 1]]
        if sel.shape[0] == 0:
            continue
        row = outer_mbrs[i]
        outer_rect = Rect(float(row[0]), float(row[1]), float(row[2]), float(row[3]))
        _collect_matches(
            outer_rect,
            int(oid),
            inner_mbrs[sel],
            inner_oids[sel],
            window,
            predicate,
            result,
            outer,
        )


def _collect_matches(
    outer_rect: Rect,
    outer_oid: int,
    inner_mbrs: np.ndarray,
    inner_oids: np.ndarray,
    window: Rect,
    predicate: JoinPredicate,
    result: NLSJResult,
    outer: str,
) -> None:
    """Verify probe candidates and report qualifying pairs.

    The verification is vectorised over the candidate array.  The R partner
    of every reported pair must intersect the unexpanded window: when the
    outer relation is R that holds by construction, when the outer relation
    is S it is checked on each candidate, so a partitioned execution assigns
    every pair to at least the cell(s) the R object touches and never to
    unrelated cells.
    """
    if inner_mbrs.shape[0] == 0:
        return
    if outer == "R" and not outer_rect.intersects(window):
        return
    outer_row = np.array([outer_rect.as_tuple()], dtype=np.float64)
    mask = predicate.matches_matrix(outer_row, inner_mbrs)[0]
    if outer != "R":
        mask &= rect_array.intersects_window(inner_mbrs, window)
    matched = inner_oids[mask]
    if outer == "R":
        result.pairs.extend((outer_oid, int(ioid)) for ioid in matched.tolist())
    else:
        result.pairs.extend((int(ioid), outer_oid) for ioid in matched.tolist())


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


# -------------------------------------------------------------------------- #
# the device's scalar entry points (operator + bookkeeping)
# -------------------------------------------------------------------------- #


def device_hbsj(
    device,
    window: Rect,
    predicate: JoinPredicate,
    count_r: Optional[int] = None,
    count_s: Optional[int] = None,
) -> HBSJResult:
    """Run the scalar HBSJ on ``device``'s stack, booked as ``MobileDevice.hbsj`` books."""
    device.counts.hbsj_invocations += 1
    result = hash_based_spatial_join(
        device.servers,
        window,
        predicate,
        device.buffer,
        count_r=count_r,
        count_s=count_s,
    )
    device.counts.count_queries += result.count_queries
    device.counts.windows_pruned += result.windows_pruned
    return result


def device_nlsj(
    device,
    window: Rect,
    predicate: JoinPredicate,
    outer: str = "S",
    bucket: bool = False,
) -> NLSJResult:
    """Run the scalar NLSJ on ``device``'s stack, booked as ``MobileDevice.nlsj`` books."""
    device.counts.nlsj_invocations += 1
    return nested_loop_spatial_join(
        device.servers, window, predicate, device.buffer, outer=outer, bucket=bucket
    )
