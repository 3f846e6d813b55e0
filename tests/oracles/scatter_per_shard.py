"""The shard-by-shard scatter ``ShardedRemoteServer`` shipped until PR 18.

Kept verbatim in behaviour as the oracle of the fused scatter: route every
request with a per-shard ``Rect.intersects`` loop, call each routed shard's
own proxy endpoint (one index descent *per shard*) in ascending shard
order, and merge the per-shard answers request-major, shards ascending.
``proxy`` is a live :class:`~repro.server.remote.ShardedRemoteServer`; the
oracle drives its per-shard proxies directly, so channels, ledgers, fault
substreams, replica orders and statistics are the real ones.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.partition import partition_dataset
from repro.geometry.rect import Rect

ENDPOINTS = ("count_batch", "window_batch_flat", "range_batch_flat", "bucket_range")


def _scatter(proxy, windows):
    """Group request indices by routed shard, shards ascending.

    A shard's bounds are those of its partition (a shard server keeps no
    dataset), equal bit for bit to its index root's box."""
    fleet = proxy.backing_server
    parts = partition_dataset(fleet.dataset, len(fleet.shards), fleet.scheme)
    bounds = [part.bounds() if len(part) else None for part in parts]
    per_shard = {}
    for wi, window in enumerate(windows):
        for si, b in enumerate(bounds):
            if b is not None and b.intersects(window):
                per_shard.setdefault(si, []).append(wi)
    return sorted(per_shard.items())


def _probe_windows(centers, radii):
    return [Rect(c.x - r, c.y - r, c.x + r, c.y + r) for c, r in zip(centers, radii)]


def _merge_flat(n_requests, shard_results):
    per_request = [[] for _ in range(n_requests)]
    for idxs, mbrs, oids, bounds in shard_results:
        for j, wi in enumerate(idxs):
            lo, hi = int(bounds[j]), int(bounds[j + 1])
            per_request[wi].append((mbrs[lo:hi], oids[lo:hi]))
    out_bounds = np.zeros(n_requests + 1, dtype=np.int64)
    for wi, chunks in enumerate(per_request):
        out_bounds[wi + 1] = out_bounds[wi] + sum(o.shape[0] for _, o in chunks)
    chunks = [chunk for chunks in per_request for chunk in chunks]
    mbrs = np.vstack([m for m, _ in chunks]) if chunks else np.empty((0, 4))
    oids = np.concatenate([o for _, o in chunks]) if chunks else np.empty(0, dtype=np.int64)
    return mbrs, oids, out_bounds


def count_batch(proxy, windows):
    values = [0] * len(windows)
    for si, idxs in _scatter(proxy, windows):
        sub = proxy._proxies[si].count_batch([windows[wi] for wi in idxs])
        for wi, v in zip(idxs, sub):
            values[wi] += int(v)
    return values


def window_batch_flat(proxy, windows):
    shard_results = []
    for si, idxs in _scatter(proxy, windows):
        m, o, b = proxy._proxies[si].window_batch_flat([windows[wi] for wi in idxs])
        shard_results.append((idxs, m, o, b))
    return _merge_flat(len(windows), shard_results)


def range_batch_flat(proxy, centers, radii):
    shard_results = []
    for si, idxs in _scatter(proxy, _probe_windows(centers, radii)):
        m, o, b = proxy._proxies[si].range_batch_flat(
            [centers[pi] for pi in idxs], [radii[pi] for pi in idxs]
        )
        shard_results.append((idxs, m, o, b))
    return _merge_flat(len(centers), shard_results)


def bucket_range(proxy, centers, epsilon, radii=None):
    per_probe = [epsilon] * len(centers) if radii is None else [float(r) for r in radii]
    parts = []
    for si, idxs in _scatter(proxy, _probe_windows(centers, per_probe)):
        m, o, p = proxy._proxies[si].bucket_range(
            tuple(centers[pi] for pi in idxs), epsilon, [per_probe[pi] for pi in idxs]
        )
        parts.append((m, o, np.asarray(idxs, dtype=np.int64)[np.asarray(p, dtype=np.int64)]))
    if not parts:
        return np.empty((0, 4)), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    mbrs = np.vstack([m for m, _, _ in parts])
    oids = np.concatenate([o for _, o, _ in parts])
    probe_idx = np.concatenate([p for _, _, p in parts])
    # Probe-major order with ascending shards inside each probe.
    order = np.argsort(probe_idx, kind="stable")
    return mbrs[order], oids[order], probe_idx[order]
