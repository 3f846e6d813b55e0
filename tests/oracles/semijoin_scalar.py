"""The scalar protocol loop ``SemiJoin(execution="scalar")`` ran until PR 19.

Oracle of :class:`repro.core.semijoin.SemiJoin`'s flat relay: the small
server's answer is relayed as a per-window payload list that is stacked
client-side (``IndexedRemoteServer.upload_windows_and_collect`` before it
became the flat form), and the result rows are collected pair by pair.
Ships the same messages with the same payloads; ``tests/test_batch_queries.py``
pins pairs, bytes, statistics and trace.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.semijoin import SemiJoin
from repro.geometry import rect_array
from repro.geometry.rect import Rect
from repro.network.channel import Channel
from repro.network.messages import BucketRangeQuery, ObjectPayload
from repro.server.remote import IndexedRemoteServer

__all__ = ["ScalarSemiJoin", "upload_windows_and_collect"]


def upload_windows_and_collect(
    proxy: IndexedRemoteServer, windows: Sequence[Rect]
) -> Tuple[np.ndarray, np.ndarray]:
    """The per-window relay: one payload per window, stacked, deduplicated first-seen."""
    if not windows:
        return np.empty((0, 4)), np.empty(0, dtype=np.int64)
    payloads = proxy.backing_server.window_batch(list(windows))
    all_mbrs = np.vstack([m for m, _ in payloads]) if payloads else np.empty((0, 4))
    all_oids = (
        np.concatenate([o for _, o in payloads]) if payloads else np.empty(0, dtype=np.int64)
    )
    _, first = np.unique(all_oids, return_index=True)
    keep = np.sort(first)
    mbrs_out = all_mbrs[keep]
    oids_out = all_oids[keep]

    def account(channel: Channel) -> None:
        channel.send_query(
            BucketRangeQuery.of_size(len(windows), 0.0), label="semijoin-windows"
        )
        channel.send_response(ObjectPayload(mbrs_out, oids_out), label="semijoin-objects")

    proxy._exchange("semijoin-windows", account)
    return mbrs_out, oids_out


class ScalarSemiJoin(SemiJoin):
    """SemiJoin with the seed's per-window relay and per-pair collection."""

    def _execute(self, window: Rect, count_r: int, count_s: int, depth: int) -> None:
        if count_r == 0 or count_s == 0:
            self.prune(window, depth, count_r, count_s)
            return

        servers = self.device.servers
        r: IndexedRemoteServer = servers.r  # type: ignore[assignment]
        s: IndexedRemoteServer = servers.s  # type: ignore[assignment]

        size_r = r.object_count()
        size_s = s.object_count()
        small, large, small_is_r = (r, s, True) if size_r <= size_s else (s, r, False)
        self.record(
            depth, window, "semijoin-plan",
            f"small={'R' if small_is_r else 'S'} ({min(size_r, size_s)} objects), "
            f"large={'S' if small_is_r else 'R'} ({max(size_r, size_s)} objects)",
            count_r, count_s,
        )

        level_mbrs = large.level_mbrs()
        self.record(depth, window, "semijoin-mbrs", f"{len(level_mbrs)} level MBRs")
        epsilon = self.predicate.probe_radius()
        level_arr = rect_array.rects_to_array(level_mbrs)
        if epsilon > 0:
            level_arr = rect_array.expand(level_arr, epsilon)
        clipped, valid = rect_array.clip_to_window(level_arr, window.expanded(epsilon))
        probe_windows = [
            Rect(float(r[0]), float(r[1]), float(r[2]), float(r[3]))
            for r in clipped[valid]
        ]
        if not probe_windows:
            self.record(depth, window, "semijoin-empty", "no level MBR intersects the window")
            return

        small_mbrs, small_oids = upload_windows_and_collect(small, probe_windows)
        self.record(depth, window, "semijoin-objects", f"{small_oids.shape[0]} small-side objects")
        if small_oids.shape[0] == 0:
            return

        pairs = large.upload_objects_and_join(small_mbrs, small_oids, epsilon)
        self.record(depth, window, "semijoin-join", f"{len(pairs)} result pairs")
        for small_oid, large_oid in pairs:
            if small_is_r:
                self._pairs.add((int(small_oid), int(large_oid)))
            else:
                self._pairs.add((int(large_oid), int(small_oid)))
