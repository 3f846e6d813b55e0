"""The scalar protocol loop ``SemiJoin(execution="scalar")`` ran until PR 19.

Oracle of :class:`repro.core.semijoin.SemiJoin`'s flat relay: the small
server's answer is relayed as a per-window payload list that is stacked
client-side (``IndexedRemoteServer.upload_windows_and_collect`` before it
became the flat form) and booked on the connection, and the result rows are
collected pair by pair.
Ships the same messages with the same payloads; ``tests/test_batch_queries.py``
pins pairs, bytes, statistics and trace.  It keeps the engine's window rule:
COLLECT clips to the small side's request window, and the JOIN carries the
large side's, inside which the large server joins its objects.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.semijoin import RELAY, SemiJoin
from repro.geometry import rect_array
from repro.geometry.rect import Rect
from repro.network.channel import Channel
from repro.network.messages import MessageKind
from repro.server.remote import IndexedRemoteServer

from tests.oracles.eager_trace import EagerTrace

__all__ = ["ScalarSemiJoin", "upload_windows_and_collect"]


def upload_windows_and_collect(
    proxy: IndexedRemoteServer, windows: Sequence[Rect]
) -> Tuple[np.ndarray, np.ndarray]:
    """The per-window relay: one payload per window, stacked, deduplicated first-seen."""
    if not windows:
        return np.empty((0, 4)), np.empty(0, dtype=np.int64)
    payloads = proxy.backing_server.window_batch(list(windows))
    proxy._booked.book_window(len(payloads), sum(o.shape[0] for _, o in payloads))
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
            MessageKind.BUCKET_RANGE, label="semijoin-windows", objects=len(windows)
        )
        channel.send_response(
            MessageKind.OBJECTS, label="semijoin-objects", objects=oids_out.shape[0]
        )

    proxy._exchange("semijoin-windows", account)
    return mbrs_out, oids_out


class ScalarSemiJoin(EagerTrace, SemiJoin):
    """SemiJoin with the seed's per-window relay and per-pair collection."""

    def _run_leaves(self, table):
        """The entry seam: the synchronous relay below for the relayed root
        window of a run on its own, run inside the advance that follows the
        root round (it yields no step)."""
        for i in np.flatnonzero(table.op == RELAY).tolist():
            window = Rect(*table.windows[i].tolist())
            self._execute(window, int(table.int_r[i]), int(table.int_s[i]), 0)
        yield from ()

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
        clipped, valid = rect_array.clip_to_window(
            level_arr, self.query_window("R" if small_is_r else "S", window)
        )
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

        within = self.query_window("S" if small_is_r else "R", window)
        upload = (small_mbrs, small_oids, epsilon, within)
        pairs = large.book_join(*upload, *large.backing_server.evaluate_join_batch([upload]))
        self.record(depth, window, "semijoin-join", f"{len(pairs)} result pairs")
        for small_oid, large_oid in pairs:
            if small_is_r:
                self._pairs.add((int(small_oid), int(large_oid)))
            else:
                self._pairs.add((int(large_oid), int(small_oid)))
