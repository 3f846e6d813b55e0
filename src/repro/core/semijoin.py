"""SemiJoin -- the indexed distributed-join comparator (Section 5.3).

SemiJoin (Tan, Ooi & Abel, TKDE 2000) assumes both datasets are indexed by
R-trees and that the MBRs of an intermediate tree level can be exchanged.
In the paper's non-cooperative setting the servers will not talk to each
other, so the PDA relays every transfer:

1. ask both servers for their sizes and pick the *smaller* dataset (call it
   the small side; the other is the large side);
2. download the MBRs of the large side's second-to-last R-tree level to the
   PDA and upload them to the small server;
3. the small server returns every object intersecting (within ``epsilon``
   of, for distance joins) one of those MBRs; the PDA relays these objects
   to the large server;
4. the large server performs the final join locally and returns the result
   rows to the PDA.

Every hop is metered, so the comparison against UpJoin/SrJoin in Figure
8(b) is purely on measured bytes.  The paper notes SemiJoin "cannot be
applied in our problem" in practice (servers do not publish indexes); it is
reproduced here strictly as the comparator.

The protocol runs over the flat CSR window endpoints -- one concatenated
relay assembly, vectorised deduplication and pair collection.  The seed's
per-window payload relay and per-pair collection loop lives on as
``tests/oracles/semijoin_scalar.py``; both ship the same messages with the
same payloads, so pairs, bytes and statistics are identical (pinned by
``tests/test_batch_queries.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import AlgorithmParameters, MobileJoinAlgorithm
from repro.core.join_types import JoinSpec
from repro.device.pda import MobileDevice
from repro.device.steps import Steps
from repro.geometry import rect_array
from repro.geometry.rect import Rect
from repro.server.remote import IndexedRemoteServer

__all__ = ["SemiJoin"]


class SemiJoin(MobileJoinAlgorithm):
    """The PDA-mediated, R-tree-based semi-join comparator."""

    name = "semijoin"

    def __init__(
        self,
        device: MobileDevice,
        spec: JoinSpec,
        params: Optional[AlgorithmParameters] = None,
    ) -> None:
        super().__init__(device, spec, params)
        for proxy in (device.servers.r, device.servers.s):
            if not isinstance(proxy, IndexedRemoteServer):
                raise TypeError(
                    "SemiJoin requires IndexedRemoteServer proxies "
                    "(build the session with indexed=True)"
                )

    # ------------------------------------------------------------------ #

    def _steps(self, window: Rect, count_r: int, count_s: int, depth: int) -> Steps:
        # The index-publishing exchanges below are no step kind: a driver
        # sees none of them, they run on the query's own connections.
        self._execute(window, count_r, count_s, depth)
        return
        yield  # pragma: no cover -- a step generator that offers no step

    def _execute(self, window: Rect, count_r: int, count_s: int, depth: int) -> None:
        if count_r == 0 or count_s == 0:
            self.prune(window, depth, count_r, count_s)
            return

        servers = self.device.servers
        r: IndexedRemoteServer = servers.r  # type: ignore[assignment]
        s: IndexedRemoteServer = servers.s  # type: ignore[assignment]

        # Step 1: identify the smaller dataset from index metadata.
        size_r = r.object_count()
        size_s = s.object_count()
        small, large, small_is_r = (r, s, True) if size_r <= size_s else (s, r, False)
        self.record(
            depth, window, "semijoin-plan",
            f"small={'R' if small_is_r else 'S'} ({min(size_r, size_s)} objects), "
            f"large={'S' if small_is_r else 'R'} ({max(size_r, size_s)} objects)",
            count_r, count_s,
        )

        # Step 2: ship one level of the large side's R-tree MBRs to the
        # small server (through the PDA).
        level_mbrs = large.level_mbrs()
        self.record(depth, window, "semijoin-mbrs", f"{len(level_mbrs)} level MBRs")
        epsilon = self.predicate.probe_radius()
        # Expand every level MBR by epsilon and clip it to the (expanded)
        # join window, dropping disjoint ones -- all in array form.
        level_arr = rect_array.rects_to_array(level_mbrs)
        if epsilon > 0:
            level_arr = rect_array.expand(level_arr, epsilon)
        clipped, valid = rect_array.clip_to_window(level_arr, window.expanded(epsilon))
        probe_windows = clipped[valid]
        if not probe_windows.shape[0]:
            self.record(depth, window, "semijoin-empty", "no level MBR intersects the window")
            return

        # Step 3: the small server returns its qualifying objects; the PDA
        # relays them to the large server.
        small_mbrs, small_oids = small.upload_windows_and_collect(probe_windows)
        self.record(depth, window, "semijoin-objects", f"{small_oids.shape[0]} small-side objects")
        if small_oids.shape[0] == 0:
            return

        # Step 4: the large server joins the uploaded objects against its
        # own data and returns the result rows.
        pairs = large.upload_objects_and_join(small_mbrs, small_oids, epsilon)
        self.record(depth, window, "semijoin-join", f"{len(pairs)} result pairs")
        # Orient the (small, large) columns as (R, S).
        self._pairs.extend(pairs if small_is_r else pairs[:, ::-1])
