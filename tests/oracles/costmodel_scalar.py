"""Frozen scalar reference of the Section 3.1 cost model (test oracle).

This is the one-window-per-call implementation that ``repro.core.costmodel``
shipped before the equations became array-valued, kept verbatim -- Python
``int`` / ``float`` arithmetic, ``math.ceil`` / ``round``, one ``Rect`` per
call, its own copy of Eq. 1 -- so that ``tests/test_costmodel.py`` can pin
every array-valued method to it element by element with ``==``.  Costs pick
strategies and strategies pick bytes: a last-bit difference here is a
wire-visible behaviour change.

Do not "fix" or modernise this file; change it only together with a
deliberate, documented change of the model's arithmetic.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.geometry.rect import Rect
from repro.network.config import NetworkConfig
from repro.network.packets import aggregate_answer_bytes, query_bytes

__all__ = ["ScalarCostModel", "num_packets", "transferred_bytes", "cheapest"]

INFEASIBLE = math.inf


def num_packets(payload_bytes: int, config: NetworkConfig) -> int:
    """Eq. 1's packet count, float ceil-division as originally written."""
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be non-negative")
    if payload_bytes == 0:
        return 0
    return math.ceil(payload_bytes / config.payload_per_packet)


def transferred_bytes(payload_bytes: int, config: NetworkConfig) -> int:
    """Wire bytes for a payload: Eq. 1, ``TB(B_D)``."""
    return payload_bytes + config.header_bytes * num_packets(payload_bytes, config)


def cheapest(c1: float, c2: float, c3: float, c4: float) -> str:
    """Name of the cheapest strategy (ties resolved in c1..c4 order)."""
    costs = {"c1": c1, "c2": c2, "c3": c3, "c4": c4}
    return min(costs, key=lambda k: (costs[k], k))


class ScalarCostModel:
    """The scalar cost model, one window per call (frozen reference).

    Parameters
    ----------
    config:
        Wire constants and tariffs.
    epsilon:
        The distance-join threshold used inside ``Tdq`` (0 for
        intersection joins of point data, where probe answers are tiny).
    bucket_queries:
        When True the NLSJ estimates use the bucket equations (5-6).
    """

    def __init__(
        self,
        config: NetworkConfig,
        epsilon: float = 0.0,
        bucket_queries: bool = False,
    ) -> None:
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.config = config
        self.epsilon = epsilon
        self.bucket_queries = bucket_queries

    # ------------------------------------------------------------------ #
    # primitive quantities
    # ------------------------------------------------------------------ #

    def tb(self, payload_bytes: int) -> int:
        """Eq. 1: wire bytes for a payload."""
        return transferred_bytes(payload_bytes, self.config)

    def object_bytes(self, num_objects: int) -> int:
        """Payload bytes of ``num_objects`` objects."""
        return num_objects * self.config.object_bytes

    @property
    def taq(self) -> float:
        """Eq. 7: wire bytes of one aggregate query + its scalar answer."""
        return query_bytes(self.config) + aggregate_answer_bytes(self.config)

    def expected_probe_matches(self, window: Rect, n_inner: int) -> float:
        """Expected objects returned by one epsilon-RANGE probe (uniform assumption).

        ``pi * eps^2 / (wx * wy) * |innerw|`` -- Section 3.1.  Degenerate
        windows fall back to assuming all inner objects match (the safe,
        pessimistic limit of the formula).
        """
        area = window.area
        if area <= 0:
            return float(n_inner)
        frac = math.pi * self.epsilon * self.epsilon / area
        return min(float(n_inner), frac * n_inner)

    def tdq(self, window: Rect, n_inner: int) -> float:
        """Eq. 3: bytes of one probe (query up, expected matches down)."""
        expected = self.expected_probe_matches(window, n_inner)
        payload = int(math.ceil(expected * self.config.object_bytes))
        return query_bytes(self.config) + self.tb(payload)

    # ------------------------------------------------------------------ #
    # the four strategies
    # ------------------------------------------------------------------ #

    def c1(
        self,
        window: Rect,
        n_r: int,
        n_s: int,
        buffer_size: Optional[int] = None,
        enforce_buffer: bool = True,
    ) -> float:
        """Eq. 2: HBSJ -- download both windows, join on the device."""
        if enforce_buffer and buffer_size is not None and n_r + n_s > buffer_size:
            return INFEASIBLE
        cfg = self.config
        cost = (cfg.tariff_r + cfg.tariff_s) * query_bytes(cfg)
        cost += cfg.tariff_r * self.tb(self.object_bytes(n_r))
        cost += cfg.tariff_s * self.tb(self.object_bytes(n_s))
        return cost

    def c2(self, window: Rect, n_r: int, n_s: int) -> float:
        """Eq. 4 / Eq. 6: NLSJ with outer ``R`` probing ``S``."""
        if self.bucket_queries:
            return self._nlsj_bucket(window, n_outer=n_r, n_inner=n_s, outer="R")
        return self._nlsj_per_object(window, n_outer=n_r, n_inner=n_s, outer="R")

    def c3(self, window: Rect, n_r: int, n_s: int) -> float:
        """The symmetric case of ``c2``: outer ``S`` probing ``R``."""
        if self.bucket_queries:
            return self._nlsj_bucket(window, n_outer=n_s, n_inner=n_r, outer="S")
        return self._nlsj_per_object(window, n_outer=n_s, n_inner=n_r, outer="S")

    def c4_estimate(
        self,
        window: Rect,
        n_r: int,
        n_s: int,
        buffer_size: Optional[int],
        k: int = 2,
    ) -> float:
        """Eq. 8 under MobiJoin's uniformity heuristic.

        The window is assumed uniform *and small enough* that each of the
        ``k^2`` sub-windows (holding ``n/k^2`` objects of each dataset) is
        finished by a single HBSJ -- MobiJoin's optimistic heuristic, so the
        hypothetical sub-HBSJs are costed without the buffer cut (Section
        3.2: "every subwindow w' will be processed by HBSJ after only one
        partitioning").  The ``2 k^2`` aggregate queries needed to learn the
        sub-window counts are charged up front.  ``buffer_size`` is accepted
        for signature symmetry but deliberately unused.
        """
        if k < 2:
            raise ValueError("k must be >= 2")
        cells = window.subdivide(k)
        sub_r = int(round(n_r / (k * k)))
        sub_s = int(round(n_s / (k * k)))
        cost = 2.0 * k * k * self.taq
        for cell in cells:
            c1 = self.c1(cell, sub_r, sub_s, buffer_size=None, enforce_buffer=False)
            c2 = self.c2(cell, sub_r, sub_s)
            c3 = self.c3(cell, sub_r, sub_s)
            cost += min(c1, c2, c3)
        return cost

    # ------------------------------------------------------------------ #
    # SemiJoin estimate (Section 5.3) -- used by tests and ablations
    # ------------------------------------------------------------------ #

    def semijoin_estimate(
        self, n_level_mbrs: int, n_small_objects: int, n_result_rows: int
    ) -> float:
        """Transfer cost of the PDA-mediated SemiJoin.

        The MBRs of one tree level move large-server -> PDA -> small-server,
        the qualifying small-side objects move small-server -> PDA ->
        large-server, and the result rows come back to the PDA.  Every hop
        is charged at the corresponding tariff.
        """
        cfg = self.config
        mbr_payload = self.object_bytes(n_level_mbrs)
        obj_payload = self.object_bytes(n_small_objects)
        res_payload = self.object_bytes(n_result_rows)
        cost = (cfg.tariff_r + cfg.tariff_s) * (2 * query_bytes(cfg))
        cost += (cfg.tariff_r + cfg.tariff_s) * self.tb(mbr_payload)
        cost += (cfg.tariff_r + cfg.tariff_s) * self.tb(obj_payload)
        cost += max(cfg.tariff_r, cfg.tariff_s) * self.tb(res_payload)
        return cost

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _tariff(self, server: str) -> float:
        return self.config.tariff_r if server == "R" else self.config.tariff_s

    def _nlsj_per_object(
        self, window: Rect, n_outer: int, n_inner: int, outer: str
    ) -> float:
        """Eq. 4: one query + one response per outer object."""
        inner = "S" if outer == "R" else "R"
        cost = self._tariff(outer) * query_bytes(self.config)
        cost += self._tariff(outer) * self.tb(self.object_bytes(n_outer))
        cost += self._tariff(inner) * n_outer * self.tdq(window, n_inner)
        return cost

    def _nlsj_bucket(
        self, window: Rect, n_outer: int, n_inner: int, outer: str
    ) -> float:
        """Eq. 6: all probes shipped in one bucket request."""
        inner = "S" if outer == "R" else "R"
        cfg = self.config
        cost = (cfg.tariff_r + cfg.tariff_s) * query_bytes(cfg)
        # Outer objects are downloaded from their server and uploaded to the
        # inner server inside the bucket request: both hops pay TB(|outer| * Bobj).
        cost += (self._tariff(outer) + self._tariff(inner)) * self.tb(
            self.object_bytes(n_outer)
        )
        expected = self.expected_probe_matches(window, n_inner)
        payload = int(
            math.ceil((expected * cfg.object_bytes + cfg.object_bytes) * n_outer)
        )
        cost += self._tariff(inner) * self.tb(payload)
        return cost
