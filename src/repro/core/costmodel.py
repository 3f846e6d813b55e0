"""The transfer cost model of Section 3.1 (Equations 1-8).

The model predicts, for a window ``w`` holding ``|Rw|`` and ``|Sw|``
objects, the tariff-weighted wire bytes of the four execution strategies:

``c1``  Hash-Based Spatial Join (HBSJ): download both windows, join on the
        PDA.  Infinite when the two windows do not fit the buffer.
``c2``  Nested-Loop Spatial Join with outer ``R``: download ``Rw`` and send
        one epsilon-RANGE probe per object to ``S``.
``c3``  Symmetric to ``c2`` with outer ``S``.
``c4``  Repartition ``w`` into a ``k x k`` grid, retrieve statistics for
        each cell, recurse.  The exact value is recursive (Eq. 8); the
        *MobiJoin estimate* assumes the window is uniform and every
        sub-window is finished with one HBSJ after a single partitioning
        step -- precisely the heuristic Section 3.2 analyses and Section 4
        improves upon.

Bucket variants (Eqs. 5-6) model servers that accept many probes in one
request.  All estimates reuse :func:`repro.network.packets.transferred_bytes`
so planner estimates and measured bytes share one packetisation model.

The model is *planning only*: measured totals always come from the
channels.  Estimation error (for example from the uniformity assumption
inside ``Tdq``) is part of what the paper studies.

Array-valued equations
----------------------

Every equation has one implementation that costs ``N`` windows at once:
counts are ``(N,)`` ``int64`` arrays, windows an ``(N, 4)`` MBR array (or
``(N,)`` areas -- the equations only ever read a window's area), results
``(N,)`` ``float64`` arrays.  A :class:`~repro.geometry.rect.Rect` with
Python ``int`` counts is the one-window case of the same expressions and
returns Python numbers.  The frontier engine costs a whole recursion level
per call (``core/frontier.py``, "level cost table").

Costs pick strategies and strategies pick bytes, so rounding is
wire-visible.  The array expressions therefore keep the operation order of
the scalar model they replaced, term by term (``((a + b) + c)``,
``(t_inner * n_outer) * tdq``), use integer ceil-division for packets,
``np.rint`` / ``np.ceil`` where it used ``round`` / ``math.ceil`` (both
round half to even), and sum ``c4``'s cells in row-major order.
``tests/oracles/costmodel_scalar.py`` freezes that scalar model and
``tests/test_costmodel.py`` pins every method to it with ``==``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.geometry import rect_array
from repro.geometry.rect import Rect
from repro.network.config import NetworkConfig
from repro.network.packets import (
    aggregate_answer_bytes,
    query_bytes,
    transferred_bytes,
)

__all__ = ["CostModel", "CostBreakdown", "SELECTABLE_ALGORITHMS", "predict_algorithm_costs"]

#: The algorithms eligible for *automatic* selection, in name order (the
#: order ties go in): the ones :func:`predict_algorithm_costs` prices.
#: SemiJoin assumes cooperating, index-publishing servers (the paper notes
#: it "cannot be applied in our problem"), and UpJoin and SrJoin ask the
#: same ``2 k^2`` COUNTs per split as MobiJoin, so they would get its
#: estimate and lose the tie by name; each runs only when a query names it.
SELECTABLE_ALGORITHMS = ("fixedgrid", "mobijoin", "naive")

#: A stand-in for the paper's "infinite" cost of an infeasible strategy.
INFEASIBLE = math.inf

#: Strategy names in tie-breaking order (the first minimum wins).
STRATEGIES = ("c1", "c2", "c3", "c4")


def _plain(value):
    """A Python number for a zero-dimensional result, arrays untouched."""
    if isinstance(value, (np.generic, np.ndarray)) and value.ndim == 0:
        return value.item()
    return value


def _areas(window):
    """Areas of a ``Rect``, an ``(N, 4)`` MBR array, or ``(N,)`` areas as given."""
    if isinstance(window, Rect):
        return window.area
    window = np.asarray(window, dtype=np.float64)
    return rect_array.areas(window) if window.ndim == 2 else window


def _grid_cell_areas(window, k: int) -> np.ndarray:
    """Cell areas of the regular ``k x k`` grid over each window.

    Shape ``(k * k,)`` for a ``Rect`` and ``(N, k * k)`` for an ``(N, 4)``
    array, row-major from the bottom-left cell; the edges are ``min + i *
    step`` with the exact outer edge last, so every area equals
    ``Rect.subdivide(k)[j].area`` bit for bit.
    """
    if isinstance(window, Rect):
        window = np.array(window.as_tuple(), dtype=np.float64)
    else:
        window = np.asarray(window, dtype=np.float64)
    x0, y0, x1, y1 = (window[..., i, None] for i in range(4))
    steps = np.arange(k, dtype=np.float64)
    xe = np.concatenate([x0 + steps * ((x1 - x0) / k), x1], axis=-1)
    ye = np.concatenate([y0 + steps * ((y1 - y0) / k), y1], axis=-1)
    widths, heights = np.diff(xe, axis=-1), np.diff(ye, axis=-1)
    cells = widths[..., None, :] * heights[..., :, None]
    return cells.reshape(*window.shape[:-1], k * k)


@dataclass(frozen=True)
class CostBreakdown:
    """The four strategy costs per window (numbers, or ``(N,)`` columns)."""

    c1_hbsj: float
    c2_nlsj_outer_r: float
    c3_nlsj_outer_s: float
    c4_repartition: float

    def cheapest_index(self):
        """Position in :data:`STRATEGIES` of the cheapest strategy (ties
        resolved in c1..c4 order: ``argmin`` returns the first minimum)."""
        return np.argmin(
            [self.c1_hbsj, self.c2_nlsj_outer_r, self.c3_nlsj_outer_s, self.c4_repartition],
            axis=0,
        )

    def cheapest(self):
        """Name of the cheapest strategy: a ``str`` for one window, a list
        of names for ``(N,)`` columns."""
        index = self.cheapest_index()
        if index.ndim == 0:
            return STRATEGIES[index]
        return [STRATEGIES[i] for i in index.tolist()]

    def as_dict(self) -> Dict[str, float]:
        return {
            "c1": self.c1_hbsj,
            "c2": self.c2_nlsj_outer_r,
            "c3": self.c3_nlsj_outer_s,
            "c4": self.c4_repartition,
        }


class CostModel:
    """Planner-side cost estimates, parameterised by the network config.

    Every method takes one window (a ``Rect`` with ``int`` counts, Python
    numbers back) or ``N`` windows (an ``(N, 4)`` MBR array or ``(N,)``
    areas with ``(N,)`` ``int64`` counts, ``(N,)`` arrays back).

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
        # Constants of the equations, read once.
        self._query = query_bytes(config)
        #: Eq. 7: wire bytes of one aggregate query + its scalar answer.
        self.taq = self._query + aggregate_answer_bytes(config)
        self._object = config.object_bytes
        self._tariff = {"R": float(config.tariff_r), "S": float(config.tariff_s)}
        self._probe_disc = math.pi * epsilon * epsilon

    # ------------------------------------------------------------------ #
    # primitive quantities
    # ------------------------------------------------------------------ #

    def tb(self, payload_bytes):
        """Eq. 1: wire bytes for a payload."""
        return transferred_bytes(payload_bytes, self.config)

    def object_bytes(self, num_objects):
        """Payload bytes of ``num_objects`` objects."""
        return num_objects * self._object

    # ------------------------------------------------------------------ #
    # the four strategies
    # ------------------------------------------------------------------ #

    def c1(
        self,
        window,
        n_r,
        n_s,
        buffer_size: Optional[int] = None,
    ):
        """Eq. 2: HBSJ -- download both windows, join on the device
        (infeasible past ``buffer_size``; ``None`` costs it without the cut)."""
        tariff_r, tariff_s = self._tariff["R"], self._tariff["S"]
        cost = (tariff_r + tariff_s) * self._query
        cost = cost + tariff_r * self.tb(self.object_bytes(n_r))
        cost = cost + tariff_s * self.tb(self.object_bytes(n_s))
        if buffer_size is not None:
            cost = np.where(n_r + n_s > buffer_size, INFEASIBLE, cost)
        return _plain(cost)

    def c2(self, window, n_r, n_s):
        """Eq. 4 / Eq. 6: NLSJ with outer ``R`` probing ``S``."""
        return _plain(self._nlsj(_areas(window), n_outer=n_r, n_inner=n_s, outer="R"))

    def c3(self, window, n_r, n_s):
        """The symmetric case of ``c2``: outer ``S`` probing ``R``."""
        return _plain(self._nlsj(_areas(window), n_outer=n_s, n_inner=n_r, outer="S"))

    def c4_estimate(self, window, n_r, n_s, buffer_size: Optional[int], k: int = 2):
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
        cells = _grid_cell_areas(window, k)
        # Every cell of a window holds the same counts; a trailing axis of
        # one broadcasts them (and the area-free c1) against the cell axis.
        sub_r = np.rint(np.asarray(n_r)[..., None] / (k * k)).astype(np.int64)
        sub_s = np.rint(np.asarray(n_s)[..., None] / (k * k)).astype(np.int64)
        cheapest = np.minimum(
            np.minimum(
                self.c1(None, sub_r, sub_s),
                self._nlsj(cells, n_outer=sub_r, n_inner=sub_s, outer="R"),
            ),
            self._nlsj(cells, n_outer=sub_s, n_inner=sub_r, outer="S"),
        )
        cost = 2.0 * k * k * self.taq
        for cell in range(k * k):  # row-major, the order the cells were summed in
            cost = cost + cheapest[..., cell]
        return _plain(cost)

    def breakdown(
        self,
        window,
        n_r,
        n_s,
        buffer_size: Optional[int],
        k: int = 2,
        include_c4=True,
    ) -> CostBreakdown:
        """All four strategy estimates.

        ``include_c4`` is a ``bool`` or an ``(N,)`` mask: rows outside it
        read ``INFEASIBLE`` for ``c4`` and are not estimated.
        """
        c1 = self.c1(window, n_r, n_s, buffer_size)
        include = np.broadcast_to(np.asarray(include_c4, dtype=bool), np.shape(c1))
        if include.all():
            c4 = self.c4_estimate(window, n_r, n_s, buffer_size, k=k)
        else:
            c4 = np.full(include.shape, INFEASIBLE)
            if include.any():
                c4[include] = self.c4_estimate(
                    window[include], n_r[include], n_s[include], buffer_size, k=k
                )
        return CostBreakdown(
            c1_hbsj=c1,
            c2_nlsj_outer_r=self.c2(window, n_r, n_s),
            c3_nlsj_outer_s=self.c3(window, n_r, n_s),
            c4_repartition=_plain(c4),
        )

    # ------------------------------------------------------------------ #
    # internals (areas instead of windows; any broadcastable shapes)
    # ------------------------------------------------------------------ #

    def _probe_matches(self, area, n_inner):
        positive = np.greater(area, 0)
        # A denormal area overflows the fraction to inf, and inf * 0 objects
        # is nan: ``fmin`` then keeps the count, as the scalar model's
        # ``min(n, nan)`` does -- every inner object matches.
        with np.errstate(over="ignore", invalid="ignore"):
            frac = self._probe_disc / np.where(positive, area, 1.0)
            return np.where(positive, np.fmin(n_inner, frac * n_inner), n_inner)

    def _tdq(self, area, n_inner):
        expected = self._probe_matches(area, n_inner)
        payload = np.ceil(expected * self._object).astype(np.int64)
        return self._query + self.tb(payload)

    def _nlsj(self, area, n_outer, n_inner, outer: str):
        if self.bucket_queries:
            return self._nlsj_bucket(area, n_outer, n_inner, outer)
        return self._nlsj_per_object(area, n_outer, n_inner, outer)

    def _nlsj_per_object(self, area, n_outer, n_inner, outer: str):
        """Eq. 4: one query + one response per outer object."""
        t_outer = self._tariff[outer]
        t_inner = self._tariff["S" if outer == "R" else "R"]
        cost = t_outer * self._query
        cost = cost + t_outer * self.tb(self.object_bytes(n_outer))
        return cost + t_inner * n_outer * self._tdq(area, n_inner)

    def _nlsj_bucket(self, area, n_outer, n_inner, outer: str):
        """Eq. 6: all probes shipped in one bucket request."""
        t_outer = self._tariff[outer]
        t_inner = self._tariff["S" if outer == "R" else "R"]
        cost = (self._tariff["R"] + self._tariff["S"]) * self._query
        # Outer objects are downloaded from their server and uploaded to the
        # inner server inside the bucket request: both hops pay TB(|outer| * Bobj).
        cost = cost + (t_outer + t_inner) * self.tb(self.object_bytes(n_outer))
        expected = self._probe_matches(area, n_inner)
        payload = np.ceil(
            (expected * self._object + self._object) * n_outer
        ).astype(np.int64)
        return cost + t_inner * self.tb(payload)


def predict_algorithm_costs(
    spec,
    window,
    n_r,
    n_s,
    config: NetworkConfig,
    buffer_size,
    bucket_queries: bool,
    grid_k: int,
) -> Dict[str, float]:
    """Predicted tariff-weighted wire cost of each of :data:`SELECTABLE_ALGORITHMS`.

    The query broker's planning signal: the Section 3.1 equations cost
    *strategies* for one window, the broker needs to know which registry
    algorithm should run a whole query.  Each algorithm name maps to a
    closed-form root-window estimate built from the same equations, under
    the query's own configuration, buffer, ``bucket_queries`` and
    ``grid_k``:

    * ``naive``     -- ship both windows wholesale (``c1`` without the
      buffer cut);
    * ``fixedgrid`` -- one repartitioning level on the algorithm's own
      ``FIXED_GRID x FIXED_GRID`` grid (Eq. 8's uniformity estimate, ``c4``
      at that ``k``, whatever ``grid_k`` says);
    * ``mobijoin``  -- the cheapest of ``c1..c4`` at the root, i.e. the
      plan the algorithm's own optimiser would pick first.

    UpJoin and SrJoin are not priced: they COUNT all four quadrants of
    both datasets per split, as MobiJoin does, so this estimate would be
    theirs too.

    Rows follow :class:`CostModel`'s convention: a ``Rect`` with ``int``
    counts and buffer is one query and maps every name to a Python number;
    an ``(N, 4)`` window array with ``(N,)`` counts and buffer sizes is
    ``N`` queries sharing ``spec``'s probe radius, ``config``,
    ``bucket_queries`` and ``grid_k``, and maps every name to an ``(N,)``
    column whose row ``i`` ``==`` the one-query call on row ``i``.

    ``spec`` is a :class:`~repro.core.join_types.JoinSpec`; its predicate's
    probe radius parameterises the underlying :class:`CostModel`.  The
    prediction is a pure function of its arguments: measured totals always
    come from the channels and never feed back into it.
    """
    from repro.core.naive import FIXED_GRID  # deferred: naive imports this module

    model = CostModel(
        config,
        epsilon=spec.predicate().probe_radius(),
        bucket_queries=bucket_queries,
    )
    c1_free = model.c1(window, n_r, n_s)
    c1 = model.c1(window, n_r, n_s, buffer_size)
    c2 = model.c2(window, n_r, n_s)
    c3 = model.c3(window, n_r, n_s)
    c4 = model.c4_estimate(window, n_r, n_s, buffer_size, k=grid_k)
    fixed_grid = model.c4_estimate(window, n_r, n_s, buffer_size, k=FIXED_GRID)
    # ``np.minimum`` folded left in ``min(c1, c2, c3, c4)``'s order.
    predicted = {
        "fixedgrid": fixed_grid,
        "mobijoin": np.minimum(np.minimum(np.minimum(c1, c2), c3), c4),
        "naive": c1_free,
    }
    return {name: _plain(predicted[name]) for name in SELECTABLE_ALGORITHMS}
