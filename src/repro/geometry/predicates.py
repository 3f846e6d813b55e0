"""Join predicates.

The paper studies three join flavours:

* the **intersection join** -- report pairs ``(r, s)`` whose MBRs intersect;
* the **epsilon-distance join** -- report pairs within distance ``epsilon``;
* the **iceberg distance semi-join** -- report objects ``r`` of ``R`` that
  join (within ``epsilon``) with at least ``m`` objects of ``S``.

The first two are pairwise predicates and are modelled here; the iceberg
variant is a post-aggregation over a distance join and lives in
:mod:`repro.core.join_types`.  A predicate only describes the join: its
window rule (:meth:`JoinPredicate.request_windows`) and RANGE probe
radius.  The one evaluation of a predicate is the epsilon-cell kernel of
:mod:`repro.index.hash_join`; the scalar and all-pairs formulas it
replaced are reference code in the tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.geometry import rect_array


class JoinPredicate(ABC):
    """A symmetric pairwise predicate between two MBRs."""

    #: How much the *inner* (S-side) window must be expanded per side so
    #: that a window-based partitioning does not miss qualifying pairs that
    #: straddle a cell boundary.  The reproduction anchors every pair at the
    #: R object: R is queried with the unexpanded cell and S with the cell
    #: grown by this margin (``epsilon`` for distance joins, 0 for
    #: intersection joins), which guarantees that the cell containing the
    #: pair's contact point downloads both objects.
    window_margin: float = 0.0

    def request_windows(self, side: str, rows: np.ndarray) -> np.ndarray:
        """The window rule: the windows server ``side`` is asked for the
        ``(N, 4)`` cells ``rows``.

        A join window restricts R only; S is searched wherever it meets an
        R object.  So R is asked for the rows unchanged and S for the rows
        grown by :attr:`window_margin` (:func:`~repro.geometry.rect_array.expand`,
        ``Rect.expanded`` row by row).  Every request window of a join --
        COUNT, WINDOW, the operators' downloads and SemiJoin's relay --
        comes from here.
        """
        if side == "S":
            return rect_array.expand(rows, self.window_margin)
        return rows

    @abstractmethod
    def probe_radius(self) -> float:
        """Radius of the epsilon-RANGE probe NLSJ issues for one object.

        An intersection join over point/MBR data degenerates to a zero
        radius probe (a window equal to the object's MBR); a distance join
        probes with radius epsilon.
        """

    @abstractmethod
    def describe(self) -> str:
        """Human-readable description (used by traces and reports)."""


@dataclass(frozen=True)
class IntersectionPredicate(JoinPredicate):
    """MBR intersection (the classical spatial-join filter step)."""

    window_margin: float = 0.0

    def probe_radius(self) -> float:
        return 0.0

    def describe(self) -> str:
        return "intersects"


@dataclass(frozen=True)
class WithinDistancePredicate(JoinPredicate):
    """Distance join: minimum MBR separation at most ``epsilon``."""

    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        # ``window_margin`` is declared on the ABC as a class attribute; for
        # the frozen dataclass we shadow it with an instance attribute.
        object.__setattr__(self, "window_margin", self.epsilon)

    def probe_radius(self) -> float:
        return self.epsilon

    def describe(self) -> str:
        return f"within-distance(eps={self.epsilon:g})"
