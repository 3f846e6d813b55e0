"""Quadrant statistics retrieval.

UpJoin and SrJoin learn the distribution of a window by imposing a 2 x 2
grid and counting each cell.  The paper's optimisation (Section 4.1):
"UpJoin can identify a skewed dataset by issuing only three aggregate
queries, since |Dw'4| = |Dw| - sum(|Dw'i|)" -- the fourth count is derived.

The derivation is exact for point datasets.  For extended objects
(segments, polygons) an object can intersect several quadrants and the
derived value becomes an *underestimate*; it is then only used for cost
estimation, and whenever it would drive a pruning decision (derived value
of zero) a real COUNT query is issued so no result pair can ever be lost.

The retrieval logic is a *request generator*
(:func:`quadrant_count_steps`): it yields :class:`CountRequest` batches and
receives the counts.  The shared level-order frontier engine
(:mod:`repro.core.frontier`, used by UpJoin and SrJoin) drives it,
concatenating the requests of every window at a recursion depth into one
batched COUNT exchange per server; the depth-first oracle
(``tests/oracles/recursive_driver.py``) answers each request on its own.
Both issue the same queries with the same payloads, so the metered bytes
are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Tuple

from repro.geometry.rect import Rect

__all__ = [
    "CountRequest",
    "QuadrantCounts",
    "estimate_quadrant_counts",
    "quadrant_count_steps",
]


@dataclass(frozen=True)
class CountRequest:
    """One batch of COUNT queries a planning step wants answered.

    ``rects`` are *raw* query windows (all margins already applied).
    """

    server: str
    rects: Tuple[Rect, ...]


#: The protocol spoken by planning-step generators: yield a list of
#: :class:`CountRequest` and receive one list of counts per request.
CountSteps = Generator[List[CountRequest], List[List[int]], "QuadrantCounts"]


@dataclass(frozen=True)
class QuadrantCounts:
    """Counts of one dataset over the four quadrants of a window."""

    window: Rect
    quadrants: Tuple[Rect, Rect, Rect, Rect]
    counts: Tuple[float, float, float, float]
    #: Whether each count came from a real COUNT query (False = derived or
    #: estimated from a uniformity assumption).
    exact: Tuple[bool, bool, bool, bool]
    #: Number of COUNT queries actually issued to obtain these statistics.
    queries_issued: int

    def count(self, i: int) -> float:
        return self.counts[i]

    def is_exact(self, i: int) -> bool:
        return self.exact[i]

    def total(self) -> float:
        return float(sum(self.counts))


def quadrant_count_steps(
    server_name: str,
    window: Rect,
    parent_count: int,
    derive_fourth: bool = True,
    margin: float = 0.0,
) -> CountSteps:
    """Retrieve the quadrant counts of ``window`` for one server.

    A request generator: yields :class:`CountRequest` batches and receives
    the counts; returns the assembled :class:`QuadrantCounts`.

    Parameters
    ----------
    server_name:
        ``"R"`` or ``"S"``.
    window:
        The window being decomposed.
    parent_count:
        The already-known count of the whole window (from the caller's
        earlier COUNT query), used to derive the last quadrant.
    derive_fourth:
        Apply the three-queries-plus-derivation optimisation.  When the
        derived value would be non-positive a real COUNT is issued instead,
        so pruning decisions are always based on exact zeros.
    margin:
        Per-side expansion applied to each quadrant before counting
        (``epsilon / 2`` for distance joins), keeping the statistics
        consistent with the windows the physical operators download.
    """
    quadrants = tuple(window.quadrants())
    probes = [q.expanded(margin) if margin > 0 else q for q in quadrants]
    # The three (or four) unconditional COUNTs are shipped as one batch: the
    # same queries in the same order, answered in a single index descent.
    lead = probes[:3] if derive_fourth else probes
    lead_counts = (yield [CountRequest(server_name, tuple(lead))])[0]
    counts: List[float] = [float(c) for c in lead_counts]
    exact: List[bool] = [True] * len(counts)
    issued = len(counts)
    if derive_fourth:
        derived = parent_count - sum(counts)
        if derived > 0:
            counts.append(float(derived))
            exact.append(False)
        else:
            # Derived value suspicious (0 or negative, possible for extended
            # objects or overlapping expanded quadrants): confirm with a
            # real query before anyone prunes on it.
            real = (yield [CountRequest(server_name, (probes[3],))])[0][0]
            issued += 1
            counts.append(float(real))
            exact.append(True)
    return QuadrantCounts(
        window=window,
        quadrants=quadrants,  # type: ignore[arg-type]
        counts=tuple(counts),  # type: ignore[arg-type]
        exact=tuple(exact),  # type: ignore[arg-type]
        queries_issued=issued,
    )


def estimate_quadrant_counts(window: Rect, parent_count: float) -> QuadrantCounts:
    """Quadrant counts under the uniformity assumption (no queries issued).

    Used when a dataset has already been characterised as uniform at an
    earlier recursion step: the paper's UpJoin "estimates the number of
    objects in the quadrants, based on |Dw| and the uniformity assumption".

    ``parent_count`` may be fractional (itself an estimate from an earlier
    level); the four quarters always sum to *exactly* the parent total
    (division by four is exact in binary floating point), so repeated
    estimation down a recursion path conserves mass instead of drifting by
    up to +-1 object per level through premature integer rounding.
    """
    quadrants = tuple(window.quadrants())
    quarter = parent_count / 4.0
    return QuadrantCounts(
        window=window,
        quadrants=quadrants,  # type: ignore[arg-type]
        counts=(quarter, quarter, quarter, quarter),
        exact=(False, False, False, False),
        queries_issued=0,
    )
