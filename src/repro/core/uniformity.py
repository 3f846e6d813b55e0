"""Distribution tests: Equations 9, 10 and 11 of the paper.

* :func:`is_uniform` -- Eq. 9: a window is *uniform* for a dataset when
  every quadrant count is within ``alpha * |Dw|`` of the expected quarter.
* :func:`worth_retrieving_statistics` -- Eq. 10: asking for quadrant
  statistics only pays off when shipping the window's objects would cost
  more than three aggregate queries.
* :func:`density_bitmap` -- Eq. 11: SrJoin's 4-bit density signature of a
  window; a quadrant's bit is set when its count exceeds ``rho`` times the
  window's average density times the quadrant area.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.costmodel import CostModel
from repro.geometry.rect import Rect

__all__ = [
    "is_uniform",
    "confirms_uniformity",
    "worth_retrieving_statistics",
    "density_bitmap",
    "bitmaps_equal",
]


def is_uniform(total_count: int, quadrant_counts: Sequence[float], alpha: float) -> bool:
    """Eq. 9: uniformity test over the quadrant counts of a window.

    ``| |Dw|/4 - |Dw'_i| | < alpha * |Dw|`` must hold for every quadrant.
    An empty window is trivially uniform.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if len(quadrant_counts) != 4:
        raise ValueError("exactly four quadrant counts are required")
    if total_count == 0:
        return True
    expected = total_count / 4.0
    threshold = alpha * total_count
    return all(abs(expected - c) < threshold for c in quadrant_counts)


def confirms_uniformity(
    total_count: int, probe_count: float, alpha: float
) -> bool:
    """The extra random-window check of UpJoin (Section 4.1, line 6).

    The probe window has the area of one quadrant but a random location;
    its count must satisfy the same Eq. 9 bound as the quadrants.
    """
    if total_count == 0:
        return True
    expected = total_count / 4.0
    return abs(expected - probe_count) < alpha * total_count


def worth_retrieving_statistics(count, model: CostModel):
    """Eq. 10: ``TB(|Dw| * B_obj) > 3 * Taq``.

    When the window's objects are cheaper to ship than three aggregate
    queries, UpJoin does not bother asking for quadrant statistics (the
    window is treated as uniform).  ``count`` is an ``int`` or an ``(N,)``
    ``int64`` array (one verdict per element); a negative count is a
    ``ValueError`` (raised by the packetisation model).
    """
    return model.tb(model.object_bytes(count)) > 3.0 * model.taq


def density_bitmap(
    window: Rect,
    quadrants: Sequence[Rect],
    total_count: int,
    quadrant_counts: Sequence[float],
    rho: float,
) -> Tuple[bool, bool, bool, bool]:
    """Eq. 11: the 4-bit density signature used by SrJoin.

    Quadrant ``i`` is dense when

        ``|Dw_i| > rho * (|Dw| / |Aw|) * |Aw_i|``

    where ``|Aw|`` is the window area and ``|Aw_i|`` the quadrant area.
    ``rho`` is expressed as a fraction of the average density (the paper's
    best value is 30%, i.e. ``rho = 0.3``).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if len(quadrants) != 4 or len(quadrant_counts) != 4:
        raise ValueError("exactly four quadrants and counts are required")
    area = window.area
    if area <= 0 or total_count == 0:
        return (False, False, False, False)
    avg_density = total_count / area
    bits = tuple(
        count > rho * avg_density * quadrant.area
        for quadrant, count in zip(quadrants, quadrant_counts)
    )
    return bits  # type: ignore[return-value]


def bitmaps_equal(
    bits_r: Sequence[bool], bits_s: Sequence[bool]
) -> bool:
    """True when the two density bitmaps agree on every quadrant."""
    if len(bits_r) != len(bits_s):
        raise ValueError("bitmaps must have the same length")
    return all(a == b for a, b in zip(bits_r, bits_s))
