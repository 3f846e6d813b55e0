"""Distribution tests: Equations 9, 10 and 11 of the paper.

* :func:`is_uniform` -- Eq. 9: a window is *uniform* for a dataset when
  every quadrant count is within ``alpha * |Dw|`` of the expected quarter.
* :func:`worth_retrieving_statistics` -- Eq. 10: asking for quadrant
  statistics only pays off when shipping the window's objects would cost
  more than three aggregate queries.
* :func:`density_bitmap` -- Eq. 11: SrJoin's 4-bit density signature of a
  window; a quadrant's bit is set when its count exceeds ``rho`` times the
  window's average density times the quadrant area.

Every test is array-valued: one window (an ``int`` total, four counts, a
:class:`Rect`) gives plain Python values, the ``N`` windows of a frontier
level (``(N,)`` totals, ``(N, 4)`` counts, ``(N, 4)`` windows) give one
verdict per row -- the same float operations in the same order either way
(``tests/test_uniformity_stats.py`` pins them against the scalar originals
in ``tests/oracles/frontier_generators.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.costmodel import CostModel, _plain
from repro.geometry import rect_array
from repro.geometry.rect import Rect

__all__ = [
    "is_uniform",
    "confirms_uniformity",
    "worth_retrieving_statistics",
    "density_bitmap",
    "bitmaps_equal",
]


def is_uniform(total_count, quadrant_counts, alpha: float):
    """Eq. 9: uniformity test over the quadrant counts of a window.

    ``| |Dw|/4 - |Dw'_i| | < alpha * |Dw|`` must hold for every quadrant.
    An empty window is trivially uniform.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    counts = np.asarray(quadrant_counts, dtype=np.float64)
    if counts.shape[-1:] != (4,):
        raise ValueError("exactly four quadrant counts are required")
    total = np.asarray(total_count)
    return _plain(confirms_uniformity(total[..., None], counts, alpha).all(axis=-1))


def confirms_uniformity(total_count, probe_count, alpha: float):
    """The extra random-window check of UpJoin (Section 4.1, line 6).

    The probe window has the area of one quadrant but a random location;
    its count must satisfy the same Eq. 9 bound as the quadrants.
    """
    total = np.asarray(total_count)
    expected = total / 4.0
    return _plain((total == 0) | (np.abs(expected - probe_count) < alpha * total))


def worth_retrieving_statistics(count, model: CostModel):
    """Eq. 10: ``TB(|Dw| * B_obj) > 3 * Taq``.

    When the window's objects are cheaper to ship than three aggregate
    queries, UpJoin does not bother asking for quadrant statistics (the
    window is treated as uniform).  ``count`` is an ``int`` or an ``(N,)``
    ``int64`` array (one verdict per element); a negative count is a
    ``ValueError`` (raised by the packetisation model).
    """
    return model.tb(model.object_bytes(count)) > 3.0 * model.taq


def density_bitmap(window, quadrants, total_count, quadrant_counts, rho: float):
    """Eq. 11: the 4-bit density signature used by SrJoin.

    Quadrant ``i`` is dense when

        ``|Dw_i| > rho * (|Dw| / |Aw|) * |Aw_i|``

    where ``|Aw|`` is the window area and ``|Aw_i|`` the quadrant area.
    ``rho`` is expressed as a fraction of the average density (the paper's
    best value is 30%, i.e. ``rho = 0.3``).  One :class:`Rect` with its four
    quadrant rectangles gives a tuple of four ``bool``; ``(N, 4)`` windows
    with ``(N, 4, 4)`` quadrants an ``(N, 4)`` mask.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    single = isinstance(window, Rect)
    if single:
        window = np.array([window.as_tuple()])
        quadrants = rect_array.rects_to_array(quadrants)[None]
    counts = np.asarray(quadrant_counts, dtype=np.float64).reshape(window.shape[0], -1)
    if quadrants.shape[1:] != (4, 4) or counts.shape[1] != 4:
        raise ValueError("exactly four quadrants and counts are required")
    total = np.asarray(total_count).reshape(-1)
    area = rect_array.areas(window)
    blank = (area <= 0) | (total == 0)
    density = total / np.where(blank, 1.0, area)
    widths = quadrants[..., 2] - quadrants[..., 0]
    heights = quadrants[..., 3] - quadrants[..., 1]
    bits = (counts > (rho * density)[:, None] * (widths * heights)) & ~blank[:, None]
    return tuple(bits[0].tolist()) if single else bits


def bitmaps_equal(bits_r, bits_s):
    """True when the two density bitmaps agree on every quadrant (one
    verdict per row for ``(N, 4)`` masks)."""
    bits_r, bits_s = np.asarray(bits_r), np.asarray(bits_s)
    if bits_r.shape != bits_s.shape:
        raise ValueError("bitmaps must have the same length")
    return _plain((bits_r == bits_s).all(axis=-1))
