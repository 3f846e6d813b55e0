"""The one-event-at-a-time trace recorder of the window-by-window oracles.

The oracles that decide window by window
(:mod:`tests.oracles.frontier_generators`, :mod:`tests.oracles.semijoin_scalar`
and ``tests/test_equivalence.py``'s per-cell FixedGrid) record with it.  The
shipped algorithms record every row as a row of a level table
(:class:`repro.core.result.LevelTrace`); these oracles build each event as
it is decided, as the algorithms' own ``record`` / ``prune`` once did, so
the suites compare two independent recorders.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.result import TraceEvent
from repro.geometry.rect import Rect

__all__ = ["EagerTrace"]


class EagerTrace:
    """Mixin for an algorithm: ``record`` and ``prune`` one window at a time."""

    def record(
        self,
        depth: int,
        window: Rect,
        action: str,
        detail: str = "",
        count_r: Optional[int] = None,
        count_s: Optional[int] = None,
        sink: Optional[List[TraceEvent]] = None,
    ) -> None:
        """Append one trace event: to ``sink`` when given (a caller splices
        it in window order), else to the run's trace, after the parts
        recorded so far."""
        event = TraceEvent(depth, window, action, detail, count_r, count_s)
        if sink is not None:
            sink.append(event)
            return
        if not (self._trace and isinstance(self._trace[-1], list)):
            self._trace.append([])
        self._trace[-1].append(event)

    def prune(self, window: Rect, depth: int, count_r: int, count_s: int) -> None:
        """Record that a window produced no work (one side empty)."""
        self.device.counts.windows_pruned += 1
        self.record(depth, window, "prune", "empty side", count_r, count_s)
