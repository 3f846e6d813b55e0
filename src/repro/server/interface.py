"""The abstract server interface: the only contract clients can rely on.

The paper assumes "services allow only a limited set of queries through a
standard interface"; this module is that interface.  Both the in-process
:class:`~repro.server.server.SpatialServer` and the metered
:class:`~repro.server.remote.RemoteServer` proxy implement it, so join
algorithms can be unit-tested against a local server and then run unchanged
against the metered proxies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect

__all__ = ["SpatialServerInterface"]


class SpatialServerInterface(ABC):
    """The narrow, non-cooperative server protocol."""

    #: Server name used in traces ("R" or "S" by convention).
    name: str

    # ------------------------------------------------------------------ #
    # the three primitive queries of Section 3
    # ------------------------------------------------------------------ #

    @abstractmethod
    def window(self, window: Rect) -> Tuple[np.ndarray, np.ndarray]:
        """WINDOW query: ``(mbrs, oids)`` of objects intersecting ``window``."""

    @abstractmethod
    def count(self, window: Rect) -> int:
        """COUNT query: number of objects intersecting ``window``."""

    @abstractmethod
    def range(self, center: Point, epsilon: float) -> Tuple[np.ndarray, np.ndarray]:
        """epsilon-RANGE query: objects within ``epsilon`` of ``center``.

        The paper notes that when a server lacks a native range query it can
        be simulated by a window query with side ``2 * epsilon``; servers in
        this reproduction implement the exact circular semantics.
        """

    # ------------------------------------------------------------------ #
    # optional extensions used by the cost model / bucket NLSJ
    # ------------------------------------------------------------------ #

    @abstractmethod
    def bucket_range(
        self,
        centers: Sequence[Point],
        epsilon: float,
        radii: "Sequence[float] | None" = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bucket epsilon-RANGE: many probes in one request.

        Returns ``(mbrs, oids, probe_index)`` where ``probe_index[i]`` is
        the index of the probe that produced result row ``i``.  Results are
        *not* deduplicated across probes -- the server answers each probe
        independently, exactly as a sequence of range queries would, and the
        client pays the (possibly duplicated) transfer bytes.  ``radii``
        optionally overrides the radius per probe (extended probe objects of
        different sizes).
        """

    @abstractmethod
    def average_mbr_area(self, window: Rect) -> float:
        """Scalar aggregate: average object-MBR area inside ``window``."""
