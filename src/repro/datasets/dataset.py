"""The :class:`SpatialDataset` container.

A dataset is an immutable collection of spatial objects, stored as an
``(N, 4)`` MBR array plus a parallel object-id array.  Point datasets are
degenerate MBRs.  Servers are constructed from datasets; the join
algorithms themselves never touch a dataset directly (they only see the
server interfaces), but tests and the brute-force oracles do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import rect_array
from repro.geometry.point import Point
from repro.geometry.rect import Rect

__all__ = ["SpatialDataset"]


@dataclass(frozen=True)
class SpatialDataset:
    """An immutable set of spatial objects.

    Parameters
    ----------
    mbrs:
        ``(N, 4)`` array of object MBRs (``xmin, ymin, xmax, ymax``).
    oids:
        Optional ``(N,)`` integer id array; defaults to ``0..N-1``.
    name:
        Human-readable name used in traces and reports.
    metadata:
        Free-form generator parameters (cluster count, seed, ...), kept so
        experiments can be reproduced from a result file alone.
    """

    mbrs: np.ndarray
    oids: np.ndarray = field(default=None)  # type: ignore[assignment]
    name: str = "dataset"
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        mbrs = rect_array.as_mbr_array(self.mbrs)
        object.__setattr__(self, "mbrs", mbrs)
        if self.oids is None:
            oids = np.arange(mbrs.shape[0], dtype=np.int64)
        else:
            oids = np.asarray(self.oids, dtype=np.int64)
            if oids.shape != (mbrs.shape[0],):
                raise ValueError("oids must be a 1D array parallel to mbrs")
            if len(np.unique(oids)) != oids.shape[0]:
                raise ValueError("oids must be unique")
        object.__setattr__(self, "oids", oids)
        mbrs.setflags(write=False)
        oids.setflags(write=False)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_points(
        points: np.ndarray,
        name: str = "points",
        metadata: Optional[Dict[str, object]] = None,
    ) -> "SpatialDataset":
        """Build a dataset of degenerate MBRs from an ``(N, 2)`` point array."""
        return SpatialDataset(
            mbrs=rect_array.points_to_mbrs(points),
            name=name,
            metadata=dict(metadata or {}),
        )

    @staticmethod
    def from_rects(
        rects: Sequence[Rect],
        name: str = "rects",
        metadata: Optional[Dict[str, object]] = None,
    ) -> "SpatialDataset":
        """Build a dataset from a sequence of :class:`Rect` objects."""
        if rects:
            arr = np.array([r.as_tuple() for r in rects], dtype=rect_array.MBR_DTYPE)
        else:
            arr = rect_array.empty_mbrs()
        return SpatialDataset(mbrs=arr, name=name, metadata=dict(metadata or {}))

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return int(self.mbrs.shape[0])

    def __iter__(self) -> Iterator[Tuple[Rect, int]]:
        for row, oid in zip(self.mbrs, self.oids):
            yield Rect(float(row[0]), float(row[1]), float(row[2]), float(row[3])), int(oid)

    @property
    def is_point_data(self) -> bool:
        """True when every object is a degenerate (point) MBR."""
        if len(self) == 0:
            return True
        return bool(
            np.all(self.mbrs[:, 0] == self.mbrs[:, 2])
            and np.all(self.mbrs[:, 1] == self.mbrs[:, 3])
        )

    def bounds(self) -> Rect:
        """The MBR of the whole dataset (raises for an empty dataset)."""
        return rect_array.bounding_rect(self.mbrs)

    def centers(self) -> np.ndarray:
        """Object centres as an ``(N, 2)`` array."""
        return rect_array.centers(self.mbrs)

    def rect_of(self, oid: int) -> Rect:
        """The MBR of one object by id."""
        idx = self._index_of(oid)
        row = self.mbrs[idx]
        return Rect(float(row[0]), float(row[1]), float(row[2]), float(row[3]))

    # ------------------------------------------------------------------ #
    # filtering (used by servers and oracles; vectorised)
    # ------------------------------------------------------------------ #

    def window_mask(self, window: Rect) -> np.ndarray:
        """Boolean mask of objects intersecting the window."""
        return rect_array.intersects_window(self.mbrs, window)

    def count_in_window(self, window: Rect) -> int:
        """Number of objects intersecting the window."""
        return rect_array.count_in_window(self.mbrs, window)

    def subset(self, mask: np.ndarray, name: Optional[str] = None) -> "SpatialDataset":
        """A new dataset containing only the masked objects (ids preserved)."""
        return SpatialDataset(
            mbrs=self.mbrs[mask],
            oids=self.oids[mask],
            name=name or self.name,
            metadata=dict(self.metadata),
        )

    def clip_to_window(self, window: Rect) -> "SpatialDataset":
        """Objects intersecting the window (ids preserved)."""
        return self.subset(self.window_mask(window), name=f"{self.name}|{window}")

    def within_distance_of(self, center: Point, epsilon: float) -> "SpatialDataset":
        """Objects within ``epsilon`` of ``center`` (ids preserved)."""
        mask = rect_array.within_distance_of_point(self.mbrs, center.x, center.y, epsilon)
        return self.subset(mask)

    def average_mbr_area_in(self, window: Rect) -> float:
        """Average object-MBR area over a window (0.0 when empty)."""
        mask = self.window_mask(window)
        if not np.any(mask):
            return 0.0
        return float(rect_array.areas(self.mbrs[mask]).mean())

    # ------------------------------------------------------------------ #

    def rename(self, name: str) -> "SpatialDataset":
        """A shallow copy with a different name, sharing this dataset's arrays."""
        return self._trusted(
            mbrs=self.mbrs, oids=self.oids, name=name, metadata=dict(self.metadata)
        )

    @classmethod
    def _trusted(cls, **fields) -> "SpatialDataset":
        """Wrap the arrays of an existing dataset, which a public construction
        validated and froze: no ``__post_init__`` (finite / inverted / unique scans)."""
        self = object.__new__(cls)
        self.__dict__.update(fields)
        return self

    def entries(self) -> List[Tuple[Rect, int]]:
        """All ``(Rect, oid)`` pairs, materialised once and cached.

        The servers build their indexes straight from the ``mbrs`` array;
        this list form remains for the incremental-construction APIs, the
        oracles and the tests.  Returns a fresh shallow copy per call (the
        tuples are shared, the list is the caller's), preserving the
        pre-cache aliasing contract.
        """
        cached = self.__dict__.get("_entries_cache")
        if cached is None:
            cached = list(iter(self))
            object.__setattr__(self, "_entries_cache", cached)
        return list(cached)

    def _index_of(self, oid: int) -> int:
        idx = np.nonzero(self.oids == oid)[0]
        if idx.size == 0:
            raise KeyError(f"no object with id {oid} in dataset {self.name!r}")
        return int(idx[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"SpatialDataset(name={self.name!r}, n={len(self)})"
