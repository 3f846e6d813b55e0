"""The :class:`SpatialDataset` container.

A dataset is an immutable collection of spatial objects, stored as an
``(N, 4)`` MBR array plus a parallel object-id array.  Point datasets are
degenerate MBRs.  Servers are constructed from datasets; the join
algorithms themselves never touch a dataset directly (they only see the
server interfaces), but tests and the brute-force oracles do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import InvalidInput
from repro.geometry import rect_array
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

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return int(self.mbrs.shape[0])

    def __iter__(self) -> Iterator[Tuple[Rect, int]]:
        for row, oid in zip(self.mbrs, self.oids):
            yield Rect(float(row[0]), float(row[1]), float(row[2]), float(row[3])), int(oid)

    def bounds(self) -> Rect:
        """The MBR of the whole dataset (raises for an empty dataset),
        computed once and cached: the dataset is frozen."""
        cached = self.__dict__.get("_bounds_cache")
        if cached is None:
            cached = rect_array.bounding_rect(self.mbrs)
            object.__setattr__(self, "_bounds_cache", cached)
        return cached

    def centers(self) -> np.ndarray:
        """Object centres as an ``(N, 2)`` array."""
        return rect_array.centers(self.mbrs)

    # ------------------------------------------------------------------ #
    # filtering (used by servers and oracles; vectorised)
    # ------------------------------------------------------------------ #

    def window_mask(self, window: Rect) -> np.ndarray:
        """Boolean mask of objects intersecting the window."""
        return rect_array.intersects_window(self.mbrs, window)

    def subset(self, mask: np.ndarray, name: Optional[str] = None) -> "SpatialDataset":
        """A new dataset containing only the masked objects (ids preserved).

        ``mask`` is a boolean array of length ``len(self)``, else
        :class:`~repro.errors.InvalidInput`: a mask cannot repeat a row, so
        the rows it keeps are as finite, upright and uniquely identified as
        this dataset's and are wrapped without being checked again.
        """
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != (len(self),):
            raise InvalidInput(
                f"a subset takes a boolean mask of shape ({len(self)},), "
                f"got {mask.dtype} of shape {mask.shape}"
            )
        mbrs, oids = self.mbrs[mask], self.oids[mask]
        mbrs.setflags(write=False)
        oids.setflags(write=False)
        return self._trusted(
            mbrs=mbrs, oids=oids, name=name or self.name, metadata=dict(self.metadata)
        )

    def clip_to_window(self, window: Rect) -> "SpatialDataset":
        """Objects intersecting the window (ids preserved)."""
        return self.subset(self.window_mask(window), name=f"{self.name}|{window}")

    # ------------------------------------------------------------------ #

    def rename(self, name: str) -> "SpatialDataset":
        """A shallow copy with a different name, sharing this dataset's arrays."""
        return self._trusted(
            mbrs=self.mbrs, oids=self.oids, name=name, metadata=dict(self.metadata)
        )

    @classmethod
    def _trusted(cls, **fields) -> "SpatialDataset":
        """Wrap arrays taken from an existing dataset -- its own, or the rows a
        :meth:`subset` mask kept -- which a public construction validated, and
        frozen: no ``__post_init__`` (finite / inverted / unique scans)."""
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

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"SpatialDataset(name={self.name!r}, n={len(self)})"
