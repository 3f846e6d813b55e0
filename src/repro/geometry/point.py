"""Immutable 2D points.

Points are the primary object type of the paper's synthetic workloads
("1000 points ... clustered around k randomly selected centers").  A point
carries an opaque object identifier (``oid``) so that join results can be
reported as id pairs, plus an optional payload size override used when an
object should be accounted with a non-default wire size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple


@dataclass(frozen=True, slots=True)
class Point:
    """An immutable point in the unit (or any) 2D coordinate space.

    Parameters
    ----------
    x, y:
        Coordinates.
    oid:
        Object identifier.  Defaults to ``-1`` (anonymous point); dataset
        containers always assign explicit, unique ids.
    """

    x: float
    y: float
    oid: int = field(default=-1, compare=False)

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def __str__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Point({self.x:.6g}, {self.y:.6g}, oid={self.oid})"
