"""Join specifications.

The paper evaluates three query types (Section 1):

* the spatial **intersection join** ``R intersects S``;
* the **epsilon-distance join**: pairs within distance epsilon;
* the **iceberg distance semi-join**: objects of ``R`` within epsilon of at
  least ``m`` objects of ``S`` ("find the hotels which are close to at
  least 10 restaurants").

A :class:`JoinSpec` captures the query; algorithms execute the underlying
pairwise join and :meth:`JoinSpec.finalise` deduplicates the pair blocks
they collected and applies the semi-join / iceberg post-aggregation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import InvalidInput
from repro.geometry.predicates import (
    IntersectionPredicate,
    JoinPredicate,
    WithinDistancePredicate,
)
from repro.index.pairs import as_block, unique_pairs

__all__ = ["JoinKind", "JoinSpec"]


class JoinKind(enum.Enum):
    """The query types studied in the paper."""

    INTERSECTION = "intersection"
    DISTANCE = "distance"
    ICEBERG_SEMI = "iceberg_semi"


@dataclass(frozen=True)
class JoinSpec:
    """A fully specified ad-hoc spatial join query.

    Parameters
    ----------
    kind:
        The query type.
    epsilon:
        Distance threshold (required > 0 for distance / iceberg queries).
    min_matches:
        The iceberg threshold ``m`` (only for :attr:`JoinKind.ICEBERG_SEMI`).
    """

    kind: JoinKind = JoinKind.DISTANCE
    epsilon: float = 0.0
    min_matches: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise InvalidInput(
                f"epsilon must be finite and non-negative, got {self.epsilon!r}"
            )
        if self.kind in (JoinKind.DISTANCE, JoinKind.ICEBERG_SEMI) and self.epsilon <= 0:
            raise InvalidInput(f"{self.kind.value} joins require epsilon > 0")
        if self.kind is JoinKind.INTERSECTION and self.epsilon != 0.0:
            raise InvalidInput("intersection joins do not take an epsilon")
        if self.min_matches < 1:
            raise InvalidInput("min_matches must be >= 1")
        if self.kind is not JoinKind.ICEBERG_SEMI and self.min_matches != 1:
            raise InvalidInput("min_matches is only meaningful for iceberg semi-joins")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @staticmethod
    def intersection() -> "JoinSpec":
        """An MBR intersection join."""
        return JoinSpec(kind=JoinKind.INTERSECTION, epsilon=0.0)

    @staticmethod
    def distance(epsilon: float) -> "JoinSpec":
        """An epsilon-distance join."""
        return JoinSpec(kind=JoinKind.DISTANCE, epsilon=epsilon)

    @staticmethod
    def iceberg(epsilon: float, min_matches: int) -> "JoinSpec":
        """An iceberg distance semi-join ("close to at least m objects")."""
        return JoinSpec(kind=JoinKind.ICEBERG_SEMI, epsilon=epsilon, min_matches=min_matches)

    # ------------------------------------------------------------------ #

    @property
    def is_semi_join(self) -> bool:
        """True when the answer is a set of R objects rather than pairs."""
        return self.kind is JoinKind.ICEBERG_SEMI

    def predicate(self) -> JoinPredicate:
        """The pairwise predicate the physical operators evaluate."""
        if self.kind is JoinKind.INTERSECTION:
            return IntersectionPredicate()
        return WithinDistancePredicate(epsilon=self.epsilon)

    def finalise(self, pairs) -> "JoinAnswer":
        """Turn the raw pairs (a ``(k, 2)`` block, duplicates and all, or any
        iterable of pairs) into the query answer.

        For pair joins the answer is the deduplicated, sorted pair block;
        for the iceberg semi-join also the ascending R object ids with at
        least ``min_matches`` distinct partners.
        """
        block = unique_pairs(as_block(pairs))
        if not self.is_semi_join:
            return JoinAnswer(pairs=block, objects=[])
        oids, partners = np.unique(block[:, 0], return_counts=True)
        return JoinAnswer(pairs=block, objects=oids[partners >= self.min_matches].tolist())

    def describe(self) -> str:
        if self.kind is JoinKind.INTERSECTION:
            return "intersection join"
        if self.kind is JoinKind.DISTANCE:
            return f"distance join (eps={self.epsilon:g})"
        return f"iceberg distance semi-join (eps={self.epsilon:g}, m={self.min_matches})"


@dataclass(frozen=True)
class JoinAnswer:
    """The finalised answer of a join query.

    ``pairs`` always holds the deduplicated qualifying pairs as a sorted
    ``(k, 2)`` ``int64`` block (useful for verification); ``objects`` is
    non-empty only for semi-join queries.
    """

    pairs: np.ndarray
    objects: List[int] = field(default_factory=list)
