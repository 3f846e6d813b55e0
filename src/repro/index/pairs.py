"""Join results as arrays: ``(k, 2)`` ``int64`` blocks of ``(r_oid, s_oid)`` rows.

From the kernels to the caller -- operator results, the algorithms'
accumulator, ``JoinSpec.finalise``'s one dedupe (:func:`unique_pairs`) and
``JoinResult.pairs``, a :class:`PairSet` view over the sorted distinct block
-- pairs stay arrays; a tuple per pair exists only while a caller iterates.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Set as SetABC
from typing import Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["PairBlocks", "PairSet", "as_block", "row_key", "unique_pairs", "unique_rows"]

_KEY_LIMIT = 1 << 63
#: A pair block row as one record: ``searchsorted`` compares them like tuples.
_ROW = np.dtype([("r", np.int64), ("s", np.int64)])


def as_block(pairs) -> np.ndarray:
    """A ``(k, 2)`` ``int64`` block from a block or any iterable of pairs."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def row_key(columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, List[tuple]]:
    """One ``int64`` key per row of integer columns that sorts like the row's
    tuple, and each column's ``(span, origin)``: a digit is the value minus
    the column minimum (the origin), most significant first.  Exact while
    the spans' product is below ``2**63`` -- always for ``arange`` oids.
    Otherwise the columns are first replaced by their dense ranks (origin:
    the sorted distinct values), which keeps the order and bounds a span by
    the row count: exact for two columns up to 3e9 rows, for three while the
    distinct counts' product fits, else ``OverflowError``, never a collision.
    """
    if columns[0].shape[0] == 0:
        return np.empty(0, np.int64), [(1, 0)] * len(columns)
    origins = [int(column.min()) for column in columns]
    spans = [int(column.max()) - low + 1 for column, low in zip(columns, origins)]
    if math.prod(spans) < _KEY_LIMIT:
        digits = [np.subtract(c, low, dtype=np.int64) for c, low in zip(columns, origins)]
    else:
        origins, digits = zip(*(np.unique(column, return_inverse=True) for column in columns))
        spans = [origin.shape[0] for origin in origins]
        if math.prod(spans) >= _KEY_LIMIT:
            raise OverflowError("row key: the columns' distinct counts exceed 2**63")
    key = digits[0]  # a fresh array: the key is built in place
    for digit, span in zip(digits[1:], spans[1:]):
        key *= span
        key += digit
    return key, list(zip(spans, origins))


def unique_rows(*columns: np.ndarray) -> List[np.ndarray]:
    """The distinct rows of integer columns, in tuple order, as ``int64``
    columns: one :func:`row_key`, one sort, one adjacent difference and one
    ``divmod`` per column back."""
    key, radix = row_key(columns)
    key.sort()
    fresh = np.ones(key.shape[0], dtype=bool)
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    key, digits = key[fresh], []
    for span, _ in radix[:0:-1]:
        key, digit = np.divmod(key, span)
        digits.append(digit)
    digits.append(key)
    return [d + low if isinstance(low, int) else low[d] for d, (_, low) in zip(digits[::-1], radix)]


def unique_pairs(block: np.ndarray) -> np.ndarray:
    """The distinct rows of a pair block, sorted."""
    return np.column_stack(unique_rows(block[:, 0], block[:, 1]))


class PairSet(SetABC):
    """A read-only set of ``(r_oid, s_oid)`` pairs over their sorted, distinct block.

    ``PairSet(pairs)`` sorts and deduplicates any pairs; :meth:`over` wraps
    a sorted, distinct block as it is.  ``len`` builds nothing, ``in`` is a
    ``searchsorted`` over the block's rows, iteration yields ``(int, int)``
    in order.  It ``==`` a ``set`` / ``frozenset`` both ways, set operators
    answer a ``PairSet``, it pickles, is unhashable and ``block`` read-only.
    """

    __slots__ = ("block",)

    def __init__(self, pairs=()) -> None:
        self.block = PairSet.over(unique_pairs(as_block(pairs))).block

    @classmethod
    def over(cls, block: np.ndarray) -> "PairSet":
        view = cls.__new__(cls)
        view.block = np.ascontiguousarray(block).view()
        view.block.flags.writeable = False
        return view

    def __len__(self) -> int:
        return self.block.shape[0]

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return map(tuple, self.block.tolist())

    def __contains__(self, pair) -> bool:
        try:
            probe = np.array([tuple(map(operator.index, pair))], dtype=_ROW)
        except (TypeError, ValueError, OverflowError):
            return False
        rows = self.block.view(_ROW).ravel()
        at = int(np.searchsorted(rows, probe)[0])
        return at < rows.shape[0] and bool(rows[at] == probe[0])

    def __eq__(self, other) -> bool:
        if isinstance(other, PairSet):
            return np.array_equal(self.block, other.block)
        return super().__eq__(other)

    def __reduce__(self):
        return PairSet.over, (self.block,)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class PairBlocks:
    """An append-only run of pair blocks; iterates and compares as the
    ``(r_oid, s_oid)`` tuples it holds, in order."""

    __slots__ = ("blocks",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self) -> None:
        self.blocks: List[np.ndarray] = []

    def extend(self, pairs) -> None:
        """Append another run, one block, or any iterable of pairs."""
        if isinstance(pairs, PairBlocks):
            self.blocks.extend(pairs.blocks)
        elif isinstance(pairs, np.ndarray) and pairs.dtype == np.int64:
            self.blocks.append(pairs)  # a kernel's block, as it is
        else:
            self.blocks.append(as_block(pairs))

    def add(self, pair: Tuple[int, int]) -> None:
        self.extend((pair,))

    def clear(self) -> None:
        self.blocks.clear()

    def block(self) -> np.ndarray:
        """Everything appended so far as one ``(k, 2)`` block."""
        return np.concatenate([np.empty((0, 2), dtype=np.int64), *self.blocks])

    def __len__(self) -> int:
        return sum(block.shape[0] for block in self.blocks)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return map(tuple, self.block().tolist())

    def __eq__(self, other) -> bool:
        return list(self) == list(other)
