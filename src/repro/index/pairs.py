"""Join results as arrays: ``(k, 2)`` ``int64`` blocks of ``(r_oid, s_oid)`` rows.

The kernels produce pairs as arrays and the public answer is a ``set`` of
tuples; everything in between -- operator results, the algorithms'
accumulator -- carries the array blocks untouched, so the Python tuples are
built exactly once, in ``MobileJoinAlgorithm._assemble``.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

__all__ = ["PairBlocks", "as_block", "unique_pairs"]


def as_block(pairs) -> np.ndarray:
    """A ``(k, 2)`` ``int64`` block from a block or any iterable of pairs."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def unique_pairs(block: np.ndarray) -> np.ndarray:
    """The distinct rows of a pair block, sorted: lexsort + adjacent difference."""
    order = np.lexsort((block[:, 1], block[:, 0]))
    block = block[order]
    fresh = np.ones(block.shape[0], dtype=bool)
    fresh[1:] = (block[1:] != block[:-1]).any(axis=1)
    return block[fresh]


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
