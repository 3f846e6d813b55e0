"""The PDA object buffer.

The paper expresses the device's memory as a number of object slots
("the PDA's buffer size was set to 800 points").  The buffer enforces that
capacity: an operator level holds each of its downloads in turn with one
:meth:`DeviceBuffer.hold_in_turn` call, which raises when one does not
fit, and the high-water mark is reported by the execution traces so
experiments can verify the constraint was never violated.  Nothing stays
held between calls, so a download fits when it is no larger than the
capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ReproError, require_count

__all__ = ["DeviceBuffer", "BufferExceededError", "capacity", "hold_each_in_turn"]


class BufferExceededError(ReproError, RuntimeError):
    """Raised when an operator tries to hold more objects than the buffer
    allows (typed: in a broker wave it fails that query, not the batch)."""


@dataclass
class DeviceBuffer:
    """A bounded pool of object slots.

    Parameters
    ----------
    capacity:
        Maximum number of objects that may reside on the device at once
        (an integer >= 1).
    """

    capacity: int
    high_water_mark: int = 0

    def __post_init__(self) -> None:
        require_count(self.capacity, "buffer capacity")

    def hold_in_turn(self, sizes: np.ndarray) -> None:
        """Hold ``sizes[0]`` objects, release them, hold ``sizes[1]``, ...

        The accounting of one operator level in one call: the entries before
        the first that does not fit raise the :attr:`high_water_mark`, and
        that one raises :class:`BufferExceededError`.
        """
        if not sizes.shape[0]:
            return
        over = sizes > self.capacity
        if over.any():
            first = int(over.argmax())
            self.hold_in_turn(sizes[:first])
            raise BufferExceededError(
                f"cannot hold {int(sizes[first])} more objects: "
                f"0/{self.capacity} slots already used"
            )
        self.high_water_mark = max(self.high_water_mark, int(sizes.max()))

    def reset(self) -> None:
        """Clear the high-water mark."""
        self.high_water_mark = 0


def hold_each_in_turn(
    buffers: Sequence[Optional[DeviceBuffer]], sizes: np.ndarray, queries: np.ndarray
) -> None:
    """:meth:`DeviceBuffer.hold_in_turn` for the entries of several queries:
    entry ``k`` is held on ``buffers[queries[k]]``, each query's entries in
    their order, none on a ``None`` buffer (a query that left its group)."""
    for q, buffer in enumerate(buffers):
        mine = queries == q
        if buffer is not None and mine.any():
            buffer.hold_in_turn(sizes[mine])


def capacity(buffers: Sequence[Optional[DeviceBuffer]]) -> int:
    """The capacity the buffers of a query group share."""
    return next(buffer for buffer in buffers if buffer is not None).capacity
