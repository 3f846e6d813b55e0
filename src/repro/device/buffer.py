"""The PDA object buffer.

The paper expresses the device's memory as a number of object slots
("the PDA's buffer size was set to 800 points").  The buffer enforces that
capacity: HBSJ asks whether the two windows fit before downloading them,
and the high-water mark is reported by the execution traces so experiments
can verify the constraint was never violated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.errors import ReproError, require_count

__all__ = ["DeviceBuffer", "BufferExceededError"]


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
    used: int = 0
    high_water_mark: int = 0
    #: Live allocations by token; a released token's slot is reclaimed.
    _allocations: Dict[int, int] = field(default_factory=dict, repr=False)
    _next_token: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        require_count(self.capacity, "buffer capacity")

    # ------------------------------------------------------------------ #

    @property
    def free(self) -> int:
        return self.capacity - self.used

    def can_fit(self, num_objects: int) -> bool:
        """True when ``num_objects`` additional objects fit right now."""
        if num_objects < 0:
            raise ValueError("num_objects must be non-negative")
        return self.used + num_objects <= self.capacity

    def allocate(self, num_objects: int) -> int:
        """Reserve slots for ``num_objects``; returns an allocation token.

        Raises
        ------
        BufferExceededError
            When the objects do not fit.  Operators are expected to check
            :meth:`can_fit` first; the exception is a safety net that keeps
            the buffer constraint honest in the face of estimation errors.
        """
        if not self.can_fit(num_objects):
            raise self._exceeded(num_objects)
        self.used += num_objects
        self.high_water_mark = max(self.high_water_mark, self.used)
        token = self._next_token
        self._next_token += 1
        self._allocations[token] = num_objects
        return token

    def release(self, token: int) -> None:
        """Release a previous allocation by token (a second release is a no-op)."""
        if not 0 <= token < self._next_token:
            raise ValueError(f"unknown allocation token {token}")
        self.used -= self._allocations.pop(token, 0)

    def hold_in_turn(self, sizes: np.ndarray) -> None:
        """Hold ``sizes[0]`` objects, release them, hold ``sizes[1]``, ...

        The accounting of one operator level in one call: the overflow
        condition, the error and the :attr:`high_water_mark` are those of an
        :meth:`allocate` / :meth:`release` pair per entry, in order.
        """
        if not sizes.shape[0]:
            return
        over = self.used + sizes > self.capacity
        if over.any():
            first = int(over.argmax())
            self.hold_in_turn(sizes[:first])
            raise self._exceeded(int(sizes[first]))
        self.high_water_mark = max(self.high_water_mark, self.used + int(sizes.max()))

    def _exceeded(self, num_objects: int) -> BufferExceededError:
        return BufferExceededError(
            f"cannot hold {num_objects} more objects: "
            f"{self.used}/{self.capacity} slots already used"
        )

    def release_all(self) -> None:
        """Drop every allocation (end of an operator invocation)."""
        self.used = 0
        self._allocations.clear()

    def reset(self) -> None:
        """Release everything and clear the high-water mark."""
        self.release_all()
        self.high_water_mark = 0
