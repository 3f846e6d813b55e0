"""The PDA object buffer.

The paper expresses the device's memory as a number of object slots
("the PDA's buffer size was set to 800 points").  The buffer enforces that
capacity: HBSJ asks whether the two windows fit before downloading them,
and the high-water mark is reported by the execution traces so experiments
can verify the constraint was never violated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import InvalidInput

__all__ = ["DeviceBuffer", "BufferExceededError"]


class BufferExceededError(RuntimeError):
    """Raised when an operator tries to hold more objects than the buffer allows."""


@dataclass
class DeviceBuffer:
    """A bounded pool of object slots.

    Parameters
    ----------
    capacity:
        Maximum number of objects that may reside on the device at once.
    """

    capacity: int
    used: int = 0
    high_water_mark: int = 0
    _allocations: List[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise InvalidInput(f"buffer capacity must be >= 1, got {self.capacity!r}")

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
            raise BufferExceededError(
                f"cannot hold {num_objects} more objects: "
                f"{self.used}/{self.capacity} slots already used"
            )
        self.used += num_objects
        self.high_water_mark = max(self.high_water_mark, self.used)
        self._allocations.append(num_objects)
        return len(self._allocations) - 1

    def release(self, token: int) -> None:
        """Release a previous allocation by token."""
        if not 0 <= token < len(self._allocations):
            raise ValueError(f"unknown allocation token {token}")
        amount = self._allocations[token]
        if amount == 0:
            return
        self.used -= amount
        self._allocations[token] = 0

    def release_all(self) -> None:
        """Drop every allocation (end of an operator invocation)."""
        self.used = 0
        self._allocations.clear()

    def reset(self) -> None:
        """Release everything and clear the high-water mark."""
        self.release_all()
        self.high_water_mark = 0
