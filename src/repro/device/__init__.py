"""The mobile device (PDA) substrate.

The paper's prototype runs on an HP iPAQ with very little memory; what
matters to the algorithms is

* the bounded object buffer (joins that do not fit must repartition), and
* the two *physical operators* the device can execute on a window:

  - **HBSJ** (hash-based spatial join): download both windows and join them
    in memory with the epsilon-cell join kernel, recursively partitioning when
    the buffer is too small;
  - **NLSJ** (nested-loop spatial join): download one side and probe the
    other server with one epsilon-RANGE query per object (or a single
    bucket query when the server supports it).

Both operators are exact and composable over space partitions: each
reports only the pairs whose reference point falls inside the unexpanded
window, so a partitioned execution produces every qualifying pair exactly
once.

Each operator is one step generator over many invocations
(``hash_based_spatial_join_steps`` / ``nested_loop_spatial_join_steps``);
:class:`MobileDevice` runs it on its own connections, and a single window
is a batch of one (``MobileDevice.hbsj`` / ``.nlsj``).
"""

from __future__ import annotations

from repro.device.buffer import BufferExceededError, DeviceBuffer
from repro.device.hbsj import HBSJResult
from repro.device.nlsj import NLSJResult
from repro.device.pda import MobileDevice, OperatorCounts

__all__ = [
    "DeviceBuffer",
    "BufferExceededError",
    "HBSJResult",
    "NLSJResult",
    "MobileDevice",
    "OperatorCounts",
]
