"""The reference kernel: how fast is this box right now?

The sandbox is a 2-vCPU guest whose speed drifts with its neighbours: over
seven minutes the same ``warm_session`` cycle took 2.45 s to 4.09 s, in
minute-long swells, with CPU time tracking wall time (no steal, no
scheduling delay: the cycles themselves get slower).  A run of 20-30 s
samples one point of that drift, so raw op times of identical code spread
by 15-20% between runs (inter-quartile range / median), which is wider
than any bound worth gating on.

So each op is timed next to a fixed piece of work that does not touch the
program: half NumPy (a stable argsort, a gather, a binary search and a
running sum over 20 000 doubles) and half interpreter (a loop of dict,
tuple and list operations), the two halves taking about 4 ms each, like
the program's own mix of array kernels and Python glue.  The op times of a
cycle are then scaled by ``NOMINAL_S / (the cycle's median kernel time)``,
i.e. reported in seconds of a box that runs the kernel in ``NOMINAL_S``.
On the seven-minute series above this cut the spread between 18 s runs from
16% to 5%; either half alone gave 8-10%, and a memory-bandwidth-bound
kernel (16 MB arrays) was itself too erratic to use (50% spread).

The scaling is the same for every commit measured with this benchmark, the
kernel cannot be changed by a change to ``src/``, and the raw speed is kept
beside it (``bench.raw_ops_per_s``, ``bench.machine_speed``).
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["NOMINAL_S", "ReferenceKernel"]

#: The kernel's median time on the box the bounds were set on, mid-drift.
NOMINAL_S = 0.008


class ReferenceKernel:
    """Call it to run the fixed work once; returns the seconds it took."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random(20_000)
        self._b = rng.random(20_000)

    def __call__(self) -> float:
        clock = time.perf_counter
        start = clock()
        order = np.argsort(self._a, kind="stable")
        ranked = self._a[order]
        np.searchsorted(ranked, self._b)
        np.cumsum(ranked)
        table = {}
        out = []
        for i in range(40_000):
            table[i & 255] = (i, i + 1)
            out.append(i * 3)
        sum(out)
        return clock() - start
