"""repro -- reproduction of "Ad-hoc Distributed Spatial Joins on Mobile Devices".

This package reimplements, in pure Python + NumPy, the system described in

    P. Kalnis, N. Mamoulis, S. Bakiras, X. Li.
    "Ad-hoc Distributed Spatial Joins on Mobile Devices", IPDPS 2006.

The package is organised around the paper's architecture:

``repro.geometry``
    Planar geometry primitives: points, rectangles (MBRs), their array
    kernels and the predicates used by spatial joins.

``repro.index``
    Spatial index substrates: an R-tree (STR bulk loading), an aggregate
    R-tree (fast COUNT / aggregate window queries) and the in-memory join
    kernels (plane sweep, grid hash).

``repro.network``
    The wireless transfer-cost substrate: packetisation (Eq. 1 of the
    paper), per-byte tariffs, byte-accounting channels, a discrete-event
    simulation kernel and an IEEE 802.11b link model.

``repro.server``
    Non-cooperative spatial servers exposing only WINDOW / COUNT /
    epsilon-RANGE queries, plus the remote proxies that meter every
    request/response through a channel.

``repro.device``
    The mobile-device (PDA) model: bounded object buffer, hash-based
    spatial join (HBSJ), nested-loop spatial join (NLSJ) via remote range
    queries, and duplicate avoidance.

``repro.core``
    The paper's contribution: the transfer cost model (Eqs. 1-8), the
    MobiJoin baseline, the distribution-aware UpJoin and SrJoin
    algorithms, the indexed SemiJoin comparator and the ad-hoc join
    planner facade.

``repro.datasets``
    Synthetic workload generators (clustered Gaussian point sets, uniform
    sets, a railway-like polyline network standing in for the paper's
    German railway dataset) and dataset containers.

``repro.experiments``
    The experiment harness that regenerates every figure of the paper's
    evaluation section.

Quickstart
----------

>>> from repro import quick_join
>>> from repro.datasets import clustered
>>> r = clustered(n=1000, clusters=8, seed=1)
>>> s = clustered(n=1000, clusters=8, seed=2)
>>> result = quick_join(r, s, algorithm="srjoin", epsilon=0.01, buffer_size=800)
>>> result.total_bytes > 0
True
"""

from __future__ import annotations

from repro._version import __version__
from repro.api import (
    AdHocJoinSession,
    JoinOutcome,
    available_algorithms,
    quick_join,
)

__all__ = [
    "__version__",
    "AdHocJoinSession",
    "JoinOutcome",
    "available_algorithms",
    "quick_join",
]
