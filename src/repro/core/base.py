"""The tunables every join algorithm shares.

:class:`AlgorithmParameters` holds the knobs of all algorithms (each uses
the subset it needs); the algorithms themselves are
:class:`~repro.core.frontier.FrontierAlgorithm` subclasses, level tables
of the frontier engine (:mod:`repro.core.frontier`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from repro.errors import InvalidInput, require_count

__all__ = ["AlgorithmParameters"]


@dataclass(frozen=True)
class AlgorithmParameters:
    """Tunables shared by the algorithms (each uses the subset it needs).

    Every run records each decision in :attr:`JoinResult.trace`; the rows
    stay columns until read (1-2% of a warm 20k x 20k UpJoin / MobiJoin,
    ~2,500 rows, 2-core box), and iterating the trace builds its events.
    """

    #: Eq. 9 uniformity tolerance (UpJoin); the paper settles on 0.25.
    alpha: float = 0.25
    #: Eq. 11 density threshold as a fraction of the average density
    #: (SrJoin); the paper settles on 0.30.
    rho: float = 0.30
    #: Grid fan-out per repartitioning step; the paper fixes k = 2.
    grid_k: int = 2
    #: Use bucket epsilon-RANGE queries when running NLSJ.
    bucket_queries: bool = False
    #: Seed for the algorithm's own randomness (UpJoin's confirmation window).
    seed: int = 0

    def __post_init__(self) -> None:
        # ``nan`` fails the first comparison, ``inf`` the finiteness test,
        # a string the type test.
        if not (isinstance(self.alpha, numbers.Real) and 0.0 < self.alpha <= 1.0):
            raise InvalidInput("alpha must lie in (0, 1]")
        if not (isinstance(self.rho, numbers.Real) and self.rho > 0 and math.isfinite(self.rho)):
            raise InvalidInput("rho must be positive")
        require_count(self.grid_k, "grid_k", minimum=2)
        require_count(self.seed, "seed", minimum=0)


#: The parameters of a query or algorithm that names none: one frozen
#: instance, validated once (it compares by value, so cache keys and plans
#: are those of a fresh ``AlgorithmParameters()``).
DEFAULT_PARAMETERS = AlgorithmParameters()


def __getattr__(name: str):
    # ``MobileJoinAlgorithm`` is an alias of ``FrontierAlgorithm``, kept
    # because the frozen benchmark tracer patches
    # ``repro.core.base:MobileJoinAlgorithm.run``.  It resolves lazily:
    # ``repro.core.frontier`` imports this module.
    if name == "MobileJoinAlgorithm":
        from repro.core.frontier import FrontierAlgorithm

        return FrontierAlgorithm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
