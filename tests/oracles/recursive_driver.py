"""The depth-first driver ``FrontierAlgorithm(execution="recursive")`` ran until PR 19.

Oracle of the frontier engine's level-order execution
(:meth:`repro.core.frontier.FrontierAlgorithm._steps`) and, since PR 22, of
the level tables it decides with.  It drives the *oracle* per-window
decision generators (:mod:`tests.oracles.frontier_generators`:
``_root_task``, ``_window_steps``, ``_level_costs`` of a level of one) one
window at a time: every COUNT request is answered immediately through the
device, a leaf runs as soon as it is reached, children recurse in order.
Leaves run the *oracle* operators (:mod:`tests.oracles.operators_scalar`),
so "Frontier = recursive" checks the tables, the driver and the batch
operators against code that shares none of them.

:func:`depth_first` turns one engine algorithm class into its depth-first
twin; :func:`depth_first_algorithms` swaps the twins into the planner's
registry for the duration of a ``with`` block, which is how the suites run
them through ``AdHocJoinSession.run`` / ``run_join`` unchanged.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Sequence

from repro.core import planner
from repro.core.frontier import FrontierAlgorithm
from repro.device.pda import MobileDevice

from tests.oracles.frontier_generators import (
    GENERATORS,
    CountRequest,
    OperatorLeaf,
    QuadrantCounts,
    quadrant_count_steps,
)
from tests.oracles.operators_scalar import device_hbsj, device_nlsj

__all__ = [
    "depth_first",
    "depth_first_algorithms",
    "execute_count_requests",
    "fetch_quadrant_counts",
]


def execute_count_requests(
    device: MobileDevice, requests: Sequence[CountRequest]
) -> List[List[int]]:
    """Satisfy count requests immediately, one exchange per request."""
    return [device.count_windows(req.server, list(req.rects)) for req in requests]


def fetch_quadrant_counts(
    device: MobileDevice, server_name: str, window, parent_count: int, **options
) -> QuadrantCounts:
    """Drive :func:`~tests.oracles.frontier_generators.quadrant_count_steps`
    to its result, depth-first."""
    gen = quadrant_count_steps(server_name, window, parent_count, **options)
    try:
        requests = gen.send(None)
        while True:
            requests = gen.send(execute_count_requests(device, requests))
    except StopIteration as stop:
        return stop.value


def _execute_recursive(algo, task) -> None:
    gen = algo._window_steps(task, algo._task_recorder(task), algo._level_costs([task])[0])
    outcome = None
    try:
        requests = gen.send(None)
        while True:
            requests = gen.send(execute_count_requests(algo.device, requests))
    except StopIteration as stop:
        outcome = stop.value
    if outcome is None:
        return
    if isinstance(outcome, OperatorLeaf):
        _run_leaf(algo, outcome)
        return
    for child in outcome:
        _execute_recursive(algo, child)


def _run_leaf(algo, leaf: OperatorLeaf) -> None:
    """Execute one physical-operator leaf immediately, on the oracle operators."""
    if leaf.op == "hbsj":
        result = device_hbsj(
            algo.device,
            leaf.window,
            algo.predicate,
            count_r=leaf.count_r if leaf.counts_exact else None,
            count_s=leaf.count_s if leaf.counts_exact else None,
        )
    else:
        result = device_nlsj(
            algo.device,
            leaf.window,
            algo.predicate,
            outer=leaf.outer,
            bucket=algo.params.bucket_queries,
        )
    algo._pairs.extend(result.pairs)


def depth_first(cls: type) -> type:
    """The depth-first twin of one :class:`FrontierAlgorithm` subclass."""

    class DepthFirst(GENERATORS[cls]):
        def _steps(self, window, count_r, count_s, depth):
            # Every exchange runs on the query's own connections: a step
            # generator that offers no step.
            _execute_recursive(self, self._root_task(window, count_r, count_s, depth))
            return
            yield

    DepthFirst.__name__ = f"DepthFirst{cls.__name__}"
    return DepthFirst


@contextmanager
def depth_first_algorithms() -> Iterator[None]:
    """Run every engine algorithm of the planner registry depth-first meanwhile."""
    shipped = dict(planner.ALGORITHMS)
    for name, cls in shipped.items():
        if issubclass(cls, FrontierAlgorithm):
            planner.ALGORITHMS[name] = depth_first(cls)
    try:
        yield
    finally:
        planner.ALGORITHMS.update(shipped)
