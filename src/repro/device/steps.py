"""The step protocol: server work an operator asks for instead of doing.

The physical operators (:mod:`repro.device.hbsj`, :mod:`repro.device.nlsj`)
and every algorithm built on them are *generators*.  They never call a
server connection; they yield **steps** and receive the answers:

* a :class:`Request` is one batch of one primitive query kind for one side
  of the join -- ``Request(kind, side, args)``, ``kind`` one of
  :data:`COUNT` / :data:`WINDOW` / :data:`RANGE` / :data:`BUCKET`, ``side``
  ``"R"`` or ``"S"``, ``args`` exactly what the connection's batch endpoint
  of that kind takes;
* a **step** is a list of requests none of which needs another's answer,
  in the order their exchanges are written to the query's ledgers;
* the answer to a step is the parallel list of what the endpoints return.

Whoever drives the generator decides *how* a step is evaluated, never
*what* is booked.  :func:`answer_step` asks the query's own connections,
request by request -- :func:`run_steps` drives a whole generator that way,
which is what ``MobileDevice.hbsj_batch`` / ``.nlsj_batch``, the free
operator functions and ``MobileJoinAlgorithm.run`` do.  The query broker
instead collects the steps of every in-flight query, evaluates all rows of
one kind against one backing build in a single stat-free descent
(``Kind.evaluate``), and has each query book its own share with
:func:`book_step`.  Either way a query's connections see the same
exchanges, in the same order, with the same payload sizes: ledgers,
statistics and fault streams cannot tell the drivers apart.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Generator, List, NamedTuple, Tuple

import numpy as np

from repro.index.pairs import PairBlocks
from repro.server.remote import ServerPair

__all__ = [
    "BUCKET",
    "COUNT",
    "RANGE",
    "WINDOW",
    "Kind",
    "OperatorTable",
    "Request",
    "Step",
    "Steps",
    "answer_step",
    "book_step",
    "run_steps",
]


class Kind(NamedTuple):
    """One primitive query kind: the three endpoints that can serve it."""

    name: str
    #: Connection endpoint that evaluates and books a request: ``ask(*args)``.
    ask: str
    #: Backing-build endpoint that answers the rows of many requests in one
    #: descent without touching statistics: ``evaluate(*columns)``.
    evaluate: str
    #: Positions in ``args`` of the per-row columns ``evaluate`` takes.
    columns: Tuple[int, ...]
    #: Connection endpoint that books a request whose rows were evaluated
    #: elsewhere and returns what ``ask`` would have: ``book(*args, share)``.
    book: str


COUNT = Kind("count", "count_batch", "evaluate_count_batch", (0,), "count_batch_prefetched")
WINDOW = Kind("window", "window_batch_flat", "evaluate_window_batch", (0,), "book_window_batch")
RANGE = Kind("range", "range_batch_flat", "evaluate_range_batch", (0, 1), "book_range_batch")
#: One bucket query: ``args`` are ``(centers, radius, radii)``; its probes
#: are evaluated with their per-probe ``radii``.
BUCKET = Kind("bucket", "bucket_range", "evaluate_range_batch", (0, 2), "book_bucket_range")


class Request(NamedTuple):
    """One batch of one query kind for one side of the join."""

    kind: Kind
    side: str
    args: tuple


Step = List[Request]
#: A step generator: yields steps, receives their answers, returns its result.
Steps = Generator[Step, list, object]


class OperatorTable(Sequence):
    """What a batched operator returns: its invocations' outcomes, as columns.

    One ``int64`` column per name in :attr:`counters` (row ``i`` is
    invocation ``i``) and :attr:`pairs`, the blocks as the kernels produced
    them -- what an algorithm keeps.  Row ``k`` of a block was found by
    invocation ``owner[k]``, owners ascending, so an invocation's share is
    one slice of every block; it is cut, and the invocation's result object
    built, only for whoever indexes or iterates the table (a ``Sequence`` of
    them, equal to the list): the one-request API and the tests.
    """

    counters: Tuple[str, ...] = ()

    def __init__(self, n: int) -> None:
        self.n = n
        self.pairs = PairBlocks()
        #: Parallel to ``pairs.blocks``: the invocation of every row.
        self.owners: List[np.ndarray] = []
        for name in self.counters:
            setattr(self, name, np.zeros(n, dtype=np.int64))

    def add_pairs(self, pairs: np.ndarray, owner: np.ndarray) -> None:
        if pairs.shape[0]:
            self.pairs.blocks.append(pairs)
            self.owners.append(owner)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int):
        """Invocation ``i``'s result object (``self.result`` builds it)."""
        if not -self.n <= i < self.n:
            raise IndexError(i)
        i %= self.n
        mine = PairBlocks()
        for pairs, owner in zip(self.pairs.blocks, self.owners):
            lo, hi = np.searchsorted(owner, (i, i + 1)).tolist()
            if hi > lo:
                mine.blocks.append(pairs[lo:hi])
        return self.result(i, mine, **{name: int(getattr(self, name)[i]) for name in self.counters})

    def __eq__(self, other) -> bool:
        return list(self) == list(other)

    __hash__ = None  # type: ignore[assignment]


def answer_step(servers: ServerPair, step: Step) -> list:
    """Answer a step through the query's own connections, one exchange per request."""
    return [
        getattr(getattr(servers, side.lower()), kind.ask)(*args) for kind, side, args in step
    ]


def book_step(servers: ServerPair, step: Step, shares: list) -> list:
    """Book a step whose rows were evaluated elsewhere; the same answers.

    ``shares[i]`` is request ``i``'s share of a ``Kind.evaluate`` result.
    Requests are booked in step order and a fault at one leaves the later
    ones unbooked, as :func:`answer_step` would.
    """
    return [
        getattr(getattr(servers, side.lower()), kind.book)(*args, share)
        for (kind, side, args), share in zip(step, shares)
    ]


def run_steps(steps: Steps, servers: ServerPair):
    """Drive a step generator to its return value on the query's own connections."""
    try:
        step = next(steps)
        while True:
            step = steps.send(answer_step(servers, step))
    except StopIteration as stop:
        return stop.value
