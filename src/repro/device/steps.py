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

There is one way to answer steps, for one query or for many: **gather**
the requests into one :class:`Group` per (backing build, kind), **evaluate**
each group in one stat-free descent of its build (``Kind.evaluate``), and
have every query **book** its own share on its own connections, in step
order (:func:`book_step`, ``Kind.book``).  :func:`run_steps` is that loop
over a wave of one query -- what ``MobileJoinAlgorithm.run``,
``MobileDevice.hbsj_batch`` / ``.nlsj_batch`` and the free operator
functions drive -- and the query broker runs the same :func:`gather` and
:func:`book_step` over the steps of every in-flight query.  A connection's
own batch endpoints are the same composition, ``book(evaluate(...))``, so
ledgers, statistics and fault streams cannot tell who answered.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Dict, Generator, Iterable, List, NamedTuple, Tuple

import numpy as np

from repro.geometry import rect_array
from repro.index.aggregate_rtree import probe_arrays
from repro.index.pairs import PairBlocks
from repro.server.remote import ServerPair

__all__ = [
    "BUCKET",
    "COUNT",
    "RANGE",
    "WINDOW",
    "Group",
    "Kind",
    "OperatorTable",
    "Request",
    "Step",
    "Steps",
    "book_step",
    "gather",
    "run_steps",
]


class Kind(NamedTuple):
    """One primitive query kind: how a backing build answers it and how a
    connection books the answer."""

    name: str
    #: Backing-build endpoint that answers the rows of many requests in one
    #: descent without touching statistics: ``evaluate(*columns)``.
    evaluate: str
    #: Positions in ``args`` of the per-row columns ``evaluate`` takes.
    columns: Tuple[int, ...]
    #: Connection endpoint that books a request whose rows were evaluated
    #: and returns the request's answer: ``book(*args, share)``.
    book: str


COUNT = Kind("count", "evaluate_count_batch", (0,), "count_batch_prefetched")
WINDOW = Kind("window", "evaluate_window_batch", (0,), "book_window_batch")
RANGE = Kind("range", "evaluate_range_batch", (0, 1), "book_range_batch")
#: One bucket query: ``args`` are ``(centers, radius, radii)``; its probes
#: are evaluated with their per-probe ``radii``.
BUCKET = Kind("bucket", "evaluate_range_batch", (0, 2), "book_bucket_range")


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


class Group:
    """One evaluation: all rows of a step -- or of a wave round's steps --
    that ask one backing build for one query kind."""

    __slots__ = ("base", "kind", "members", "offsets", "answer")

    def __init__(self, base, kind: Kind) -> None:
        self.base = base
        self.kind = kind
        #: The member requests' ``args``, in the order they joined; member
        #: ``i`` owns rows ``offsets[i]:offsets[i + 1]`` of the evaluation.
        self.members: List[tuple] = []
        self.offsets = [0]
        #: The build's answer to all rows.
        self.answer = None

    @property
    def rows(self) -> int:
        return self.offsets[-1]

    def add(self, args: tuple) -> Tuple["Group", int]:
        """Append one request's rows; its slot ``(group, member)``."""
        self.members.append(args)
        self.offsets.append(self.offsets[-1] + len(args[self.kind.columns[0]]))
        return self, len(self.members) - 1

    def evaluate(self) -> None:
        """Answer every row in one descent of the backing build.

        A lone member's columns go as they are; several members' rows go
        back to back as arrays -- windows (``Rect`` lists or the frontier
        tables' ``(N, 4)`` arrays) as one ``(N, 4)`` array, probes as
        ``(P, 2)`` centres and ``(P,)`` radii.
        """
        members, at = self.members, self.kind.columns
        if len(members) == 1:
            columns = [members[0][i] for i in at]
        elif len(at) == 1:
            columns = [np.concatenate([rect_array.rects_to_array(args[at[0]]) for args in members])]
        else:
            probes = [probe_arrays(*(args[i] for i in at)) for args in members]
            columns = [np.concatenate(column) for column in zip(*probes)]
        self.answer = getattr(self.base, self.kind.evaluate)(*columns)

    def share(self, member: int):
        """Member ``member``'s share of the answer (a lone member's is all of it)."""
        if len(self.members) == 1:
            return self.answer
        return self.answer[self.offsets[member] : self.offsets[member + 1]]


#: Where one request's rows went: its group and its member index there.
Slot = Tuple[Group, int]


def gather(queries: Iterable[Tuple[tuple, Step]]) -> Tuple[List[Group], List[List[Slot]]]:
    """Group the requests of many queries' steps by (backing build, kind).

    ``queries`` yields ``((base_r, base_s), step)`` per query: the builds
    that back its two sides and the step it offers.  Returns the groups, in
    the order their first request was met, and per query the slot of each
    request of its step.
    """
    groups: Dict[Tuple[int, str], Group] = {}
    slots: List[List[Slot]] = []
    for (base_r, base_s), step in queries:
        mine = []
        for kind, side, args in step:
            base = base_r if side.upper() == "R" else base_s
            key = (id(base), kind.name)
            group = groups.get(key)
            if group is None:
                group = groups[key] = Group(base, kind)
            mine.append(group.add(args))
        slots.append(mine)
    return list(groups.values()), slots


def book_step(servers: ServerPair, step: Step, slots: List[Slot]) -> list:
    """Book a step on the query's own connections once its groups are
    evaluated; returns the step's answers.

    ``slots`` is what :func:`gather` returned for this step.  Requests are
    booked in step order and a fault at one leaves the later ones unbooked.
    """
    return [
        getattr(servers.r if side.upper() == "R" else servers.s, kind.book)(
            *args, group.share(member)
        )
        for (kind, side, args), (group, member) in zip(step, slots)
    ]


def run_steps(steps: Steps, servers: ServerPair):
    """Drive a step generator to its return value: each step gathered,
    evaluated on the connections' backing builds and booked on the
    connections -- a wave of one."""
    builds = servers.backing
    try:
        step = next(steps)
        while True:
            groups, (slots,) = gather([(builds, step)])
            for group in groups:
                group.evaluate()
            step = steps.send(book_step(servers, step, slots))
    except StopIteration as stop:
        return stop.value
