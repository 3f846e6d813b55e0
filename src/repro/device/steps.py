"""The step protocol: server work an operator asks for instead of doing.

The physical operators (:mod:`repro.device.hbsj`, :mod:`repro.device.nlsj`)
and every algorithm built on them are *generators*.  They never call a
server connection; they yield **steps** and receive the answers:

* a :class:`Request` is one batch of one primitive query kind for one side
  of the join -- ``Request(kind, side, args)``, ``kind`` one of
  :data:`COUNT` / :data:`WINDOW` / :data:`RANGE` / :data:`BUCKET`, or one
  of SemiJoin's index relay (:data:`SIZE` / :data:`LEVELS` /
  :data:`COLLECT` / :data:`JOIN`), ``side`` ``"R"`` or ``"S"``, ``args``
  exactly what the connection's endpoint of that kind takes;
* a **step** is a list of requests none of which needs another's answer,
  in the order their exchanges are written to the query's ledgers;
* the answer to a step is the parallel list of what the endpoints return.

A request's *rows* are the entries of its per-row columns (``Kind.columns``:
windows, probe centres and radii): one query string each on the wire.  A
kind without row columns is answered per request, whole: its build answers
every request of a group at once, one answer each (the relay's metadata,
and the final join, whose answer is the pairs of each upload).  A
query group -- like queries of a broker wave that run as one step
generator, or a run on its own as a group of one -- offers :class:`Shared`
steps, whose requests hold the rows of all its queries: ``queries[i]`` is
the query column of request ``i``'s rows, each query's rows contiguous and
in its own window order.
:func:`split` cuts such a step into one ordinary step per query, each in
the order that query's standalone step lists its requests, and
:func:`merge` puts the queries' booked answers back together (a query
that left its group contributes empty answers).

There is one way to answer steps, for one query or for many: **gather**
the requests into one :class:`Group` per (backing build, kind), **evaluate**
each group in one descent of its build (``Kind.evaluate``), and
have every query **book** its own share on its own connections, in step
order (:func:`book_step`, ``Kind.book``).  :func:`run_steps` is that loop
over a wave of one query -- what ``MobileJoinAlgorithm.run`` and
``MobileDevice.hbsj_batch`` / ``.nlsj_batch`` drive -- and the query broker
runs the same :func:`gather` and :func:`book_step` over the steps of every
in-flight query.  A connection's
own batch endpoints are the same composition, ``book(evaluate(...))``, so
ledgers, statistics and fault streams cannot tell who answered.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Dict, Generator, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.geometry import rect_array
from repro.index.aggregate_rtree import probe_arrays
from repro.index.pairs import PairBlocks
from repro.server.remote import ServerPair

__all__ = [
    "BUCKET",
    "COLLECT",
    "COUNT",
    "JOIN",
    "LEVELS",
    "RANGE",
    "SIZE",
    "WINDOW",
    "Group",
    "Kind",
    "OperatorTable",
    "Request",
    "Shared",
    "Step",
    "Steps",
    "book_step",
    "gather",
    "merge",
    "run_steps",
    "split",
]


class Kind(NamedTuple):
    """One primitive query kind: how a backing build answers it and how a
    connection books the answer."""

    name: str
    #: Backing-build endpoint that answers the rows of many requests in one
    #: descent (a build counts nothing): ``evaluate(*columns)``; for a kind
    #: without row columns ``evaluate(requests)``, one answer per request's
    #: ``args``.
    evaluate: str
    #: Positions in ``args`` of the per-row columns ``evaluate`` takes
    #: (none: the request is one row, answered whole).
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
#: SemiJoin's index relay (:mod:`repro.core.semijoin`): object count and
#: level MBRs (``()``), the objects inside ``(windows,)``, each once, and the
#: final join of an upload ``(mbrs, oids, epsilon)`` (its own pairs each).
SIZE = Kind("size", "evaluate_size", (), "book_size")
LEVELS = Kind("levels", "evaluate_level_mbrs", (), "book_level_mbrs")
COLLECT = Kind("collect", "evaluate_window_batch", (0,), "book_collect")
JOIN = Kind("join", "evaluate_join_batch", (), "book_join")


class Request(NamedTuple):
    """One batch of one query kind for one side of the join."""

    kind: Kind
    side: str
    args: tuple


Step = List[Request]
#: A step generator: yields steps, receives their answers, returns its result.
Steps = Generator[Step, list, object]


class Shared(list):
    """A step over the rows of several queries (a query group's).

    A list of requests like any step, in the group's order; ``queries[i]``
    is the ascending ``(rows,)`` query column of request ``i``.  Where a
    query's own order differs from the group's, ``keys[i]`` holds a sort
    key per row: a query lists its requests by the key of its first row
    (``None``: the group's order is every query's).
    """

    __slots__ = ("queries", "keys", "_shares")

    def __init__(self, step: Step, queries: List[np.ndarray], keys=None) -> None:
        super().__init__(step)
        self.queries = queries
        self.keys = keys
        self._shares = None

    def shares(self, n: int):
        """Who asks what, for ``n`` queries: per query the ``(request, first
        row, end row)`` of each request it has rows in, in the query's own
        order; per request the ``(query, position in the query's step,
        first row, end row)`` of each query with rows in it, queries
        ascending."""
        if self._shares is None:
            mine: List[list] = [[] for _ in range(n)]
            for i, queries in enumerate(self.queries):
                bounds = np.searchsorted(queries, np.arange(n + 1)).tolist()
                keys = None if self.keys is None else self.keys[i]
                for q in range(n):
                    lo, hi = bounds[q], bounds[q + 1]
                    if hi > lo:
                        mine[q].append((i if keys is None else int(keys[lo]), i, lo, hi))
            asked: List[list] = [[] for _ in self]
            for q, shares in enumerate(mine):
                if self.keys is not None:
                    shares.sort()
                for at, (_, i, lo, hi) in enumerate(shares):
                    asked[i].append((q, at, lo, hi))
            for shares in asked:
                shares.sort()
            self._shares = [[share[1:] for share in shares] for shares in mine], asked
        return self._shares


def split(step: Shared, alive: Sequence[bool]) -> List[Step]:
    """One step per query of a group: its share of every request it has
    rows in, in its own order (nothing for a query that left, ``alive``
    false)."""
    out: List[Step] = []
    for q, shares in enumerate(step.shares(len(alive))[0]):
        mine: Step = []
        out.append(mine)
        if not alive[q]:
            continue
        for i, lo, hi in shares:
            request = step[i]
            if lo == 0 and hi == step.queries[i].shape[0]:
                mine.append(request)
                continue
            args = list(request.args)
            for c in request.kind.columns:
                args[c] = args[c][lo:hi]
            mine.append(Request(request.kind, request.side, tuple(args)))
    return out


def merge(step: Shared, answers: List[Optional[list]]) -> list:
    """The group's answer to every request of ``step`` from the queries'
    answers to their :func:`split` shares (``None``: the query left the
    group; its rows get empty answers)."""
    merged = []
    for request, asked in zip(step, step.shares(len(answers))[1]):
        parts = [
            _empty(request.kind, hi - lo) if answers[q] is None else answers[q][at]
            for q, at, lo, hi in asked
        ]
        merged.append(parts[0] if len(parts) == 1 else _join(request.kind, parts))
    return merged


def _empty(kind: Kind, rows: int):
    """The answer of ``rows`` rows that found nothing."""
    if kind is COUNT:
        return np.zeros(rows, dtype=np.int64)
    found = (np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
    if kind is BUCKET:
        return (*found, np.zeros(0, dtype=np.intp))
    return (*found, np.zeros(rows + 1, dtype=np.int64))


def _join(kind: Kind, parts: list):
    """Answers to consecutive row ranges of one request as one answer:
    counts end to end, payloads as one CSR (``mbrs`` column-contiguous,
    as the endpoints return them)."""
    if kind is COUNT:
        if all(isinstance(part, list) for part in parts):
            return [count for part in parts for count in part]
        return np.concatenate([np.asarray(part, dtype=np.int64) for part in parts])
    mbrs = np.concatenate([part[0].T for part in parts], axis=1).T
    oids = np.concatenate([part[1] for part in parts])
    bounds, at = [np.zeros(1, dtype=np.int64)], 0
    for part in parts:
        bounds.append(part[2][1:] + at)
        at += part[1].shape[0]
    return mbrs, oids, np.concatenate(bounds)


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
        at = self.kind.columns
        self.members.append(args)
        self.offsets.append(self.offsets[-1] + (len(args[at[0]]) if at else 1))
        return self, len(self.members) - 1

    def evaluate(self) -> None:
        """Answer every row in one descent of the backing build.

        A lone member's columns go as they are; several members' rows go
        back to back as arrays -- windows (``Rect`` lists or the frontier
        tables' ``(N, 4)`` arrays) as one ``(N, 4)`` array, probes as
        ``(P, 2)`` centres and ``(P,)`` radii.  A kind without row columns
        hands the build every member's ``args``.
        """
        members, at = self.members, self.kind.columns
        if not at:
            columns = [members]
        elif len(members) == 1:
            columns = [members[0][i] for i in at]
        elif len(at) == 1:
            columns = [np.concatenate([rect_array.rects_to_array(args[at[0]]) for args in members])]
        else:
            probes = [probe_arrays(*(args[i] for i in at)) for args in members]
            columns = [np.concatenate(column) for column in zip(*probes)]
        self.answer = getattr(self.base, self.kind.evaluate)(*columns)

    def share(self, member: int):
        """Member ``member``'s share of the answer (a lone member's is all of it)."""
        if not self.kind.columns:
            return self.answer[member]
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
