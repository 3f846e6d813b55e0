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
* the answer to a step is the parallel list of the requests' answers:
  each one's share of its build's evaluation (a COUNT list, a payload
  :class:`~repro.server.server.Prefetched`, one relay answer).

A request's *rows* are the entries of its per-row columns (``Kind.columns``:
windows, probe centres and radii): one query string each on the wire.  A
kind without row columns is answered per request, whole: its build answers
every request of a group at once, one answer each (the relay's metadata,
and the final join, whose answer is the pairs of each upload).  A
query group -- like queries of a broker wave that run as one step
generator, or a run on its own as a group of one -- offers :class:`Shared`
steps, whose requests hold the rows of all its queries: ``queries[i]`` is
the query column of request ``i``'s rows, each query's rows contiguous and
in its own window order, and :meth:`Shared.shares` names, per query, the
rows it asks in the order its own standalone step lists them.

There is one way to answer steps, for one query or for many, and one
loop that does it, :func:`drive`: it advances units (:class:`Unit`, a
step generator with the connections of the queries it runs) in lock-step
rounds.  Each round it **gathers** the step every unit offers into one
:class:`Group` per (backing build, kind), **evaluates** each group in one
descent of its build (``Kind.evaluate``), answers every request with its
share of that evaluation, read once, has every query **book** its own
shares on its own connections, in its own order (:func:`book_step`,
``Kind.book``), and advances every unit with its step's answers.
:func:`run_steps` is that loop over a unit of one query -- what
``FrontierAlgorithm.run`` and ``MobileDevice.hbsj_batch`` /
``.nlsj_batch`` drive -- and the query broker drives its wave's groups
through it.  A connection's own batch endpoints are
``book(evaluate(...))``, and a booker reads its answer by the rule a step
generator reads it with, so ledgers, statistics, fault streams and answers
cannot tell who evaluated the rows.

The loop also holds every query to a **work budget** (:func:`work_budget`):
the rows one step may ask for it, from :data:`MAX_DEPTH` and the sizes of
its two inputs.  A query whose share of a new step is wider fails with
:class:`~repro.errors.WorkBudgetExceeded` before the step is evaluated and
leaves its unit, as a query whose booking failed does.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Dict, Generator, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ReproError, WorkBudgetExceeded
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
    "MAX_DEPTH",
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
    "Unit",
    "book_step",
    "drive",
    "gather",
    "run_steps",
    "work_budget",
]

#: Hard recursion limit shared by every algorithm: a window this deep is
#: finished with a physical operator, whatever the heuristics say.  (The
#: data space halves per level, so 32 levels is far deeper than any
#: realistic workload needs; the limit only guards pathological inputs.)
MAX_DEPTH = 32


def work_budget(builds: Tuple[object, object]) -> int:
    """The rows one step may ask for one query over the two ``builds``:
    :data:`MAX_DEPTH` per object of the two inputs, and one object's worth
    more (a join over empty inputs still asks its root COUNTs).

    A step that separates its objects asks at most a few rows per object (a
    split window's quadrants on both sides); no tier-1 run asks more than
    0.85 per object.  A frontier over objects that overlap in every
    quadrant -- more of them than the buffer holds -- separates nothing and
    grows fourfold per level; this is where it stops, long before its width
    can exhaust memory.
    """
    base_r, base_s = builds
    return MAX_DEPTH * (len(base_r) + len(base_s) + 1)


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
    #: Connection endpoint that books a request whose rows were evaluated:
    #: ``book(*args, share)``; it returns the answer it booked, as a
    #: driver reads it off the share.
    book: str


COUNT = Kind("count", "evaluate_count_batch", (0,), "count_batch_prefetched")
WINDOW = Kind("window", "evaluate_window_batch", (0,), "book_window_batch")
RANGE = Kind("range", "evaluate_range_batch", (0, 1), "book_range_batch")
#: One bucket query: ``args`` are ``(centers, radius, radii)``; its probes
#: are evaluated with their per-probe ``radii``.
BUCKET = Kind("bucket", "evaluate_range_batch", (0, 2), "book_bucket_range")
#: SemiJoin's index relay (:mod:`repro.core.semijoin`): object count and
#: level MBRs (``()``), the objects inside ``(windows,)``, each once, and the
#: final join of an upload ``(mbrs, oids, epsilon, window)`` against the
#: objects that meet ``window`` (all of them for ``None``; its own pairs each).
SIZE = Kind("size", "evaluate_size", (), "book_size")
LEVELS = Kind("levels", "evaluate_level_mbrs", (), "book_level_mbrs")
COLLECT = Kind("collect", "evaluate_window_batch", (0,), "book_collect")
JOIN = Kind("join", "evaluate_join_batch", (), "book_join")


class Request(NamedTuple):
    """One batch of one query kind for one side of the join."""

    kind: Kind
    side: str
    args: tuple

    @property
    def rows(self) -> int:
        """Its rows: the length of its row columns (one for a kind without)."""
        at = self.kind.columns
        return len(self.args[at[0]]) if at else 1


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

    def shares(self, n: int) -> List[List[Tuple[int, int, int]]]:
        """Who asks what, for ``n`` queries: per query the ``(request, first
        row, end row)`` of each request it has rows in, in the query's own
        order."""
        if self._shares is None and n == 1 and self.keys is None:
            # One query: its share is every row of every request.
            self._shares = [[(i, 0, q.shape[0]) for i, q in enumerate(self.queries) if q.shape[0]]]
        elif self._shares is None:
            mine: List[list] = [[] for _ in range(n)]
            for i, queries in enumerate(self.queries):
                bounds = np.searchsorted(queries, np.arange(n + 1)).tolist()
                keys = None if self.keys is None else self.keys[i]
                for q in range(n):
                    lo, hi = bounds[q], bounds[q + 1]
                    if hi > lo:
                        mine[q].append((i if keys is None else int(keys[lo]), i, lo, hi))
            if self.keys is not None:
                for shares in mine:
                    shares.sort()
            self._shares = [[share[1:] for share in shares] for shares in mine]
        return self._shares


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

    __slots__ = ("base", "kind", "members", "queries", "offsets", "answer")

    def __init__(self, base, kind: Kind) -> None:
        self.base = base
        self.kind = kind
        #: The member requests' ``args``, in the order they joined; member
        #: ``i`` owns rows ``offsets[i]:offsets[i + 1]`` of the evaluation.
        self.members: List[tuple] = []
        #: Parallel to :attr:`members`: the query column of each member
        #: request's rows.
        self.queries: List[np.ndarray] = []
        self.offsets = [0]
        #: The build's answer to all rows.
        self.answer = None

    @property
    def rows(self) -> int:
        return self.offsets[-1]

    @property
    def requests(self) -> int:
        """The requests its queries would flush standalone: one per query
        with rows in a member request."""
        return sum(_askers(query) for query in self.queries)

    def add(self, request: Request, queries: np.ndarray) -> Tuple["Group", int]:
        """Append one request's rows; its slot ``(group, member)``."""
        self.members.append(request.args)
        self.queries.append(queries)
        self.offsets.append(self.offsets[-1] + request.rows)
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
        """Member ``member``'s share of the answer (a lone member's is all
        of it): the member request's answer."""
        if not self.kind.columns:
            return self.answer[member]
        if len(self.members) == 1:
            return self.answer
        return self.answer[self.offsets[member] : self.offsets[member + 1]]


def _askers(query: np.ndarray) -> int:
    """How many queries an ascending query column names."""
    if not query.shape[0]:
        return 0
    if query[0] == query[-1]:
        return 1
    return int(np.count_nonzero(np.diff(query))) + 1


#: Where one request's rows went: its group and its member index there.
Slot = Tuple[Group, int]


def gather(steps: Iterable[Tuple[tuple, Shared]]) -> Tuple[List[Group], List[List[Slot]]]:
    """Group the requests of many steps by (backing build, kind).

    ``steps`` yields ``((base_r, base_s), step)`` per :class:`Shared` step:
    the builds that back its two sides and the step.  Returns the groups,
    in the order their first request was met, and per step the slot of
    each request.
    """
    groups: Dict[Tuple[int, str], Group] = {}
    slots: List[List[Slot]] = []
    for (base_r, base_s), step in steps:
        mine = []
        for request, queries in zip(step, step.queries):
            base = base_r if request.side.upper() == "R" else base_s
            key = (id(base), request.kind.name)
            group = groups.get(key)
            if group is None:
                group = groups[key] = Group(base, request.kind)
            mine.append(group.add(request, queries))
        slots.append(mine)
    return list(groups.values()), slots


def book_step(servers: ServerPair, step: Step, answers: list, shares: list) -> None:
    """Book one query's shares of a step on its own connections once the
    step's groups are evaluated.

    ``answers`` are the requests' shares of their evaluations; ``shares``
    the ``(request, first row, end row)`` of the query's rows, in its own
    order (:meth:`Shared.shares`).  A fault at one booking leaves the later
    ones unbooked.
    """
    for i, lo, hi in shares:
        request, answer = step[i], answers[i]
        args = request.args
        if hi - lo != request.rows:
            args = list(args)
            for c in request.kind.columns:
                args[c] = args[c][lo:hi]
            answer = answer[lo:hi]
        server = servers.r if request.side.upper() == "R" else servers.s
        getattr(server, request.kind.book)(*args, answer)


class Unit:
    """One step generator a drive advances, and the queries it runs.

    ``servers[q]`` are query ``q``'s own connections, ``None`` once its
    booking failed (it is booked nothing more); ``leave(q)``, if given (a
    crew's :meth:`~repro.core.frontier.Crew.leave`), tells the generator.
    A finished unit keeps only its :attr:`result`, so a failed query's
    error -- traceback and all -- holds no generator, connection or crew.
    """

    __slots__ = ("steps", "servers", "leave", "builds", "budget", "taken", "step", "result")

    def __init__(self, steps: Steps, servers: Sequence[ServerPair], leave=None) -> None:
        self.steps, self.servers, self.leave = steps, list(servers), leave
        #: What its steps are evaluated on: the builds behind the connections.
        self.builds = self.servers[0].backing
        #: The rows a step may ask per query, and the steps offered so far.
        self.budget, self.taken = work_budget(self.builds), 0
        #: The step it waits to have answered (``None`` once finished), and
        #: what its generator returned.
        self.step = self.result = None

    def finish(self, result=None) -> None:
        """Close the generator (a no-op once it ended); keep only ``result``."""
        self.steps.close()
        self.steps = self.servers = self.leave = self.step = None
        self.result = result

    def fail(self, error: Exception, failures: list) -> None:
        """The unit raised: every query still in it fails with ``error``."""
        failures.extend((self, q, error) for q, pair in enumerate(self.servers) if pair is not None)
        self.finish()

    def drop(self, q: int, error: ReproError, failures: list) -> None:
        """Query ``q`` fails with ``error``: it is booked nothing more and
        leaves its generator."""
        failures.append((self, q, error))
        self.servers[q] = None
        if self.leave is not None:
            self.leave(q)

    def hold_to_budget(self, failures: list) -> None:
        """Before its new step is evaluated: every query whose share of it
        is wider than :attr:`budget` fails with
        :class:`~repro.errors.WorkBudgetExceeded`; the unit closes if none is
        left."""
        self.taken += 1
        step, n = self.step, len(self.servers)
        if sum(q.shape[0] for q in step.queries) <= self.budget:  # no query can be over
            return
        for q, shares in enumerate(step.shares(n)):
            width = sum(hi - lo for _, lo, hi in shares)
            if width > self.budget and self.servers[q] is not None:
                self.drop(q, WorkBudgetExceeded(q, self.taken, width, self.budget), failures)
        if all(pair is None for pair in self.servers):
            self.finish()


def _evaluate(group: Group, round_index: int) -> None:
    group.evaluate()


def drive(units: Sequence[Unit], evaluate=_evaluate, settle=lambda failures: None) -> None:
    """Drive step generators to their ends in lock-step rounds.

    Each round gathers the step every unit offers, evaluates each (backing
    build, kind) group once (``evaluate(group, round)``), has every live
    query book its shares on its own connections (:func:`book_step`) and
    advances every unit with its step's answers.  A query whose share of
    a new step is wider than its work budget (:meth:`Unit.hold_to_budget`,
    checked before the step is evaluated) or whose booking raised a typed
    error leaves its unit; a unit with no query left is closed, and one
    that raises fails every query still in it.  Once the
    units are primed and after every round, ``settle`` gets that phase's
    ``(unit, query, error)`` failures, if any, in unit order.  No round's
    groups, slots or answers are held into the next evaluation.
    """
    failures: list = []
    for unit in units:
        _advance(unit, None, failures)
    round_index = 0
    while True:
        if failures:
            settle(failures)
        active = [unit for unit in units if unit.step is not None]
        if not active:
            return
        groups, slots = gather((unit.builds, unit.step) for unit in active)
        for group in groups:
            evaluate(group, round_index)
        failures = []
        for unit, mine in zip(active, slots):
            step, answers = unit.step, [group.share(member) for group, member in mine]
            try:
                for q, shares in enumerate(step.shares(len(unit.servers))):
                    if unit.servers[q] is not None and shares:
                        try:
                            book_step(unit.servers[q], step, answers, shares)
                        except ReproError as error:
                            unit.drop(q, error, failures)
            except Exception as error:  # noqa: BLE001 -- settled by the caller
                unit.fail(error, failures)
            else:
                _advance(unit, answers, failures)
        del groups, slots, mine, step, answers
        round_index += 1


def _advance(unit: Unit, answers: Optional[list], failures: list) -> None:
    """Send a unit its step's answers (``None`` primes it) and hold its new
    step to the work budget; close it instead if no query is left in it."""
    try:
        if all(pair is None for pair in unit.servers):
            unit.finish()
        else:
            unit.step = unit.steps.send(answers)
            unit.hold_to_budget(failures)
    except StopIteration as stop:
        unit.finish(stop.value)
    except Exception as error:  # noqa: BLE001 -- settled by the caller
        unit.fail(error, failures)


def run_steps(steps: Steps, servers: ServerPair):
    """Drive one query's step generator to its return value: :func:`drive`
    over a unit of one.  A failed run is closed -- its spans with it --
    before its error is raised."""
    unit, failures = Unit(steps, [servers]), []
    drive([unit], settle=failures.extend)
    if failures:
        raise failures[0][2]
    return unit.result
