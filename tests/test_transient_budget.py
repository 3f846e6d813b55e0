"""Transient memory in proportion to a budget, and a work budget that ends a
runaway frontier with a typed error.

* **Transient memory.**  Every batch endpoint works in chunks sized to
  :data:`repro.index.budget.TRANSIENT_BUDGET`, so its ``tracemalloc`` peak
  is bounded by the budget and its answer, not by the batch: below
  ``C * (budget + answer bytes)`` from 10^3 to 10^5 rows, and to 10^6 in the
  ``slow`` lane.  The build has no batch; its peak is bounded by what it
  builds.
* **Chunks change nothing.**  With the budget a few hundred bytes, every
  chunk and slice boundary is crossed, and every endpoint answers
  ``array_equal`` to one whole batch.
* **The work budget.**  ROADMAP reading 2 -- two 70-segment railways whose
  segments overlap in every quadrant, at buffer 4 -- grew its frontier
  fourfold per level until a 1.32 GiB page gather killed the process.  It
  now ends with :class:`~repro.errors.WorkBudgetExceeded` in a process
  capped at 2.5 GB of address space, for SrJoin and FixedGrid; in a
  brokered wave the runaway query alone fails; and no golden configuration
  comes within ten times of the budget.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core.join_types import JoinSpec
from repro.datasets.railway import generate_railway_like
from repro.datasets.synthetic import clustered
from repro.device import steps
from repro.errors import WorkBudgetExceeded
from repro.geometry.predicates import IntersectionPredicate, WithinDistancePredicate
from repro.geometry.rect import Rect
from repro.index import budget
from repro.index.flat import FlatRTree
from repro.index.hash_join import JoinBatch, grid_hash_join_batch
from repro.service import JoinQuery, QueryBroker

from tests import test_golden_figures, test_golden_ledgers, test_golden_traces

ROOT = Path(__file__).resolve().parents[1]

#: The peak's bound, in units of ``budget + answer bytes``.  A call holds
#: one chunk's working set -- at most the budget -- and, at its end, its
#: answer up to twice: the chunks' parts and their concatenation (a join's
#: parts are ``(item, a_oid, b_oid)`` triples, 1.5 times its pair block).
#: The build's "answer" is the index it returns; its temporaries are about
#: its entry block and page table again.
C = 3

WIDTHS = [1_000, 10_000, 100_000, pytest.param(1_000_000, marks=pytest.mark.slow)]

#: Seconds reading 2 may take to end with the typed error, import included
#: (it takes well under one).
READING_2_SECONDS = 30


def _peak(call):
    """``(result, peak bytes)`` of ``call()`` over what was allocated before."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


def _nbytes(answer) -> int:
    parts = answer if isinstance(answer, tuple) else (answer,)
    return sum(part.nbytes for part in parts)


def _tree():
    """Reading 7's index: 20k ``clustered(128)`` points."""
    return FlatRTree.from_mbr_array(clustered(n=20_000, clusters=128, seed=2).mbrs)


def _windows(tree, n: int, seed: int = 0):
    """``n`` windows of side 0.01 around indexed points (about two objects each)."""
    rng = np.random.default_rng(seed)
    centres = tree.entry_mbrs[rng.integers(0, tree.size, n), :2]
    return centres, np.hstack([centres - 0.005, centres + 0.005])


def _level(rows: int, seed: int = 0) -> JoinBatch:
    """A leaf level of ``rows`` rows: items of 50 + 50 points in squares of side 0.05."""
    rng = np.random.default_rng(seed)
    items = []
    for corner in rng.random((max(1, rows // 100), 2)):
        a, b = (corner + rng.random((50, 2)) * 0.05 for _ in range(2))
        items.append((np.hstack([a, a]), rng.permutation(50), np.hstack([b, b]), rng.permutation(50)))
    return JoinBatch.from_items(items)


# ---------------------------------------------------------------------- #
# transient memory
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def tree():
    return _tree()


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("endpoint", ["count_batch", "window_batch_flat", "range_batch_flat"])
def test_a_descent_holds_the_budget_and_its_answer(tree, endpoint, width):
    centres, wins = _windows(tree, width)
    if endpoint == "range_batch_flat":
        args = (centres, np.full(width, 0.005))
    else:
        args = (wins,)
    answer, peak = _peak(lambda: getattr(tree, endpoint)(*args))
    assert peak < C * (budget.TRANSIENT_BUDGET + _nbytes(answer)), (peak, _nbytes(answer))


def test_reading_7s_count_falls_to_about_the_budget(tree):
    """100,000 COUNT windows held about 250 MiB on this tree before the
    budget (2.5 KiB a window, for an 8-byte answer)."""
    _, wins = _windows(tree, 100_000)
    _, peak = _peak(lambda: tree.count_batch(wins))
    assert peak < 2 * budget.TRANSIENT_BUDGET


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("predicate", [IntersectionPredicate(), WithinDistancePredicate(0.002)])
def test_the_join_kernel_holds_the_budget_and_its_answer(predicate, width):
    batch = _level(width)
    answer, peak = _peak(lambda: grid_hash_join_batch(batch, predicate))
    assert peak < C * (budget.TRANSIENT_BUDGET + _nbytes(answer)), (peak, _nbytes(answer))


def _oversized(shape: str) -> JoinBatch:
    """One join item of several times the rows the budget holds: 100,000 A
    points against 2,000 B boxes, the reverse, or ``warm_session``'s naive
    item -- 20,000 against 20,000 ``clustered(128)`` points."""
    if shape == "balanced":
        a, b = (clustered(n=20_000, clusters=128, seed=seed).mbrs for seed in (3, 4))
        return JoinBatch.one(a, np.arange(20_000), b, np.arange(20_000))
    rng = np.random.default_rng(5)
    a, b = rng.random((100_000, 2)), rng.random((2_000, 2))
    sides = (np.hstack([a, a]), np.arange(100_000)), (np.hstack([b, b + 0.001]), np.arange(2_000))
    return JoinBatch.one(*sides[0], *sides[1]) if shape == "a-heavy" else JoinBatch.one(*sides[1], *sides[0])


@pytest.mark.parametrize(
    "shape, predicate",
    [
        pytest.param(shape, predicate, id=f"{shape}-{name}")
        for shape in ("a-heavy", "b-heavy", "balanced")
        for name, predicate in (("intersection", IntersectionPredicate()), ("distance", WithinDistancePredicate(0.002)))
        if shape != "balanced" or name == "distance"
    ],
)
def test_an_item_larger_than_the_budget_joins_in_bands(shape, predicate, monkeypatch):
    """An item larger than the budget joins in bands of its cell rows, each
    band's A rows against the B rows they read: whichever side is the
    larger, it holds the budget and its answer, and less than 0.8 times the
    peak of joining it in one band (the parent's A-row pieces left a
    B-heavy or balanced item at the one-band peak, 20.2 and 8.1 MiB)."""
    from repro.index import hash_join

    batch = _oversized(shape)
    rows = batch.a_mbrs.shape[0] + batch.b_mbrs.shape[0]
    assert rows > 1.5 * budget.chunk_rows(hash_join._ROW_BYTES)
    bands, peak = _peak(lambda: grid_hash_join_batch(batch, predicate))
    monkeypatch.setattr(hash_join, "_ROW_BYTES", 1)  # the whole item in one band
    whole, whole_peak = _peak(lambda: grid_hash_join_batch(batch, predicate))
    _assert_same(bands, whole)
    assert bands[0].shape[0] > 0
    assert peak < C * (budget.TRANSIENT_BUDGET + _nbytes(bands)), (peak, _nbytes(bands))
    assert peak < 0.8 * whole_peak, (peak, whole_peak)


@pytest.mark.parametrize("width", WIDTHS)
def test_the_build_holds_about_what_it_builds(width):
    rng = np.random.default_rng(width)
    points = rng.random((width, 2))
    mbrs = np.hstack([points, points + 0.001])
    tree, peak = _peak(lambda: FlatRTree.from_mbr_array(mbrs))
    held = sum(value.nbytes for value in vars(tree).values() if isinstance(value, np.ndarray))
    held += sum(value.nbytes for value in tree._blocks if isinstance(value, np.ndarray))
    assert peak < C * (budget.TRANSIENT_BUDGET + held), (peak, held)


# ---------------------------------------------------------------------- #
# chunks change nothing
# ---------------------------------------------------------------------- #


def _descents(index, wins, centres, radii, roots):
    return (
        index.count_batch(wins, roots),
        *index.window_batch_flat(wins, roots),
        *index.range_batch_flat(centres, radii, roots),
    )


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("small", [1, 700, 20_000])
def test_descents_answer_as_one_whole_batch(small, monkeypatch):
    """A tree and a forest of unequal heights (each row at its own root),
    windows of every size: a budget of a few pages cuts the rows into
    chunks of one to a few dozen and every wide level into slices."""
    rng = np.random.default_rng(small)
    trees = [
        FlatRTree.from_mbr_array(clustered(n=n, clusters=8, seed=n).mbrs) for n in (0, 10, 700, 3000)
    ]
    forest = FlatRTree.forest(trees)
    lo = rng.random((600, 2))
    wins = np.hstack([lo, lo + rng.random((600, 2)) ** 3])
    radii = rng.random(600) * 0.1
    cases = [
        (_tree(), None),
        (forest, forest.roots[rng.integers(0, len(trees), 600)]),
    ]
    whole = [_descents(index, wins, lo, radii, roots) for index, roots in cases]
    monkeypatch.setattr(budget, "TRANSIENT_BUDGET", small)
    for (index, roots), want in zip(cases, whole):
        _assert_same(_descents(index, wins, lo, radii, roots), want)


@pytest.mark.parametrize("small", [1, 3_000, 40_000])
@pytest.mark.parametrize("predicate", [IntersectionPredicate(), WithinDistancePredicate(0.01)])
def test_the_join_kernel_answers_as_one_whole_batch(predicate, small, monkeypatch):
    """Items of many sizes, some with an empty side, and several larger
    than any chunk: they are joined in bands of their cell rows.  One is
    two railways, whose segments span several cell rows: some B segment
    meets several bands and some A segment crosses a band's edge."""
    from repro.index import hash_join

    rng = np.random.default_rng(small)
    items = []
    for k, (n_a, n_b) in enumerate([(30, 40), (0, 5), (2000, 1500), (7, 0), (1, 1), (300, 200)]):
        corner = rng.random(2)
        a, b = (corner + rng.random((n, 2)) * 0.1 for n in (n_a, n_b))
        wide = rng.random((n_a, 2)) * 0.01 * (k % 2)
        items.append(
            (np.hstack([a, a + wide]), rng.permutation(5 * n_a + 1)[:n_a], np.hstack([b, b]), np.arange(n_b))
        )
    railways = [generate_railway_like(n_segments=n, seed=seed, hubs=5).mbrs for n, seed in ((400, 3), (300, 4))]
    items.append((railways[0], np.arange(400), railways[1], np.arange(300)))
    batch = JoinBatch.from_items(items)
    want = grid_hash_join_batch(batch, predicate)
    assert want[0].shape[0] > 0
    monkeypatch.setattr(budget, "TRANSIENT_BUDGET", small)
    _assert_same(grid_hash_join_batch(batch, predicate), want)

    # The railway item alone, its bands seen through the table each joins in.
    bands, table_join = [], hash_join._table_join

    def seen(a, n_a, b, n_b, grid, eps, rows=None):
        lo, side = grid[:2]
        bands.append((rows, hash_join._cell_rows(b[1], lo[1], side), hash_join._cell_rows(b[3], lo[1], side)))
        return table_join(a, n_a, b, n_b, grid, eps, rows)

    monkeypatch.setattr(hash_join, "_table_join", seen)
    alone = grid_hash_join_batch([items[-1]], predicate)
    _assert_same(alone, (want[0][want[1][-2] :], np.array([0, want[0].shape[0] - want[1][-2]])))
    assert len(bands) > 1 and all(rows is not None for rows, _, _ in bands)
    # A B segment reaching past a band's rows meets the next band too.
    assert any((y0 < low).any() or (y1 > high).any() for (low, high), y0, y1 in bands)
    # A band reads one row above its tallest A segment: one reaching into
    # the next band's rows (which start one above that band's lowest read).
    assert any(high >= low + 2 for ((_, high), _, _), ((low, _), _, _) in zip(bands, bands[1:]))


# ---------------------------------------------------------------------- #
# the work budget
# ---------------------------------------------------------------------- #


_READING_2 = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2_500_000_000, 2_500_000_000))
from repro.api import quick_join
from repro.datasets.railway import generate_railway_like
from repro.errors import WorkBudgetExceeded

r = generate_railway_like(70, seed=1, hubs=6)
s = generate_railway_like(70, seed=51, hubs=5)
try:
    quick_join(r, s, algorithm=sys.argv[1], kind="intersection", buffer_size=4)
except WorkBudgetExceeded as error:
    print("typed", error.width, error.budget)
"""


@pytest.mark.parametrize("algorithm", ["srjoin", "fixedgrid"])
def test_reading_2_ends_with_the_typed_error(algorithm):
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _READING_2, algorithm],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        capture_output=True, text=True, timeout=READING_2_SECONDS,
    )
    assert time.perf_counter() - start < READING_2_SECONDS
    assert done.returncode == 0 and "MemoryError" not in done.stderr, done.stderr
    typed, width, limit = done.stdout.split()
    assert typed == "typed" and int(width) > int(limit) == steps.MAX_DEPTH * (70 + 69 + 1)


def _reading_2_query(window: Rect, r, s) -> JoinQuery:
    return JoinQuery(
        r, s, JoinSpec.intersection(), algorithm="srjoin", buffer_size=4, window=window
    )


def test_a_runaway_member_of_a_wave_fails_alone():
    """Three like SrJoin queries run as one crew; the one whose window
    holds the overlapping segments leaves it with the typed error, and the
    others return what they return on their own."""
    r = generate_railway_like(70, seed=1, hubs=6)
    s = generate_railway_like(70, seed=51, hubs=5)
    windows = [Rect(0.5, 0.25, 0.75, 0.5), Rect(0.25, 0.25, 0.5, 0.5), Rect(0.5, 0.0, 0.75, 0.25)]
    queries = [_reading_2_query(window, r, s) for window in windows]
    outcomes = QueryBroker(cache=False).run_batch(queries)
    assert [outcome.status for outcome in outcomes] == ["ok", "failed", "ok"]
    assert isinstance(outcomes[1].error, WorkBudgetExceeded)
    assert outcomes[1].error.query == 1
    for query, outcome in zip(queries[::2], outcomes[::2]):
        (alone,) = QueryBroker(cache=False).run_batch([query])
        assert outcome.result.sorted_pairs() == alone.result.sorted_pairs()
        assert outcome.result.total_bytes == alone.result.total_bytes
    assert outcomes[0].result.sorted_pairs()


def test_no_golden_config_comes_within_ten_times_the_work_budget(monkeypatch):
    """Every golden figure, trace and ledger reproduces its fixture with a
    tenth of the work budget."""
    full = steps.work_budget
    monkeypatch.setattr(steps, "work_budget", lambda builds: full(builds) // 10)
    test_golden_figures.test_golden_figures_reproduce_fixture()
    for algorithm in test_golden_traces.ALGORITHMS:
        test_golden_traces.test_golden_traces_reproduce_fixture(algorithm)
    for case in sorted(test_golden_ledgers.CASES):
        test_golden_ledgers.test_golden_ledgers_reproduce_fixture(case)
