"""Frontier-batched execution == depth-first recursive execution, bit for bit.

The shared frontier engine (:mod:`repro.core.frontier`) may only change
*when* exchanges are flushed, never what crosses the wire or what the
planner decides.  This suite runs every frontier-driven algorithm (UpJoin,
SrJoin and the MobiJoin baseline) through the engine and through the
depth-first oracle (``tests/oracles/recursive_driver.py``, whose leaves run
the scalar oracle operators) over randomized workload families (uniform, clustered, skewed, empty-side, duplicate-heavy,
degenerate zero-area rectangles) and asserts equality of

* the result pair set,
* the byte totals (overall and per server) and the tariff-weighted cost,
* the operator counters and the per-server query statistics,
* the buffer high-water mark, and
* the *per-depth* decision log: at every recursion depth the two modes
  must record the same events, in the same order, with the same windows,
  counts and detail strings.  (The global interleaving differs by
  construction: depth-first nests subtrees, the frontier emits level by
  level.)

Every workload generator is seeded, so failures replay deterministically.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.api import AdHocJoinSession
from repro.datasets.dataset import SpatialDataset
from repro.datasets.railway import generate_railway_like
from repro.datasets.synthetic import clustered, uniform
from repro.geometry.rect import Rect

from tests.oracles.recursive_driver import depth_first_algorithms

#: The algorithms driven by the shared frontier engine.
FRONTIER_ALGORITHMS = ("upjoin", "srjoin", "mobijoin")

# --------------------------------------------------------------------------- #
# workload families (all generators take a seed and return two datasets)
# --------------------------------------------------------------------------- #


def _uniform_pair(seed: int) -> Tuple[SpatialDataset, SpatialDataset]:
    return (
        uniform(n=80, seed=seed, name="R"),
        uniform(n=80, seed=seed + 1000, name="S"),
    )


def _clustered_pair(seed: int) -> Tuple[SpatialDataset, SpatialDataset]:
    return (
        clustered(n=90, clusters=1 + seed % 5, seed=seed, name="R"),
        clustered(n=90, clusters=1 + (seed + 2) % 4, seed=seed + 500, std=0.04, name="S"),
    )


def _skewed_pair(seed: int) -> Tuple[SpatialDataset, SpatialDataset]:
    """One dense knot plus a sparse background: maximal non-uniformity."""
    rng = np.random.default_rng(seed)
    knot = rng.normal(loc=(0.2, 0.2), scale=0.015, size=(70, 2))
    background = rng.uniform(0.0, 1.0, size=(12, 2))
    r = SpatialDataset.from_points(np.clip(np.vstack([knot, background]), 0, 1), name="R")
    s = clustered(n=80, clusters=2, seed=seed + 77, std=0.03, name="S")
    return r, s


def _empty_side_pair(seed: int) -> Tuple[SpatialDataset, SpatialDataset]:
    rng = np.random.default_rng(seed)
    r = SpatialDataset.from_points(rng.uniform(0, 1, size=(60, 2)), name="R")
    s = SpatialDataset(mbrs=np.empty((0, 4)), name="S")
    return r, s


def _duplicate_heavy_pair(seed: int) -> Tuple[SpatialDataset, SpatialDataset]:
    """Many coincident points: exercises HBSJ's un-splittable fallback."""
    rng = np.random.default_rng(seed)
    spots = rng.uniform(0.1, 0.9, size=(4, 2))
    pts_r = np.repeat(spots, 30, axis=0)
    pts_s = np.vstack([np.repeat(spots[:2], 25, axis=0), rng.uniform(0, 1, (20, 2))])
    return (
        SpatialDataset.from_points(pts_r, name="R"),
        SpatialDataset.from_points(pts_s, name="S"),
    )


def _zero_area_pair(seed: int) -> Tuple[SpatialDataset, SpatialDataset]:
    """Degenerate rectangles: zero width, zero height, or both."""
    rng = np.random.default_rng(seed)
    n = 70
    x0 = rng.uniform(0, 0.9, n)
    y0 = rng.uniform(0, 0.9, n)
    dx = rng.uniform(0, 0.1, n)
    dy = rng.uniform(0, 0.1, n)
    kind = rng.integers(0, 3, n)  # 0: h-segment, 1: v-segment, 2: point
    mbrs_r = np.column_stack(
        [
            x0,
            y0,
            np.where(kind == 1, x0, x0 + dx),
            np.where(kind == 0, y0, np.where(kind == 2, y0, y0 + dy)),
        ]
    )
    mbrs_r[kind == 2, 2] = x0[kind == 2]
    r = SpatialDataset(mbrs=mbrs_r, name="R")
    s = generate_railway_like(n_segments=60, seed=seed + 9, hubs=5).rename("S")
    return r, s


FAMILIES = {
    "uniform": _uniform_pair,
    "clustered": _clustered_pair,
    "skewed": _skewed_pair,
    "empty-side": _empty_side_pair,
    "duplicate-heavy": _duplicate_heavy_pair,
    "zero-area": _zero_area_pair,
}

CASES = [
    pytest.param(algorithm, family, seed, id=f"{algorithm}-{family}-seed{seed}")
    for algorithm in FRONTIER_ALGORITHMS
    for family in FAMILIES
    for seed in (0, 1, 2)
]


# --------------------------------------------------------------------------- #
# comparison harness
# --------------------------------------------------------------------------- #


def _trace_by_depth(result) -> Dict[int, List[tuple]]:
    grouped: Dict[int, List[tuple]] = defaultdict(list)
    for event in result.trace:
        grouped[event.depth].append(
            (
                event.action,
                event.detail,
                event.count_r,
                event.count_s,
                event.window.as_tuple(),
            )
        )
    return dict(grouped)


def _run_mode(datasets, algorithm: str, execution: str, **run_kwargs):
    """Run through the shipped engine (``"frontier"``) or the oracle (``"recursive"``)."""
    if execution == "recursive":
        with depth_first_algorithms():
            return _run_mode(datasets, algorithm, "frontier", **run_kwargs)
    r, s = datasets
    session = AdHocJoinSession(r, s, buffer_size=run_kwargs.pop("buffer_size", 96))
    window = run_kwargs.pop("window", None) or Rect(0.0, 0.0, 1.0, 1.0).union(
        r.bounds() if len(r) else Rect(0, 0, 1, 1)
    )
    return session.run(algorithm=algorithm, window=window, **run_kwargs)


def _assert_modes_identical(datasets, algorithm: str = "upjoin", **run_kwargs) -> None:
    first = _run_mode(datasets, algorithm, "recursive", **dict(run_kwargs))
    second = _run_mode(datasets, algorithm, "frontier", **dict(run_kwargs))
    assert first.sorted_pairs() == second.sorted_pairs()
    assert first.total_bytes == second.total_bytes
    assert first.bytes_r == second.bytes_r
    assert first.bytes_s == second.bytes_s
    assert first.total_cost == second.total_cost
    assert first.operator_counts == second.operator_counts
    assert first.server_stats == second.server_stats
    assert first.buffer_high_water_mark == second.buffer_high_water_mark
    trace_r = _trace_by_depth(first)
    trace_f = _trace_by_depth(second)
    assert sorted(trace_r) == sorted(trace_f), "recursion depths differ"
    for depth in trace_r:
        assert trace_r[depth] == trace_f[depth], f"decision log differs at depth {depth}"


# --------------------------------------------------------------------------- #
# the properties
# --------------------------------------------------------------------------- #


class TestFrontierEqualsRecursive:
    @pytest.mark.parametrize("algorithm,family,seed", CASES)
    def test_distance_join(self, algorithm, family, seed):
        _assert_modes_identical(
            FAMILIES[family](seed),
            algorithm=algorithm,
            kind="distance",
            epsilon=0.03,
            seed=seed,
        )

    @pytest.mark.parametrize("algorithm,family,seed", CASES)
    def test_intersection_join(self, algorithm, family, seed):
        _assert_modes_identical(
            FAMILIES[family](seed), algorithm=algorithm, kind="intersection", seed=seed
        )

    @pytest.mark.parametrize("algorithm", FRONTIER_ALGORITHMS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_small_buffer_forces_operator_recursion(self, algorithm, seed):
        # A tiny buffer drives HBSJ into its internal quadrant recursion and
        # the NLSJ fallback; the batched executors must reproduce both.
        _assert_modes_identical(
            _duplicate_heavy_pair(seed),
            algorithm=algorithm,
            kind="distance",
            epsilon=0.02,
            seed=seed,
            buffer_size=24,
        )

    @pytest.mark.parametrize("algorithm", FRONTIER_ALGORITHMS)
    @pytest.mark.parametrize("family", ["clustered", "skewed"])
    def test_bucket_queries(self, algorithm, family):
        _assert_modes_identical(
            FAMILIES[family](3),
            algorithm=algorithm,
            kind="distance",
            epsilon=0.04,
            seed=3,
            bucket_queries=True,
        )

    @pytest.mark.parametrize("alpha", [0.15, 0.25, 0.35])
    def test_alpha_sweep(self, alpha):
        _assert_modes_identical(
            _clustered_pair(4), kind="distance", epsilon=0.03, seed=4, alpha=alpha
        )

    @pytest.mark.parametrize("rho", [0.15, 0.30, 0.45])
    def test_rho_sweep(self, rho):
        # SrJoin's density threshold flips the similar/different decision
        # and with it the leaf/recurse mix of every level.
        _assert_modes_identical(
            _clustered_pair(4),
            algorithm="srjoin",
            kind="distance",
            epsilon=0.03,
            seed=4,
            rho=rho,
        )

    @pytest.mark.parametrize("grid_k", [2, 3, 4])
    def test_mobijoin_grid_fanout(self, grid_k):
        # MobiJoin's k x k repartitioning grid (2 k^2 COUNTs per split) must
        # batch identically at every fan-out.
        _assert_modes_identical(
            _clustered_pair(5),
            algorithm="mobijoin",
            kind="distance",
            epsilon=0.03,
            seed=5,
            grid_k=grid_k,
        )

    @pytest.mark.parametrize("algorithm", FRONTIER_ALGORITHMS)
    def test_tiny_epsilon_distance(self, algorithm):
        # An epsilon far below the data resolution: every expanded S window
        # is essentially the cell itself, maximising prune opportunities.
        _assert_modes_identical(
            _duplicate_heavy_pair(5), algorithm=algorithm, kind="distance",
            epsilon=1e-6, seed=5,
        )


class TestFrontierMatchesOracle:
    """The frontier must stay correct, not merely self-consistent."""

    @pytest.mark.parametrize("algorithm,family,seed", CASES)
    def test_pairs_match_naive_download(self, algorithm, family, seed):
        datasets = FAMILIES[family](seed)
        frontier = _run_mode(
            datasets, algorithm, "frontier", kind="distance", epsilon=0.03, seed=seed
        )
        recursive = _run_mode(
            datasets, algorithm, "recursive", kind="distance", epsilon=0.03, seed=seed
        )
        r, s = datasets
        session = AdHocJoinSession(r, s, buffer_size=96, indexed=False)
        window = Rect(0.0, 0.0, 1.0, 1.0).union(
            r.bounds() if len(r) else Rect(0, 0, 1, 1)
        )
        oracle = session.run(
            algorithm="naive", kind="distance", epsilon=0.03, window=window
        )
        assert frontier.pairs == oracle.pairs
        assert recursive.pairs == oracle.pairs


class TestFrontierDeterminism:
    @pytest.mark.parametrize("algorithm", FRONTIER_ALGORITHMS)
    def test_repeated_frontier_runs_identical(self, algorithm):
        runs = [
            _run_mode(
                _clustered_pair(7), algorithm, "frontier",
                kind="distance", epsilon=0.03, seed=7,
            )
            for _ in range(2)
        ]
        assert runs[0].sorted_pairs() == runs[1].sorted_pairs()
        assert runs[0].total_bytes == runs[1].total_bytes
        assert [e.action for e in runs[0].trace] == [e.action for e in runs[1].trace]
        assert [e.detail for e in runs[0].trace] == [e.detail for e in runs[1].trace]


class TestLevelCosting:
    """The frontier driver costs a *level* per cost-model call, not a window.

    A deterministic work count, so a change that re-introduces per-window
    costing fails here rather than only in the wall-clock benchmark.
    """

    @pytest.mark.parametrize("algorithm", FRONTIER_ALGORITHMS)
    def test_cost_model_calls_scale_with_levels_not_windows(self, algorithm, monkeypatch):
        from repro.core.costmodel import CostModel

        calls = []
        for name in ("c1", "c2", "c3", "c4_estimate"):
            original = getattr(CostModel, name)

            def counted(self, *args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(CostModel, name, counted)

        datasets = (
            clustered(n=2000, clusters=3, seed=3, std=0.05, name="R"),
            clustered(n=2000, clusters=24, seed=4, std=0.03, name="S"),
        )
        evaluations = {}
        for execution in ("frontier", "recursive"):
            calls.clear()
            result = _run_mode(
                datasets, algorithm, execution,
                kind="distance", epsilon=0.004, buffer_size=100,
                window=Rect(0.0, 0.0, 1.0, 1.0),
            )
            evaluations[execution] = len(calls)
        levels = len({event.depth for event in result.trace})
        windows = len({(event.depth, event.window.as_tuple()) for event in result.trace})
        assert levels >= 4 and windows >= 8 * levels, "workload too shallow to tell"
        # At most c1 + c2 + c3 (+ c4 and its inner c1) per level, plus UpJoin's
        # rare one-row re-costs of confirmed zeros.
        assert evaluations["frontier"] <= 6 * levels
        # The depth-first oracle costs every window as a level of one.
        assert evaluations["recursive"] > 6 * levels


class TestLevelDecisions:
    """A level is decided by a handful of column operations, however wide.

    The deterministic twin of the wall-clock claim: the Python-level calls
    into the level tables, and (traced or not) the ``Rect`` objects built
    outside the leaf requests, grow with levels and rounds, not with
    windows.  A change that re-introduces a per-window decision path fails
    here rather than only in the benchmark.
    """

    @pytest.mark.parametrize("algorithm", ["upjoin", "mobijoin"])
    def test_decision_work_scales_with_levels_and_rounds(self, algorithm, monkeypatch):
        import inspect

        from repro.core import frontier, mobijoin, upjoin

        seen = {"calls": 0, "rects": 0, "levels": 0, "rounds": 0, "windows": 0, "leaves": 0}

        def counting(function, key, amount=lambda *args: 1):
            def counted(*args, **kwargs):
                seen[key] += amount(*args)
                return function(*args, **kwargs)

            return counted

        tables = (
            frontier.LevelTable, frontier.CostedTable, upjoin.UpJoinTable, mobijoin.MobiJoinTable
        )
        for table in tables:
            for name, function in list(vars(table).items()):
                if inspect.isfunction(function):
                    monkeypatch.setattr(table, name, counting(function, "calls"))
        steps = counting(frontier.LevelTable.steps, "levels")
        steps = counting(steps, "windows", lambda table: len(table.level))
        monkeypatch.setattr(frontier.LevelTable, "steps", steps)
        monkeypatch.setattr(
            frontier.LevelTable, "_round", counting(frontier.LevelTable._round, "rounds")
        )

        def leaves_not_run(self, table):
            seen["leaves"] += int(np.count_nonzero(table.op))
            return
            yield

        monkeypatch.setattr(frontier.FrontierAlgorithm, "_run_leaves", leaves_not_run)
        monkeypatch.setattr(Rect, "__post_init__", counting(Rect.__post_init__, "rects"))

        datasets = (
            clustered(n=30000, clusters=128, seed=42, name="R"),
            clustered(n=30000, clusters=128, seed=542, name="S"),
        )
        session = AdHocJoinSession(*datasets, buffer_size=100)
        work = {}
        for trace in (True, False):
            seen.update(dict.fromkeys(seen, 0))
            session.run(algorithm=algorithm, kind="distance", epsilon=0.002, trace=trace)
            work[trace] = dict(seen)
        for counts in work.values():
            steps = counts["levels"] + counts["rounds"]
            assert counts["windows"] >= 1000 and counts["windows"] >= 25 * steps, (
                "workload too narrow to tell"
            )
            assert counts["leaves"] >= 500
            # ~25-35 table calls per level, ~10 per round, whatever the width.
            assert counts["calls"] <= 60 * steps
            # Only UpJoin's rare confirmation probes build a Rect (the leaf
            # requests are not run here); tracing records columns, not Rects.
            assert counts["rects"] <= 4 * steps

    @pytest.mark.parametrize("algorithm", ["upjoin", "mobijoin"])
    def test_logs_stay_columns_until_read(self, algorithm, monkeypatch):
        """A traced 1,000+-window run builds no ``TraceEvent`` and no
        ``TrafficRecord``, and no more ``Rect`` objects than an untraced one
        (levels and rounds, not windows): the decision trace and the traffic
        ledger are columns until ``result.trace`` / ``log.records`` is read.
        (It built an event, a ``Rect`` and a detail string per decided window,
        and a record per message.)"""
        from repro.core import frontier
        from repro.core.result import TraceEvent
        from repro.network.channel import TrafficRecord

        seen = {"events": 0, "records": 0, "rects": 0, "steps": 0, "windows": 0}

        def counting(function, key, amount=lambda *args: 1):
            def counted(*args, **kwargs):
                seen[key] += amount(*args)
                return function(*args, **kwargs)

            return counted

        for cls, key in ((TraceEvent, "events"), (TrafficRecord, "records"), (Rect, "rects")):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__, key))
        steps = counting(frontier.LevelTable.steps, "windows", lambda table: len(table.level))
        monkeypatch.setattr(frontier.LevelTable, "steps", counting(steps, "steps"))
        monkeypatch.setattr(
            frontier.LevelTable, "_round", counting(frontier.LevelTable._round, "steps")
        )

        datasets = (
            clustered(n=30000, clusters=128, seed=42, name="R"),
            clustered(n=30000, clusters=128, seed=542, name="S"),
        )
        session = AdHocJoinSession(*datasets, buffer_size=100)
        seen.update(dict.fromkeys(seen, 0))
        result = session.run(algorithm=algorithm, kind="distance", epsilon=0.002, trace=True)
        assert seen["windows"] >= 1000
        assert seen["events"] == 0 and seen["records"] == 0
        assert seen["rects"] <= 4 * seen["steps"] < seen["windows"]

        assert len(result.trace) >= seen["windows"] and seen["events"] == 0
        assert len(list(result.trace)) == seen["events"] == len(result.trace)
        servers = session.device.servers
        logs = [servers.r.channel.log, servers.s.channel.log]
        assert [len(log.records) for log in logs] == [len(log) for log in logs]
        assert seen["records"] > 0

    @pytest.mark.parametrize("algorithm", ["upjoin", "mobijoin"])
    def test_leaves_run_without_an_object_per_leaf(self, algorithm, monkeypatch):
        """The leaves of a level go to the operators as the table's own
        columns: with tracing off a 1,000+-leaf run builds ``Rect`` /
        ``Point`` / ``HBSJRequest`` / ``NLSJRequest`` objects in proportion to
        its levels and rounds, not to its leaves (it built a ``Rect`` and a
        request per leaf and a ``Point`` per NLSJ outer object)."""
        from repro.core import frontier
        from repro.device.hbsj import HBSJRequest
        from repro.device.nlsj import NLSJRequest
        from repro.geometry.point import Point

        seen = {"objects": 0, "steps": 0, "leaves": 0}

        def counting(function, key, amount=lambda *args: 1):
            def counted(*args, **kwargs):
                seen[key] += amount(*args)
                return function(*args, **kwargs)

            return counted

        for cls in (Rect, Point, HBSJRequest, NLSJRequest):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__, "objects"))
        for name in ("steps", "_round"):
            function = getattr(frontier.LevelTable, name)
            monkeypatch.setattr(frontier.LevelTable, name, counting(function, "steps"))
        run_leaves = counting(
            frontier.FrontierAlgorithm._run_leaves,
            "leaves",
            lambda self, table: int(np.count_nonzero(table.op)),
        )
        monkeypatch.setattr(frontier.FrontierAlgorithm, "_run_leaves", run_leaves)

        datasets = (
            clustered(n=40000, clusters=128, seed=42, name="R"),
            clustered(n=40000, clusters=128, seed=542, name="S"),
        )
        session = AdHocJoinSession(*datasets, buffer_size=100)
        seen.update(dict.fromkeys(seen, 0))
        result = session.run(algorithm=algorithm, kind="distance", epsilon=0.002, trace=False)
        operators = result.operator_counts
        assert seen["leaves"] >= 1000
        assert seen["leaves"] == operators["hbsj_invocations"] + operators["nlsj_invocations"]
        assert seen["objects"] <= 4 * seen["steps"] < seen["leaves"] / 4


class TestSweepOrdersOnce:
    """One segmented sweep call orders each side once, however many segments.

    The deterministic twin of the kernel's wall-clock claim: one ``argsort``
    per side and no ``lexsort`` / ``unique`` (the two sorts, the ``4n``-value
    ``unique`` and the eight rank look-ups the sweep used to make were 70% of
    its time).
    """

    @pytest.mark.parametrize("segments", [1, 40, 2000])
    def test_one_argsort_per_side_and_no_rank_table(self, segments, monkeypatch):
        from repro.geometry.predicates import WithinDistancePredicate
        from repro.index.plane_sweep import plane_sweep_pair_arrays_segmented

        rng = np.random.default_rng(segments)
        lo = rng.random((6000, 2))
        a, b = (np.hstack([side, side + 0.001]) for side in (lo, lo + 0.0005))
        a_seg = b_seg = rng.integers(0, segments, size=6000)
        calls = defaultdict(int)
        for name in ("argsort", "lexsort", "unique", "sort"):
            original = getattr(np, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        i_idx, _ = plane_sweep_pair_arrays_segmented(
            a, a_seg, b, b_seg, WithinDistancePredicate(0.002)
        )
        monkeypatch.undo()
        assert i_idx.shape[0] > 0
        assert dict(calls) == {"argsort": 2}


class TestDescentsOpenPages:
    """One COUNT / WINDOW batch reads box coordinates only as page rows.

    The deterministic twin of the descents' wall-clock claim: a call starts
    at the root node and makes one page gather per level -- ``height - 1``
    of inner nodes, one of leaves -- whatever the number of windows and
    trees, not eight coordinate gathers per (child, query); it never reads
    ``node_cols`` / ``entry_cols``, and a WINDOW expands index ranges once,
    for the entries of every subtree it covers.
    """

    @staticmethod
    def _count_gathers(tree, monkeypatch):
        from repro.index import flat

        opened, expanded = defaultdict(int), []
        open_pages, expand = flat.FlatRTree._open, flat.expand_index_ranges

        def counted_open(self, nodes):
            opened["leaf" if self.is_leaf[nodes].all() else "inner"] += 1
            return open_pages(self, nodes)

        def counted_expand(starts, ends):
            expanded.append(starts.shape[0])
            return expand(starts, ends)

        monkeypatch.setattr(flat.FlatRTree, "_open", counted_open)
        monkeypatch.setattr(flat, "expand_index_ranges", counted_expand)
        # The columns are not there to be gathered from: pages are all a descent reads.
        monkeypatch.setattr(tree, "node_cols", None)
        monkeypatch.setattr(tree, "entry_cols", None)
        return opened, expanded

    @staticmethod
    def _windows(n, seed):
        rng = np.random.default_rng(seed)
        lo = rng.random((n, 2)) * 0.9
        return np.hstack([lo, lo + rng.random((n, 2)) * 0.1])

    @pytest.mark.parametrize("windows", [1, 40, 2000])
    def test_one_page_gather_per_level_and_kind(self, windows, monkeypatch):
        from repro.datasets.synthetic import clustered
        from repro.index.aggregate_rtree import AggregateRTree

        index = AggregateRTree.from_mbr_array(clustered(n=20000, clusters=128, seed=41000).mbrs)
        tree, height = index.flat, index.height
        wins = self._windows(windows, windows)
        want = tree.count_batch(wins), tree.window_batch_flat(wins)

        opened, expanded = self._count_gathers(tree, monkeypatch)
        counts = tree.count_batch(wins)
        assert dict(opened) == {"inner": height - 1, "leaf": 1} and not expanded
        opened.clear()
        bounds, rows = tree.window_batch_flat(wins)
        assert dict(opened) == {"inner": height - 1, "leaf": 1} and len(expanded) == 1
        monkeypatch.undo()
        assert counts.tolist() == want[0].tolist() and counts.sum() > 0
        assert bounds.tolist() == want[1][0].tolist() and rows.tolist() == want[1][1].tolist()

    @pytest.mark.parametrize("windows", [1, 40])
    def test_a_forest_of_unequal_heights_keeps_the_budget(self, windows, monkeypatch):
        """An empty tree, a one-leaf tree and a three-level tree: their roots
        are opened together, and the short trees' leaves settle at depth 0."""
        from repro.datasets.synthetic import uniform
        from repro.index.aggregate_rtree import AggregateRTree
        from repro.index.flat import FlatRTree

        sizes = (0, 10, 3000)
        indexes = [AggregateRTree.from_mbr_array(uniform(n=n, seed=n).mbrs) for n in sizes]
        assert [index.height for index in indexes] == [1, 1, 3]
        trees = [index.flat for index in indexes]
        forest = FlatRTree.forest(trees)
        wins = np.vstack([self._windows(windows, windows), [[0.0, 0.0, 1.0, 1.0]]])
        tree_of_row = np.arange(3 * wins.shape[0]) % 3
        row_wins, roots = wins[np.arange(3 * wins.shape[0]) // 3], forest.roots[tree_of_row]
        want = [(t.count_batch(wins), t.window_batch_flat(wins)) for t in trees]
        forest._page_table()  # built from the columns, before they go

        opened, expanded = self._count_gathers(forest, monkeypatch)
        counts = forest.count_batch(row_wins, roots)
        assert dict(opened) == {"inner": 2, "leaf": 1} and not expanded
        opened.clear()
        bounds, rows = forest.window_batch_flat(row_wins, roots)
        assert dict(opened) == {"inner": 2, "leaf": 1} and len(expanded) == 1
        monkeypatch.undo()
        offsets = forest.ent_start[forest.roots]
        for t, (want_counts, (want_bounds, want_rows)) in enumerate(want):
            mine = np.flatnonzero(tree_of_row == t)
            assert counts[mine].tolist() == want_counts.tolist()
            got = [rows[bounds[i] : bounds[i + 1]] - offsets[t] for i in mine]
            assert [g.tolist() for g in got] == [
                want_rows[want_bounds[k] : want_bounds[k + 1]].tolist() for k in range(wins.shape[0])
            ]
        assert counts.sum() > 0

