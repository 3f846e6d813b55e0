"""Micro-benchmarks of the substrate kernels.

These are not paper figures; they document the raw cost of the building
blocks (in-memory join kernels, R-tree queries, packetisation accounting)
so regressions in the substrates are visible independently of the
algorithm-level experiments.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.synthetic import clustered, uniform
from repro.geometry import rect_array
from repro.geometry.point import Point
from repro.geometry.predicates import WithinDistancePredicate
from repro.geometry.rect import Rect
from repro.index.hash_join import grid_hash_join
from repro.index.plane_sweep import plane_sweep_pairs, plane_sweep_pairs_scalar
from repro.index.flat import FlatRTree
from repro.index.rtree import RTree
from repro.index.aggregate_rtree import AggregateRTree
from repro.network.config import NetworkConfig
from repro.network.packets import transferred_bytes


def test_bench_plane_sweep_kernel(benchmark):
    a = uniform(n=2000, seed=1).mbrs
    b = uniform(n=2000, seed=2).mbrs
    predicate = WithinDistancePredicate(0.01)
    pairs = benchmark(plane_sweep_pairs, a, b, predicate)
    assert len(pairs) > 0


def test_bench_grid_hash_kernel(benchmark):
    r = clustered(n=3000, clusters=8, seed=3)
    s = clustered(n=3000, clusters=8, seed=4)
    predicate = WithinDistancePredicate(0.01)
    pairs = benchmark(
        grid_hash_join, r.mbrs, r.oids, s.mbrs, s.oids, predicate
    )
    assert isinstance(pairs, list)


def test_bench_rtree_bulk_load(benchmark):
    dataset = uniform(n=5000, seed=5)
    entries = dataset.entries()
    tree = benchmark(RTree.bulk_load, entries, 16)
    assert len(tree) == 5000


def test_bench_flat_rtree_bulk_load(benchmark):
    """The servers' build, on the same data as the pointer-tree bench above."""
    dataset = uniform(n=5000, seed=5)
    flat = benchmark(FlatRTree.from_mbr_array, dataset.mbrs, dataset.oids, 16)
    assert flat.size == 5000


def test_bench_rtree_window_queries(benchmark):
    dataset = uniform(n=5000, seed=6)
    tree = RTree.bulk_load(dataset.entries(), max_entries=16)
    windows = [Rect(0.1 * i % 0.8, 0.07 * i % 0.8, 0.1 * i % 0.8 + 0.2, 0.07 * i % 0.8 + 0.2)
               for i in range(50)]

    def run():
        total = 0
        for w in windows:
            total += len(tree.window_query(w))
        return total

    total = benchmark(run)
    assert total > 0


def test_bench_aggregate_count(benchmark):
    dataset = clustered(n=5000, clusters=16, seed=7)
    agg = AggregateRTree(dataset.entries(), max_entries=16)
    windows = Rect(0, 0, 1, 1).subdivide(8)

    def run():
        return sum(agg.count(w) for w in windows)

    total = benchmark(run)
    assert total >= 5000  # replication-free counts over a tiling >= n


def test_bench_range_queries(benchmark):
    dataset = clustered(n=5000, clusters=8, seed=8)
    agg = AggregateRTree(dataset.entries(), max_entries=16)
    probes = [Point(0.01 * i % 1.0, 0.013 * i % 1.0) for i in range(200)]

    def run():
        return sum(len(agg.range_query(p, 0.02)) for p in probes)

    benchmark(run)


def test_bench_packetisation(benchmark):
    cfg = NetworkConfig()

    def run():
        return sum(transferred_bytes(n, cfg) for n in range(0, 200_000, 37))

    total = benchmark(run)
    assert total > 0


# --------------------------------------------------------------------------- #
# scalar vs. vectorised: the perf-trajectory record
# --------------------------------------------------------------------------- #


def _median_time(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def test_bench_plane_sweep_scalar_reference(benchmark):
    """The seed's per-lead sweep, kept as the regression baseline."""
    a = uniform(n=2000, seed=1).mbrs
    b = uniform(n=2000, seed=2).mbrs
    predicate = WithinDistancePredicate(0.01)
    pairs = benchmark(plane_sweep_pairs_scalar, a, b, predicate)
    assert len(pairs) > 0


@pytest.mark.perf
def test_kernel_speedup_record():
    """Record the scalar-vs-vectorised kernel speedups as JSON.

    Writes ``benchmarks/results/kernel_speedup.json`` so the perf
    trajectory of the batch execution layer is tracked across PRs.  The
    vectorised paths must beat the seed's scalar paths comfortably; the
    assertion threshold is kept below the measured ratios to stay robust on
    noisy machines.
    """
    cases = {}

    # 1. Plane sweep (the in-memory join filter step).
    a = uniform(n=2000, seed=1).mbrs
    b = uniform(n=2000, seed=2).mbrs
    predicate = WithinDistancePredicate(0.01)
    expected = set(plane_sweep_pairs_scalar(a, b, predicate))
    assert set(plane_sweep_pairs(a, b, predicate)) == expected
    cases["plane_sweep_2000x2000_eps0.01"] = (
        _median_time(lambda: plane_sweep_pairs_scalar(a, b, predicate)),
        _median_time(lambda: plane_sweep_pairs(a, b, predicate)),
    )

    # 2. Within-distance refinement (NLSJ candidate verification).
    cand = clustered(n=20000, clusters=8, seed=3).mbrs
    probe = Rect(0.4, 0.4, 0.45, 0.47)
    eps = 0.05

    def refine_scalar():
        hits = []
        for row in cand:
            other = Rect(float(row[0]), float(row[1]), float(row[2]), float(row[3]))
            if probe.within_distance(other, eps):
                hits.append(other)
        return hits

    def refine_vectorised():
        return rect_array.within_distance_of_rect(cand, probe, eps)

    assert int(np.count_nonzero(refine_vectorised())) == len(refine_scalar())
    cases["within_distance_refinement_20000"] = (
        _median_time(refine_scalar),
        _median_time(refine_vectorised),
    )

    # 3. Batched COUNT over the aggregate index (quadrant statistics path).
    ds = clustered(n=20000, clusters=16, seed=4)
    agg = AggregateRTree(ds.entries(), max_entries=16)
    windows = Rect(0, 0, 1, 1).subdivide(8)
    agg.count_batch(windows[:1])  # build the flat view outside the timing

    def count_scalar():
        return [agg.count(w) for w in windows]

    def count_batched():
        return agg.count_batch(windows)

    assert count_scalar() == count_batched()
    cases["aggregate_count_64_windows_20000"] = (
        _median_time(count_scalar),
        _median_time(count_batched),
    )

    # Loose stated thresholds for the regression gate (collect.py --check):
    # measured ratios are far higher, but wall-clock gates on shared
    # machines must leave a wide margin.
    gated = {
        "plane_sweep_2000x2000_eps0.01": 1.5,
        "within_distance_refinement_20000": 1.5,
    }
    record = {
        "description": "scalar (seed) vs vectorised batch-kernel wall-clock, medians of 5",
        "cases": {
            name: {
                "scalar_s": round(scalar, 6),
                "vectorized_s": round(vectorised, 6),
                "speedup": round(scalar / vectorised, 2),
                **({"min_speedup": gated[name]} if name in gated else {}),
            }
            for name, (scalar, vectorised) in cases.items()
        },
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "kernel_speedup.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    # Loose thresholds: the measured ratios are ~6x and ~300x, but
    # wall-clock assertions on shared machines must leave a wide margin --
    # the JSON record carries the real numbers.
    sweep = record["cases"]["plane_sweep_2000x2000_eps0.01"]["speedup"]
    refine = record["cases"]["within_distance_refinement_20000"]["speedup"]
    assert sweep >= 1.5, f"plane sweep speedup regressed: {sweep}x"
    assert refine >= 1.5, f"refinement speedup regressed: {refine}x"
