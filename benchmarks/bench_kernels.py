"""Micro-benchmarks of the substrate kernels.

These are not paper figures; they document the raw cost of the building
blocks (in-memory join kernels, R-tree queries, packetisation accounting)
so regressions in the substrates are visible independently of the
algorithm-level experiments.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.costmodel import CostModel
from repro.datasets.synthetic import clustered, uniform
from repro.device.hbsj import HBSJColumns
from repro.device.pda import MobileDevice
from repro.device.steps import run_steps
from repro.geometry import rect_array
from repro.geometry.point import Point
from repro.geometry.predicates import WithinDistancePredicate
from repro.geometry.rect import Rect
from repro.index.hash_join import grid_hash_join
from repro.index.pairs import unique_pairs
from repro.index.plane_sweep import plane_sweep_pair_arrays_segmented, plane_sweep_pairs
from repro.index.flat import FlatRTree, str_tiling
from repro.index.aggregate_rtree import AggregateRTree
from repro.network.config import NetworkConfig
from repro.network.packets import transferred_bytes
from repro.server.remote import ServerPair
from repro.server.server import SpatialServer


def test_bench_plane_sweep_kernel(benchmark):
    a = uniform(n=2000, seed=1).mbrs
    b = uniform(n=2000, seed=2).mbrs
    predicate = WithinDistancePredicate(0.01)
    pairs = benchmark(plane_sweep_pairs, a, b, predicate)
    assert len(pairs) > 0


def test_bench_segmented_sweep_at_workload_shape(benchmark):
    """One sweep call as ``warm_session`` makes them (PR 23 capture: a median
    call is ~8,100 rows in ~140-190 segments): ~170 leaf cells of clustered
    points, each cell's R rows against the S rows of the cell grown by
    epsilon 0.002, one segment per cell."""
    eps = 0.002
    r = clustered(n=20000, clusters=128, seed=41000)
    s = clustered(n=20000, clusters=128, seed=41500)
    cells = rect_array.subdivide_window(Rect(0.0, 0.0, 1.0, 1.0), 64).reshape(-1, 4)
    sides = ([], []), ([], [])
    rows = segments = 0
    for cell in cells:
        window = Rect(*cell.tolist())
        mine = [
            data.mbrs[rect_array.intersects_window(data.mbrs, grown)]
            for data, grown in ((r, window), (s, window.expanded(eps)))
        ]
        if all(0 < m.shape[0] <= 60 for m in mine) and rows < 8000:
            for (mbrs, segs), m in zip(sides, mine):
                mbrs.append(m)
                segs.append(np.full(m.shape[0], segments))
            rows += sum(m.shape[0] for m in mine)
            segments += 1
    (a, a_seg), (b, b_seg) = ((np.vstack(m), np.concatenate(g)) for m, g in sides)
    benchmark.extra_info.update(rows=rows, segments=segments)
    i_idx, _ = benchmark(
        plane_sweep_pair_arrays_segmented, a, a_seg, b, b_seg, WithinDistancePredicate(eps)
    )
    assert rows > 6000 and segments > 100 and i_idx.shape[0] > 0


def test_bench_hbsj_operator_body(benchmark):
    """The HBSJ operator over 1,000 leaves of <= 100 objects with trusted
    counts, as a frontier level hands them over, on a primed stack: two
    WINDOW descents, one kernel call and the operator's own bookkeeping."""
    eps = 0.002
    r = clustered(n=20000, clusters=128, seed=41000)
    s = clustered(n=20000, clusters=128, seed=41500)
    servers = ServerPair.connect(SpatialServer(r, name="R"), SpatialServer(s, name="S"))
    device = MobileDevice(servers, buffer_size=100)
    cells = rect_array.subdivide_window(Rect(0.0, 0.0, 1.0, 1.0), 96).reshape(-1, 4)
    count_r = np.array(servers.r.count_batch(cells))
    count_s = np.array(servers.s.count_batch(rect_array.expand(cells, eps)))
    leaves = np.flatnonzero((count_r > 0) & (count_s > 0) & (count_r + count_s <= 100))[:1000]
    requests = HBSJColumns(cells[leaves], count_r[leaves], count_s[leaves])
    assert leaves.size == 1000

    def run():
        device.reset()
        return run_steps(device.hbsj_steps(requests, WithinDistancePredicate(eps)), servers)

    table = benchmark(run)
    assert len(table.pairs) > 0 and table.windows_joined.sum() == 1000
    assert device.counts.hbsj_invocations == 1000 and device.counts.count_queries == 0


@pytest.mark.parametrize("rows", [5_000, 3_500_000], ids=["warm-answer", "200k-answer"])
def test_bench_unique_pairs_at_workload_shape(benchmark, rows):
    """The answer's dedupe, one integer-key sort, at a median ``warm_session``
    answer (~4,800 distinct rows of 20k-object oids) and at a 200k x 200k
    UpJoin's (~2.9M distinct of 3.5M): ``array_equal`` to the two-key
    ``lexsort`` it replaced (``tests/oracles/pairs_lexsort.py``), whose time
    is in ``extra_info``."""
    from tests.oracles.pairs_lexsort import unique_pairs as lexsort_unique_pairs

    n = 20_000 if rows < 10_000 else 200_000
    rng = np.random.default_rng(rows)
    block = rng.integers(0, n, size=(rows, 2), dtype=np.int64)
    block[rows // 6 :: 5] = block[: len(block[rows // 6 :: 5])]  # neighbour buckets' repeats
    start = time.perf_counter()
    want = lexsort_unique_pairs(block)
    benchmark.extra_info["lexsort_s"] = time.perf_counter() - start
    got = benchmark(unique_pairs, block)
    benchmark.extra_info.update(rows=rows, distinct=got.shape[0])
    assert np.array_equal(got, want)


def test_bench_grid_hash_kernel(benchmark):
    r = clustered(n=3000, clusters=8, seed=3)
    s = clustered(n=3000, clusters=8, seed=4)
    predicate = WithinDistancePredicate(0.01)
    pairs = benchmark(
        grid_hash_join, r.mbrs, r.oids, s.mbrs, s.oids, predicate
    )
    assert isinstance(pairs, list)


def test_bench_flat_rtree_bulk_load(benchmark):
    """The servers' index build."""
    dataset = uniform(n=5000, seed=5)
    flat = benchmark(FlatRTree.from_mbr_array, dataset.mbrs, dataset.oids, 16)
    assert flat.size == 5000


def test_bench_bulk_load_at_cold_join_shape(benchmark):
    """The index build as ``cold_join`` pays it twice per op: 50k points of
    ``clustered(k=64)``."""
    dataset = clustered(n=50000, clusters=64, seed=41000)
    flat = benchmark(FlatRTree.from_mbr_array, dataset.mbrs, dataset.oids, 16)
    assert flat.size == 50000


def test_bench_str_tiling_at_cold_join_shape(benchmark):
    """That build's level-0 STR tiling: two exact stable orders and one
    packed ``int64`` sort."""
    mbrs = clustered(n=50000, clusters=64, seed=41000).mbrs
    perm, offs = benchmark(str_tiling, mbrs, 16)
    assert perm.shape == (50000,) and offs[-1] == 50000


def test_bench_clustered_generator_at_cold_join_shape(benchmark):
    """One of the two datasets a ``cold_join`` op generates."""
    dataset = benchmark(clustered, n=50000, clusters=64, seed=41000)
    assert len(dataset) == 50000


def test_bench_page_build(benchmark):
    """The page table the batch descents read, derived from a built index on
    its first batch query -- ``cold_join`` pays it twice per op (50k entries
    each), so it has to stay a few per cent of the bulk load above."""
    tree = FlatRTree.from_mbr_array(clustered(n=50000, clusters=128, seed=41000).mbrs, max_entries=16)

    def build():
        tree._pages = None
        return tree._page_table()

    pages, _, _ = benchmark(build)
    assert pages.shape[0] == 4 and pages.shape[2] == 16


def _workload_windows(tree: FlatRTree, cells_per_side: int, n: int, grow: float) -> np.ndarray:
    """``n`` occupied quadtree cells, evenly picked, each side grown by ``grow``."""
    cells = rect_array.subdivide_window(Rect(0.0, 0.0, 1.0, 1.0), cells_per_side)
    busy = cells[tree.count_batch(cells) > 0]
    return busy[np.linspace(0, busy.shape[0] - 1, n).astype(int)] + [-grow, -grow, grow, grow]


def test_bench_count_batch_at_workload_shape(benchmark):
    """One COUNT round as ``warm_session`` makes them (PR 24 capture: 276
    calls / 43,492 windows per cycle = 157 per call, depth-5 and depth-6
    quadtree cells of 20k clustered points, ~11 pages opened per window)."""
    tree = FlatRTree.from_mbr_array(clustered(n=20000, clusters=128, seed=41000).mbrs, max_entries=16)
    wins = _workload_windows(tree, 32, 157, 0.0)
    counts = benchmark(tree.count_batch, wins)
    assert counts.min() > 0


def test_bench_window_batch_at_workload_shape(benchmark):
    """One WINDOW round at ``warm_session``'s shape (133 windows per call:
    leaf cells, the S side grown by epsilon 0.002)."""
    tree = FlatRTree.from_mbr_array(clustered(n=20000, clusters=128, seed=41500).mbrs, max_entries=16)
    wins = _workload_windows(tree, 64, 133, 0.002)
    bounds, rows = benchmark(tree.window_batch_flat, wins)
    assert bounds[-1] == rows.shape[0] > 0


@pytest.mark.parametrize("windows", [1, 4, 37])
@pytest.mark.parametrize("kind", ["count", "window", "range"])
def test_bench_small_descent(benchmark, kind, windows):
    """A descent's fixed cost: one COUNT / WINDOW / RANGE call of a few rows
    (``broker_waves`` asks 37 windows per call on average, many calls far
    fewer), on a 20k tree whose page table is built."""
    tree = FlatRTree.from_mbr_array(clustered(n=20000, clusters=128, seed=41000).mbrs, max_entries=16)
    wins = _workload_windows(tree, 32, windows, 0.002)
    tree._page_table()
    if kind == "count":
        assert benchmark(tree.count_batch, wins).min() > 0
    elif kind == "window":
        bounds, rows = benchmark(tree.window_batch_flat, wins)
        assert bounds[-1] == rows.shape[0] > 0
    else:
        centres, radii = (wins[:, :2] + wins[:, 2:]) / 2, np.full(windows, 0.01)
        bounds, rows = benchmark(tree.range_batch_flat, centres, radii)
        assert bounds[-1] == rows.shape[0]


@pytest.mark.parametrize("items", [1, 4])
def test_bench_small_grid_free_join(benchmark, items):
    """A leaf join's fixed cost: one batch of ``items`` grid-free windows,
    under 200 rows in all, as a narrow frontier level hands them over."""
    from repro.index.hash_join import JoinBatch, grid_hash_join_batch

    eps = 0.002
    r = clustered(n=20000, clusters=128, seed=41000)
    s = clustered(n=20000, clusters=128, seed=41500)
    picked = []
    for cell in rect_array.subdivide_window(Rect(0.0, 0.0, 1.0, 1.0), 64).reshape(-1, 4):
        window = Rect(*cell.tolist())
        a, b = (
            data.mbrs[rect_array.intersects_window(data.mbrs, grown)]
            for data, grown in ((r, window), (s, window.expanded(eps)))
        )
        if 0 < a.shape[0] and 0 < b.shape[0] and a.shape[0] + b.shape[0] <= 150 // items:
            picked.append((a, np.arange(a.shape[0]), b, np.arange(b.shape[0])))
        if len(picked) == items:
            break
    batch = JoinBatch.from_items(picked)
    assert len(picked) == items and batch.a_bounds[-1] + batch.b_bounds[-1] < 200
    pairs, starts = benchmark(grid_hash_join_batch, batch, WithinDistancePredicate(eps))
    assert starts.shape == (items + 1,)


def test_bench_rtree_window_queries(benchmark):
    dataset = uniform(n=5000, seed=6)
    tree = FlatRTree.from_mbr_array(dataset.mbrs, dataset.oids, max_entries=16)
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


_SENDS = ("send_query", "send_response", "send_uniform_batch", "send_payload_batch", "reset")


def _captured_ledger_calls(workload: str = "warm_session", seed: int = 41):
    """Every ``Channel`` send / reset of one cycle of a ``benchmarks/e2e``
    workload (the harness is imported, never edited), with the channels'
    configs and names and what the cycle left on them."""
    from benchmarks.e2e import harness
    from repro.network.channel import Channel

    channels, calls = {}, []

    def wrap(name, inner):
        def wrapper(self, *args, **kwargs):
            key = channels.setdefault(id(self), (len(channels), self))[0]
            out = inner(self, *args, **kwargs)
            calls.append((name, key, args, kwargs, out))
            return out

        return wrapper

    originals = {name: vars(Channel)[name] for name in _SENDS}
    w = harness.make_workload(harness.load_spec(workload), seed)
    w.setup()
    w.warm_up()
    try:
        for name, inner in originals.items():
            setattr(Channel, name, wrap(name, inner))
        w.begin_cycle()
        for slot in range(w.cycle_len):
            w.run_op(slot)
    finally:
        for name, inner in originals.items():
            setattr(Channel, name, inner)
    made = [chan for _, chan in sorted(channels.values(), key=lambda item: item[0])]
    return w.cycle_len, made, calls


def test_bench_ledger_at_workload_shape(benchmark):
    """The traffic ledger as one ``warm_session`` cycle (seed 41) writes it:
    its captured sends replayed into fresh channels, with every call's wire
    bytes and every channel's final totals and ledger fingerprint asserted."""
    from repro.network.channel import Channel

    cycle_len, made, calls = _captured_ledger_calls()
    assert any(name == "send_payload_batch" for name, *_ in calls)

    def replay():
        fresh = [Channel(chan.config, tariff=chan.tariff, name=chan.name) for chan in made]
        wire = [getattr(fresh[key], name)(*args, **kwargs) for name, key, args, kwargs, _ in calls]
        return fresh, wire

    fresh, wire = benchmark(replay)
    benchmark.extra_info.update(calls=len(calls), messages=sum(len(c.log) for c in made))
    benchmark.extra_info["ms_per_op"] = 1e3 * benchmark.stats.stats.min / cycle_len
    assert wire == [out for *_, out in calls]
    assert [c.ledger_fingerprint() for c in fresh] == [c.ledger_fingerprint() for c in made]
    assert [c.snapshot() for c in fresh] == [c.snapshot() for c in made]


def test_bench_packetisation(benchmark):
    cfg = NetworkConfig()

    def run():
        return sum(transferred_bytes(n, cfg) for n in range(0, 200_000, 37))

    total = benchmark(run)
    assert total > 0


def test_bench_level_cost_table(benchmark):
    """One level of 1,024 windows costed in one call (c1..c4 and the argmin),
    beside the same windows costed one row at a time (``extra_info``)."""
    model = CostModel(NetworkConfig(), epsilon=0.002)
    rng = np.random.default_rng(9)
    corners = rng.uniform(0.0, 0.9, size=(1024, 2))
    windows = np.hstack([corners, corners + rng.uniform(0.001, 0.1, size=(1024, 2))])
    n_r = rng.integers(0, 2000, size=1024)
    n_s = rng.integers(0, 2000, size=1024)

    def level():
        return model.breakdown(windows, n_r, n_s, buffer_size=100).cheapest()

    rects = [Rect(*row) for row in windows.tolist()]
    start = time.perf_counter()
    one_row = [
        model.breakdown(rect, r, s, buffer_size=100).cheapest()
        for rect, r, s in zip(rects, n_r.tolist(), n_s.tolist())
    ]
    benchmark.extra_info["one_row_calls_s"] = time.perf_counter() - start
    assert benchmark(level) == one_row
