"""Tests for the device substrate: buffer, HBSJ, NLSJ, MobileDevice.

Every operator case runs the shipped one-request form and the scalar oracle
(``tests/oracles/operators_scalar.py``) on twin stacks and asserts equal
result objects, operator counters, server statistics and channel ledgers.
It also records the steps the operator's generator offers and asserts the
step sequence -- kind, side and row count of every request -- so the wire
order is pinned where it is decided, not only through the ledgers it leaves.

Every case also runs the *columnar* form -- ``HBSJColumns`` / ``NLSJColumns``
handed to ``DeviceGroup.hbsj_steps`` / ``.nlsj_steps``, which is how a
frontier level runs its leaves -- on a third stack: the same steps (``==`` on
every row), the same per-request result objects out of the operator's table
and the same stack state as the request-list form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.datasets.synthetic import clustered, gaussian_mixture, uniform
from repro.device.buffer import BufferExceededError, DeviceBuffer
from repro.device.hbsj import UNKNOWN, HBSJColumns, HBSJRequest
from repro.device.nlsj import NLSJColumns, NLSJRequest
from repro.device.pda import DeviceGroup, MobileDevice
from repro.device.steps import run_steps
from repro.errors import InvalidInput, ReproError
from repro.geometry.predicates import IntersectionPredicate, WithinDistancePredicate
from repro.geometry.rect import Rect
from repro.server.remote import ServerPair
from repro.server.server import SpatialServer

from tests.conftest import brute_force_pairs
from tests.oracles import operators_scalar

WINDOW = Rect(0.0, 0.0, 1.0, 1.0)


def _servers(dataset_r, dataset_s) -> ServerPair:
    return ServerPair.connect(
        SpatialServer(dataset_r, name="R"), SpatialServer(dataset_s, name="S")
    )


class TestDeviceBuffer:
    def test_capacity_validation(self):
        for capacity in (0, 2.5, float("nan"), "800"):
            with pytest.raises(InvalidInput, match="buffer capacity must be >= 1 and integral"):
                DeviceBuffer(capacity=capacity)
        assert DeviceBuffer(capacity=np.int64(1)).capacity == 1

    def test_allocate_and_release(self):
        buf = operators_scalar.TokenBuffer(capacity=100)
        token = buf.allocate(60)
        assert buf.used == 60
        assert buf.free == 40
        buf.release(token)
        assert buf.used == 0
        assert buf.high_water_mark == 60

    def test_overflow_raises(self):
        buf = operators_scalar.TokenBuffer(capacity=10)
        buf.allocate(8)
        with pytest.raises(BufferExceededError):
            buf.allocate(5)

    def test_can_fit(self):
        buf = operators_scalar.TokenBuffer(capacity=10)
        assert buf.can_fit(10)
        buf.allocate(4)
        assert buf.can_fit(6)
        assert not buf.can_fit(7)

    def test_double_release_is_idempotent(self):
        buf = operators_scalar.TokenBuffer(capacity=10)
        token = buf.allocate(5)
        buf.release(token)
        buf.release(token)
        assert buf.used == 0

    def test_release_unknown_token(self):
        with pytest.raises(ValueError):
            operators_scalar.TokenBuffer(capacity=5).release(3)

    def test_reset_clears_high_water_mark(self):
        buf = DeviceBuffer(capacity=10)
        buf.hold_in_turn(np.array([9]))
        buf.reset()
        assert buf.high_water_mark == 0

    def test_released_slots_are_reclaimed(self):
        """1,000 allocate / release cycles used to leave 1,000 zeroed entries."""
        buf = operators_scalar.TokenBuffer(capacity=10)
        held = buf.allocate(2)
        for _ in range(1000):
            buf.release(buf.allocate(3))
        assert len(buf._allocations) == 1 and buf.used == 2
        buf.release(held)
        assert not buf._allocations and buf.used == 0 and buf.high_water_mark == 5

    def test_overrun_is_a_typed_runtime_error(self):
        assert issubclass(BufferExceededError, ReproError)
        assert issubclass(BufferExceededError, RuntimeError)

    # 6 is the room left beside a 4-object allocation in a 10-object buffer.
    @pytest.mark.parametrize("capacity", [10, 6])
    @pytest.mark.parametrize(
        "sizes", [[], [0], [3, 6, 1], [6, 6, 6], [2, 7, 3], [1, 2, 11, 9, 12], [11]]
    )
    def test_hold_in_turn_is_allocate_release_per_entry(self, capacity, sizes):
        """The per-level call: same high-water mark, same overflow condition
        and same error as the oracle's allocate / release loop."""

        def outcome(buf, run):
            try:
                run(buf)
                error = None
            except BufferExceededError as exc:
                error = str(exc)
            return error, buf.high_water_mark

        def loop(buf):
            for size in sizes:
                buf.release(buf.allocate(size))

        got = outcome(
            DeviceBuffer(capacity=capacity),
            lambda buf: buf.hold_in_turn(np.array(sizes, dtype=np.int64)),
        )
        oracle = operators_scalar.TokenBuffer(capacity=capacity)
        assert got == outcome(oracle, loop)
        assert oracle.used == 0 and not oracle._allocations
        assert (got[0] is None) == (max(sizes, default=0) <= capacity)


# --------------------------------------------------------------------------- #
# the operators: the shipped one-request forms against the scalar oracle
# --------------------------------------------------------------------------- #


def _assert_twin_stacks_equal(shipped: MobileDevice, oracle: MobileDevice, ordered: bool):
    """Same operator counters, buffer peak, server statistics and channel
    totals; the same ledger records -- in the same order unless a window
    split (the scalar twin visits quadrants depth-first, the batch form
    level by level)."""
    assert shipped.counts == oracle.counts
    assert shipped.buffer.high_water_mark == oracle.buffer.high_water_mark
    for a, b in (
        (shipped.servers.r, oracle.servers.r),
        (shipped.servers.s, oracle.servers.s),
    ):
        assert a.server_stats() == b.server_stats()
        assert a.channel.snapshot() == b.channel.snapshot()
        got, want = a.channel.log.records, b.channel.log.records
        assert got == want if ordered else Counter(got) == Counter(want)


def _hbsj_columns(requests) -> HBSJColumns:
    """The requests as a frontier level states them: its own arrays."""
    return HBSJColumns(
        np.array([req.window.as_tuple() for req in requests]),
        np.array([UNKNOWN if req.count_r is None else req.count_r for req in requests]),
        np.array([UNKNOWN if req.count_s is None else req.count_s for req in requests]),
    )


def _nlsj_columns(requests) -> NLSJColumns:
    return NLSJColumns(
        np.array([req.window.as_tuple() for req in requests]),
        np.array([req.outer.upper() == "S" for req in requests]),
    )


def _drive_recording(steps, servers):
    """Drive a step generator with :func:`run_steps`, recording what it
    offers: its result, the shape ``[(kind, side, rows), ...]`` of every
    step and every request's rows as arrays."""
    shapes, rows = [], []

    def recorded():
        answers = None
        try:
            while True:
                step = steps.send(answers)
                assert step, "an operator never offers an empty step"
                shapes.append([(kind.name, side, len(args[0])) for kind, side, args in step])
                rows.append(
                    [
                        (kind.name, side, [np.asarray(a, dtype=float) for a in args])
                        for kind, side, args in step
                    ]
                )
                answers = yield step
        except StopIteration as stop:
            return stop.value

    return run_steps(recorded(), servers), shapes, rows


def _assert_same_rows(got, want):
    """``==`` on every coordinate of every request of every step."""
    assert len(got) == len(want)
    for step_a, step_b in zip(got, want):
        assert [(k, s) for k, s, _ in step_a] == [(k, s) for k, s, _ in step_b]
        for (_, _, args_a), (_, _, args_b) in zip(step_a, step_b):
            assert len(args_a) == len(args_b)
            for a, b in zip(args_a, args_b):
                assert a.shape == b.shape and np.array_equal(a, b)


def _hbsj_steps(r, s, buffer_size, predicate, requests=None, **counts):
    """The step shapes of HBSJ, recorded (== the locally-driven batch form
    == the columnar form, rows included)."""
    requests = requests or [HBSJRequest(WINDOW, **counts)]
    recording = MobileDevice(_servers(r, s), buffer_size=buffer_size)
    shipped = MobileDevice(_servers(r, s), buffer_size=buffer_size)
    columnar = MobileDevice(_servers(r, s), buffer_size=buffer_size)
    got, shapes, rows = _drive_recording(
        DeviceGroup([recording]).hbsj_steps(HBSJColumns.of(requests), predicate),
        recording.servers,
    )
    assert got == shipped.hbsj_batch(requests, predicate)
    _assert_twin_stacks_equal(recording, shipped, ordered=True)
    table, column_shapes, column_rows = _drive_recording(
        DeviceGroup([columnar]).hbsj_steps(_hbsj_columns(requests), predicate), columnar.servers
    )
    assert column_shapes == shapes and list(table) == list(got)
    _assert_same_rows(column_rows, rows)
    _assert_twin_stacks_equal(columnar, shipped, ordered=True)
    return shapes


def _nlsj_steps(r, s, buffer_size, predicate, requests, bucket=False):
    """The step shapes of NLSJ, recorded (== the locally-driven batch form
    == the columnar form, rows included)."""
    recording = MobileDevice(_servers(r, s), buffer_size=buffer_size)
    shipped = MobileDevice(_servers(r, s), buffer_size=buffer_size)
    columnar = MobileDevice(_servers(r, s), buffer_size=buffer_size)
    got, shapes, rows = _drive_recording(
        DeviceGroup([recording]).nlsj_steps(NLSJColumns.of(requests), predicate, bucket=bucket),
        recording.servers,
    )
    assert got == shipped.nlsj_batch(requests, predicate, bucket=bucket)
    _assert_twin_stacks_equal(recording, shipped, ordered=True)
    table, column_shapes, column_rows = _drive_recording(
        DeviceGroup([columnar]).nlsj_steps(_nlsj_columns(requests), predicate, bucket=bucket),
        columnar.servers,
    )
    assert column_shapes == shapes and list(table) == list(got)
    _assert_same_rows(column_rows, rows)
    _assert_twin_stacks_equal(columnar, shipped, ordered=True)
    return shapes


def _is_hbsj_level(step) -> bool:
    """A recursion level's step: [COUNT R 4k, COUNT S 4k] then [WINDOW R j, WINDOW S j]."""
    kinds = [(kind, side) for kind, side, _ in step]
    rows = [n for _, _, n in step]
    splits = kinds[:2] == [("count", "R"), ("count", "S")]
    rest = kinds[2:] if splits else kinds
    return (
        rest in ([], [("window", "R"), ("window", "S")])
        and (not splits or (rows[0] == rows[1] and rows[0] % 4 == 0))
        and (not rest or rows[-1] == rows[-2])
    )


def _run_hbsj(r, s, buffer_size, predicate, **counts):
    """HBSJ on twin stacks, shipped vs oracle, asserted equal; the shipped result."""
    shipped = MobileDevice(_servers(r, s), buffer_size=buffer_size)
    oracle = MobileDevice(_servers(r, s), buffer_size=buffer_size)
    got = shipped.hbsj(WINDOW, predicate, **counts)
    want = operators_scalar.device_hbsj(oracle, WINDOW, predicate, **counts)
    # The columnar form: the same result out of the table, the same stack.
    columnar = MobileDevice(_servers(r, s), buffer_size=buffer_size)
    (from_table,) = columnar.hbsj_batch(_hbsj_columns([HBSJRequest(WINDOW, **counts)]), predicate)
    assert from_table == got
    _assert_twin_stacks_equal(columnar, shipped, ordered=True)
    ordered = want.recursive_splits == 0
    if not ordered:
        got, want = (replace(res, pairs=sorted(res.pairs)) for res in (got, want))
    assert got == want
    _assert_twin_stacks_equal(shipped, oracle, ordered)
    assert shipped.buffer.high_water_mark <= buffer_size
    return got


def _run_nlsj(r, s, buffer_size, predicate, window=WINDOW, **options):
    """NLSJ on twin stacks, shipped vs oracle, asserted equal; the shipped
    result and the shipped stack's byte total."""
    shipped = MobileDevice(_servers(r, s), buffer_size=buffer_size)
    oracle = MobileDevice(_servers(r, s), buffer_size=buffer_size)
    got = shipped.nlsj(window, predicate, **options)
    want = operators_scalar.device_nlsj(oracle, window, predicate, **options)
    assert got == want
    _assert_twin_stacks_equal(shipped, oracle, ordered=True)
    columnar = MobileDevice(_servers(r, s), buffer_size=buffer_size)
    (from_table,) = columnar.nlsj_batch(
        _nlsj_columns([NLSJRequest(window, options.get("outer", "S"))]),
        predicate,
        bucket=options.get("bucket", False),
    )
    assert from_table == want
    _assert_twin_stacks_equal(columnar, oracle, ordered=True)
    return got, shipped.total_bytes()


class TestHBSJ:
    @pytest.mark.parametrize("eps", [0.02, 0.05])
    def test_exact_when_fitting_in_buffer(self, eps):
        r = uniform(n=120, seed=1)
        s = uniform(n=120, seed=2)
        result = _run_hbsj(r, s, 1000, WithinDistancePredicate(eps))
        assert set(result.pairs) == brute_force_pairs(r, s, eps)
        assert result.windows_joined == 1
        assert result.recursive_splits == 0
        assert result.count_queries == 2  # its own feasibility COUNTs
        assert _hbsj_steps(r, s, 1000, WithinDistancePredicate(eps)) == [
            [("count", "R", 1), ("count", "S", 1)],
            [("window", "R", 1), ("window", "S", 1)],
        ]

    def test_exact_with_recursive_partitioning(self):
        r = clustered(n=300, clusters=3, seed=3, std=0.05)
        s = clustered(n=300, clusters=3, seed=3, std=0.06)
        # 150 slots cannot hold both windows: the operator splits into quadrants.
        result = _run_hbsj(r, s, 150, WithinDistancePredicate(0.03))
        assert set(result.pairs) == brute_force_pairs(r, s, 0.03)
        assert result.recursive_splits >= 1
        feasibility, *levels = _hbsj_steps(r, s, 150, WithinDistancePredicate(0.03))
        assert feasibility == [("count", "R", 1), ("count", "S", 1)]
        assert levels[0] == [("count", "R", 4), ("count", "S", 4)]
        assert all(_is_hbsj_level(step) for step in levels)
        # Quadrant COUNTs and downloads of one level share a step, COUNTs first.
        assert any(len(step) == 4 for step in levels)
        assert sum(step[0][2] for step in levels if step[0][0] == "count") == (
            4 * result.recursive_splits
        )
        assert sum(step[-1][2] for step in levels if step[-1][0] == "window") == (
            result.windows_joined
        )

    def test_prunes_empty_windows(self):
        r = gaussian_mixture(n=100, centers=[(0.2, 0.2)], std=0.02, seed=4)
        s = gaussian_mixture(n=100, centers=[(0.8, 0.8)], std=0.02, seed=5)
        # 90 slots force splitting, then pruning.
        result = _run_hbsj(r, s, 90, WithinDistancePredicate(0.02))
        assert result.pairs == []
        assert result.windows_pruned >= 1
        feasibility, *levels = _hbsj_steps(r, s, 90, WithinDistancePredicate(0.02))
        assert feasibility == [("count", "R", 1), ("count", "S", 1)]
        # Every quadrant has an empty side: nothing is ever downloaded.
        assert levels == [[("count", "R", 4), ("count", "S", 4)]]

    def test_empty_side_prunes_the_window_itself(self):
        r = gaussian_mixture(n=60, centers=[(0.2, 0.2)], std=0.02, seed=4)
        s = uniform(n=60, seed=5)
        result = _run_hbsj(r, s, 500, IntersectionPredicate(), count_r=0, count_s=60)
        assert result.windows_pruned == 1 and result.windows_joined == 0
        assert result.count_queries == 0
        assert _hbsj_steps(r, s, 500, IntersectionPredicate(), count_r=0, count_s=60) == []

    def test_buffer_never_exceeded(self):
        r = clustered(n=400, clusters=2, seed=6, std=0.02)
        s = clustered(n=400, clusters=2, seed=6, std=0.02)
        _run_hbsj(r, s, 120, WithinDistancePredicate(0.01))

    def test_trusted_counts_skip_feasibility_queries(self):
        r = uniform(n=50, seed=7)
        s = uniform(n=50, seed=8)
        result = _run_hbsj(r, s, 500, IntersectionPredicate(), count_r=50, count_s=50)
        assert result.count_queries == 0
        assert _hbsj_steps(r, s, 500, IntersectionPredicate(), count_r=50, count_s=50) == [
            [("window", "R", 1), ("window", "S", 1)]
        ]

    def test_one_known_count_issues_the_other(self):
        r = uniform(n=50, seed=7)
        s = uniform(n=50, seed=8)
        result = _run_hbsj(r, s, 500, IntersectionPredicate(), count_r=50)
        assert result.count_queries == 1
        assert _hbsj_steps(r, s, 500, IntersectionPredicate(), count_r=50) == [
            [("count", "S", 1)],
            [("window", "R", 1), ("window", "S", 1)],
        ]

    def test_epsilon_scale_window_falls_back_to_nlsj(self):
        # Half the window side is within twice the S-side expansion, so
        # splitting cannot shrink the working set: the over-budget window is
        # finished by NLSJ probing instead.
        r = uniform(n=80, seed=21)
        s = uniform(n=80, seed=22)
        result = _run_hbsj(r, s, 40, WithinDistancePredicate(0.3))
        assert set(result.pairs) == brute_force_pairs(r, s, 0.3)
        assert result.nlsj_fallbacks == 1 and result.recursive_splits == 0
        # The fallback is NLSJ with outer R: download R, probe S once per object.
        assert _hbsj_steps(r, s, 40, WithinDistancePredicate(0.3)) == [
            [("count", "R", 1), ("count", "S", 1)],
            [("window", "R", 1)],
            [("range", "S", 80)],
        ]

    def test_recursion_depth_limit_falls_back_to_nlsj(self, monkeypatch):
        from repro.device import hbsj

        monkeypatch.setattr(hbsj, "MAX_RECURSION_DEPTH", 1)
        monkeypatch.setattr(operators_scalar, "MAX_RECURSION_DEPTH", 1)
        # No margin, so only the depth limit can stop the splitting.
        r = uniform(n=200, seed=23)
        s = uniform(n=200, seed=24)
        result = _run_hbsj(r, s, 60, IntersectionPredicate())
        assert result.recursive_splits == 1
        assert result.nlsj_fallbacks >= 1
        shapes = _hbsj_steps(r, s, 60, IntersectionPredicate())
        fallbacks = result.nlsj_fallbacks
        assert shapes[:2] == [
            [("count", "R", 1), ("count", "S", 1)],
            [("count", "R", 4), ("count", "S", 4)],
        ]
        # The quadrants that still do not fit finish with NLSJ, after the
        # downloads of the ones that do.
        if result.windows_joined:
            joined = result.windows_joined
            assert shapes[2] == [("window", "R", joined), ("window", "S", joined)]
        assert shapes[-2] == [("window", "R", fallbacks)]
        assert [(kind, side) for kind, side, _ in shapes[-1]] == [("range", "S")]
        assert len(shapes) == 4 + bool(result.windows_joined)

    def test_a_batch_shares_each_step_in_ledger_order(self):
        """Two invocations, one splitting and one feasible: the level's step
        carries the quadrant COUNTs of the first and the downloads of the
        second, COUNTs first -- the order the exchanges reach the ledgers."""
        r = uniform(n=200, seed=27)
        s = uniform(n=200, seed=28)
        requests = [HBSJRequest(WINDOW), HBSJRequest(Rect(0.0, 0.0, 0.3, 0.3))]
        assert _hbsj_steps(r, s, 150, WithinDistancePredicate(0.01), requests) == [
            [("count", "R", 2), ("count", "S", 2)],
            [("count", "R", 4), ("count", "S", 4), ("window", "R", 1), ("window", "S", 1)],
            [("window", "R", 4), ("window", "S", 4)],
        ]

    def test_intersection_join_of_rect_data(self):
        from repro.datasets.dataset import SpatialDataset

        def boxes(seed):
            rng = np.random.default_rng(seed)
            lo = rng.uniform(0, 0.9, size=(80, 2))
            hi = lo + rng.uniform(0.01, 0.1, size=(80, 2))
            return SpatialDataset(np.hstack([lo, np.minimum(hi, 1.0)]))

        r, s = boxes(1), boxes(2)
        result = _run_hbsj(r, s, 1000, IntersectionPredicate())
        from repro.geometry import rect_array

        matrix = rect_array.pairwise_intersects(r.mbrs, s.mbrs)
        expected = {
            (int(r.oids[i]), int(s.oids[j])) for i, j in zip(*np.nonzero(matrix))
        }
        assert set(result.pairs) == expected


class TestNLSJ:
    @pytest.mark.parametrize("outer", ["R", "S"])
    @pytest.mark.parametrize("bucket", [False, True])
    def test_exact_results(self, outer, bucket):
        r = clustered(n=90, clusters=2, seed=9, std=0.05)
        s = clustered(n=110, clusters=2, seed=9, std=0.05)
        result, _ = _run_nlsj(
            r, s, 500, WithinDistancePredicate(0.04), outer=outer, bucket=bucket
        )
        assert set(result.pairs) == brute_force_pairs(r, s, 0.04)
        assert result.outer == outer
        inner = "S" if outer == "R" else "R"
        assert _nlsj_steps(
            r, s, 500, WithinDistancePredicate(0.04), [NLSJRequest(WINDOW, outer)], bucket=bucket
        ) == [
            [("window", outer, 1)],
            [("bucket" if bucket else "range", inner, result.outer_objects)],
        ]

    @pytest.mark.parametrize("outer", ["R", "S"])
    def test_outer_larger_than_the_buffer_is_capped(self, outer):
        r = uniform(n=70, seed=25)
        s = uniform(n=70, seed=26)
        result, _ = _run_nlsj(r, s, 20, WithinDistancePredicate(0.03), outer=outer)
        assert set(result.pairs) == brute_force_pairs(r, s, 0.03)

    def test_bucket_uses_single_request(self):
        r = uniform(n=60, seed=10)
        s = uniform(n=60, seed=11)
        result, _ = _run_nlsj(
            r, s, 500, WithinDistancePredicate(0.05), outer="R", bucket=True
        )
        assert result.bucket_queries == 1
        assert result.probes_sent == result.outer_objects

    def test_bucket_saves_header_bytes(self):
        r = uniform(n=200, seed=12)
        s = uniform(n=200, seed=13)
        pred = WithinDistancePredicate(0.01)
        _, probing = _run_nlsj(r, s, 500, pred, outer="R", bucket=False)
        _, bucketed = _run_nlsj(r, s, 500, pred, outer="R", bucket=True)
        assert bucketed < probing

    def test_invalid_outer(self):
        r, s = uniform(n=5, seed=1), uniform(n=5, seed=2)
        device = MobileDevice(_servers(r, s), buffer_size=10)
        with pytest.raises(ValueError):
            device.nlsj(WINDOW, IntersectionPredicate(), outer="X")
        with pytest.raises(ValueError):
            operators_scalar.nested_loop_spatial_join(
                device.servers, WINDOW, IntersectionPredicate(),
                operators_scalar.TokenBuffer(10), outer="X",
            )
        assert device.total_bytes() == 0  # rejected before any exchange, both ways

    def test_empty_outer_short_circuits(self):
        r = gaussian_mixture(n=50, centers=[(0.1, 0.1)], std=0.01, seed=3)
        s = uniform(n=50, seed=4)
        result, _ = _run_nlsj(
            r, s, 100, WithinDistancePredicate(0.01),
            window=Rect(0.7, 0.7, 0.9, 0.9),  # region empty of R
            outer="R",
        )
        assert result.pairs == [] and result.probes_sent == 0
        # Nothing to probe with: the operator ends after the download.
        requests = [NLSJRequest(Rect(0.7, 0.7, 0.9, 0.9), "R")]
        for bucket in (False, True):
            assert _nlsj_steps(
                r, s, 100, WithinDistancePredicate(0.01), requests, bucket=bucket
            ) == [[("window", "R", 1)]]

    def test_a_batch_groups_its_requests_per_server_in_ledger_order(self):
        """Mixed outers in one batch: downloads R then S; per-probe RANGEs
        to S (outer R) then to R (outer S); bucket queries one per invocation,
        in invocation order."""
        r = uniform(n=40, seed=31)
        s = uniform(n=50, seed=32)
        pred = WithinDistancePredicate(0.05)
        halves = [Rect(0.0, 0.0, 0.5, 1.0), Rect(0.5, 0.0, 1.0, 1.0), Rect(0.0, 0.0, 1.0, 0.5)]
        requests = [NLSJRequest(w, o) for w, o in zip(halves, ("S", "R", "S"))]
        device = MobileDevice(_servers(r, s), buffer_size=500)
        n = [res.outer_objects for res in device.nlsj_batch(requests, pred)]
        assert all(n)
        assert _nlsj_steps(r, s, 500, pred, requests) == [
            [("window", "R", 1), ("window", "S", 2)],
            [("range", "S", n[1]), ("range", "R", n[0] + n[2])],
        ]
        assert _nlsj_steps(r, s, 500, pred, requests, bucket=True) == [
            [("window", "R", 1), ("window", "S", 2)],
            [("bucket", "R", n[0]), ("bucket", "S", n[1]), ("bucket", "R", n[2])],
        ]


class TestMobileDevice:
    def test_operator_bookkeeping(self):
        r = uniform(n=80, seed=14)
        s = uniform(n=80, seed=15)
        device = MobileDevice(_servers(r, s), buffer_size=400)
        pred = WithinDistancePredicate(0.03)
        device.hbsj(WINDOW, pred)
        device.nlsj(WINDOW, pred, outer="R")
        counts = device.counts
        assert counts.hbsj_invocations == 1
        assert counts.nlsj_invocations == 1
        assert device.total_bytes() > 0
        assert device.estimated_response_time() > 0

    def test_reset_clears_channels_and_buffer(self):
        r = uniform(n=40, seed=16)
        s = uniform(n=40, seed=17)
        device = MobileDevice(_servers(r, s), buffer_size=200)
        device.hbsj(WINDOW, IntersectionPredicate())
        device.reset()
        assert device.total_bytes() == 0
        assert device.buffer.high_water_mark == 0
        assert device.counts.hbsj_invocations == 0

    def test_count_both(self):
        r = uniform(n=30, seed=18)
        s = uniform(n=70, seed=19)
        device = MobileDevice(_servers(r, s), buffer_size=100)
        assert device.count_both(WINDOW) == (30, 70)
        assert device.counts.count_queries == 2
