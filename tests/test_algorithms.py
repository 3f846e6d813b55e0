"""Integration tests: every join algorithm must produce the exact answer.

The oracle is a vectorised brute-force distance/intersection join over the
raw datasets; every algorithm (baseline, contribution and comparator) must
return exactly the same pair set while respecting the device buffer.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import HISTORY_LIMIT, AdHocJoinSession, available_algorithms, quick_join
from repro.core.join_types import JoinSpec
from repro.datasets.synthetic import clustered, gaussian_mixture, uniform
from repro.errors import InvalidInput
from repro.geometry.rect import Rect

from tests.conftest import brute_force_pairs

ALL_ALGORITHMS = ("naive", "fixedgrid", "mobijoin", "upjoin", "srjoin", "semijoin")


def _session(r, s, buffer_size=300) -> AdHocJoinSession:
    return AdHocJoinSession(r, s, buffer_size=buffer_size)


class TestExactness:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_overlapping_clusters(self, algorithm):
        r = clustered(n=250, clusters=3, seed=21, std=0.05)
        s = clustered(n=250, clusters=3, seed=21, std=0.06)
        expected = brute_force_pairs(r, s, 0.03)
        result = _session(r, s).run(algorithm=algorithm, epsilon=0.03)
        assert result.pairs == expected
        if algorithm != "naive":  # naive deliberately ignores the buffer
            assert result.buffer_high_water_mark <= 300

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_disjoint_clusters_yield_empty_result(self, algorithm):
        r = gaussian_mixture(n=150, centers=[(0.2, 0.2)], std=0.03, seed=1)
        s = gaussian_mixture(n=150, centers=[(0.8, 0.8)], std=0.03, seed=2)
        result = _session(r, s).run(algorithm=algorithm, epsilon=0.02)
        assert result.pairs == set()

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_uniform_data(self, algorithm):
        r = uniform(n=200, seed=3)
        s = uniform(n=200, seed=4)
        expected = brute_force_pairs(r, s, 0.025)
        result = _session(r, s).run(algorithm=algorithm, epsilon=0.025)
        assert result.pairs == expected

    @pytest.mark.parametrize("algorithm", ("mobijoin", "upjoin", "srjoin"))
    @pytest.mark.parametrize("buffer_size", (50, 120, 1000))
    def test_buffer_sizes_do_not_change_the_answer(self, algorithm, buffer_size):
        r = clustered(n=200, clusters=4, seed=5, std=0.04)
        s = clustered(n=200, clusters=4, seed=5, std=0.04)
        expected = brute_force_pairs(r, s, 0.02)
        result = _session(r, s, buffer_size=buffer_size).run(
            algorithm=algorithm, epsilon=0.02
        )
        assert result.pairs == expected
        assert result.buffer_high_water_mark <= buffer_size

    @pytest.mark.parametrize("algorithm", ("mobijoin", "upjoin", "srjoin"))
    def test_bucket_queries_do_not_change_the_answer(self, algorithm):
        r = clustered(n=180, clusters=2, seed=6, std=0.05)
        s = clustered(n=180, clusters=2, seed=6, std=0.05)
        expected = brute_force_pairs(r, s, 0.03)
        session = _session(r, s)
        plain = session.run(algorithm=algorithm, epsilon=0.03, bucket_queries=False)
        bucket = session.run(algorithm=algorithm, epsilon=0.03, bucket_queries=True)
        assert plain.pairs == expected
        assert bucket.pairs == expected

    @pytest.mark.parametrize("algorithm", ("upjoin", "srjoin", "mobijoin"))
    def test_asymmetric_sizes(self, algorithm):
        r = uniform(n=500, seed=7)
        s = gaussian_mixture(n=40, centers=[(0.5, 0.5)], std=0.1, seed=8)
        expected = brute_force_pairs(r, s, 0.03)
        result = _session(r, s, buffer_size=200).run(algorithm=algorithm, epsilon=0.03)
        assert result.pairs == expected

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_sub_window_join(self, algorithm):
        r = uniform(n=300, seed=9)
        s = uniform(n=300, seed=10)
        window = Rect(0.25, 0.25, 0.75, 0.75)
        result = _session(r, s).run(algorithm=algorithm, epsilon=0.02, window=window)
        # Every reported pair's R object must intersect the window, and all
        # pairs fully inside the window must be present.
        full = brute_force_pairs(r, s, 0.02)
        inner_r = set(r.oids[r.window_mask(window)].tolist())
        must_have = {(a, b) for a, b in full if a in inner_r}
        assert must_have <= result.pairs
        assert all(a in inner_r for a, _ in result.pairs)
        assert result.pairs <= full


class TestJoinKinds:
    def test_intersection_join_on_point_data_matches_oracle(self):
        # Point datasets intersect only at identical coordinates; build some.
        import numpy as np

        from repro.datasets.dataset import SpatialDataset

        rng = np.random.default_rng(0)
        base = rng.uniform(0, 1, size=(50, 2))
        r = SpatialDataset.from_points(base, name="R")
        shuffled = base.copy()
        rng.shuffle(shuffled[25:])  # half the points coincide, half do not
        s = SpatialDataset.from_points(shuffled, name="S")
        result = _session(r, s).run(algorithm="upjoin", kind="intersection")
        expected = brute_force_pairs(r, s, 0.0)
        assert result.pairs == expected
        assert len(result.pairs) >= 25

    def test_iceberg_semi_join(self):
        r = uniform(n=150, seed=11)
        s = uniform(n=400, seed=12)
        session = _session(r, s)
        result = session.run(algorithm="srjoin", kind="iceberg", epsilon=0.08, min_matches=5)
        pairs = brute_force_pairs(r, s, 0.08)
        per_r = {}
        for a, _ in pairs:
            per_r[a] = per_r.get(a, 0) + 1
        expected_objects = sorted(oid for oid, cnt in per_r.items() if cnt >= 5)
        assert result.objects == expected_objects
        assert result.spec.is_semi_join

    def test_distance_join_requires_epsilon(self):
        with pytest.raises(ValueError):
            JoinSpec.distance(0.0)

    def test_iceberg_requires_min_matches(self):
        with pytest.raises(ValueError):
            JoinSpec.iceberg(0.1, 0)


class TestSessionBehaviour:
    def test_available_algorithms_exposed(self):
        names = available_algorithms()
        for expected in ALL_ALGORITHMS:
            assert expected in names

    def test_unknown_algorithm_rejected(self):
        r = uniform(n=20, seed=13)
        s = uniform(n=20, seed=14)
        with pytest.raises(ValueError):
            _session(r, s).run(algorithm="quantumjoin", epsilon=0.1)
        # An unknown join kind was the last bare ValueError on this path.
        with pytest.raises(InvalidInput, match="unknown join kind 'bogus'"):
            _session(r, s).run(algorithm="naive", epsilon=0.1, kind="bogus")
        with pytest.raises(InvalidInput, match="unknown join kind 'bogus'"):
            quick_join(r, s, algorithm="naive", epsilon=0.1, kind="bogus")

    def test_runs_are_isolated(self):
        r = uniform(n=100, seed=15)
        s = uniform(n=100, seed=16)
        session = _session(r, s)
        first = session.run(algorithm="srjoin", epsilon=0.02)
        second = session.run(algorithm="srjoin", epsilon=0.02)
        assert first.total_bytes == second.total_bytes
        assert first.pairs == second.pairs
        assert len(session.history) == 2

    def test_history_keeps_only_the_most_recent_results(self):
        r = uniform(n=30, seed=15)
        s = uniform(n=30, seed=16)
        session = _session(r, s)
        results = [
            session.run(algorithm="naive", epsilon=0.02, seed=i)
            for i in range(HISTORY_LIMIT + 3)
        ]
        history = session.history
        assert len(history) == HISTORY_LIMIT
        assert all(kept is run for kept, run in zip(history, results[3:]))  # newest last

    def test_quick_join_end_to_end(self):
        r = clustered(n=120, clusters=2, seed=17, std=0.05)
        s = clustered(n=120, clusters=2, seed=17, std=0.05)
        result = quick_join(r, s, algorithm="upjoin", epsilon=0.03, buffer_size=200)
        assert result.pairs == brute_force_pairs(r, s, 0.03)
        assert result.total_bytes > 0
        assert result.algorithm == "upjoin"

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1.0])
    def test_entry_points_reject_unusable_epsilon(self, epsilon):
        r = uniform(n=30, seed=18)
        s = uniform(n=30, seed=19)
        with pytest.raises(InvalidInput):
            quick_join(r, s, algorithm="upjoin", epsilon=epsilon)
        with pytest.raises(InvalidInput):
            AdHocJoinSession(r, s).run(algorithm="naive", epsilon=epsilon, kind="iceberg")

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    @pytest.mark.parametrize("buffer_size", [0, -1, 2.5, float("nan"), "800"])
    def test_run_rejects_an_unusable_buffer_before_any_exchange(self, algorithm, buffer_size):
        # A run's buffer is its session's: an unusable size is refused when
        # the session is built, before any run exchanges anything (0 once
        # joined on a zero-slot device, -1 died mid-join after exchanges had
        # been metered, 2.5 ran, nan and "800" failed with untyped errors).
        r, s = uniform(n=60, seed=18), uniform(n=60, seed=19)
        with pytest.raises(InvalidInput):
            quick_join(r, s, algorithm=algorithm, epsilon=0.01, buffer_size=buffer_size)
        # The same datasets join at a usable size.
        assert quick_join(r, s, algorithm=algorithm, epsilon=0.01).pairs == brute_force_pairs(
            r, s, 0.01
        )

    @pytest.mark.parametrize(
        "bad",
        [
            dict(alpha=0.0),
            dict(alpha=1.5),
            dict(alpha=float("nan")),
            dict(alpha=float("inf")),
            dict(rho=0.0),
            dict(rho=-0.3),
            dict(rho=float("nan")),  # passed ``rho <= 0`` and compared False ever after
            dict(rho=float("inf")),  # no quadrant was ever dense
            dict(grid_k=1),
            dict(grid_k=2.5),  # died inside the cost model's np.arange
            dict(grid_k=float("nan")),
        ],
        ids=lambda bad: "{}={}".format(*next(iter(bad.items()))),
    )
    def test_unusable_tunables_are_typed_before_any_exchange(self, bad):
        from repro.core.base import AlgorithmParameters

        # Bare ValueErrors until PR 22; nan / inf / 2.5 were accepted.
        with pytest.raises(InvalidInput, match=next(iter(bad))):
            AlgorithmParameters(**bad)
        session = _session(uniform(n=60, seed=18), uniform(n=60, seed=19))
        with pytest.raises(InvalidInput):
            session.run(algorithm="mobijoin", epsilon=0.01, **bad)
        assert session.device.total_bytes() == 0

    def test_usable_tunables_at_the_edges_are_accepted(self):
        import numpy as np

        from repro.core.base import AlgorithmParameters

        params = AlgorithmParameters(alpha=1.0, rho=1e-9, grid_k=np.int64(3))
        assert params.grid_k == 3

    def test_no_entry_point_takes_an_algorithm_option(self):
        # An algorithm has one configuration: the shared tunables are all it
        # takes, so an option of its own is a wrong keyword on every entry
        # point, refused before anything is exchanged.
        from repro.core.planner import build_algorithm, build_session_stack, run_join

        r, s = uniform(n=30, seed=18), uniform(n=30, seed=19)
        session = AdHocJoinSession(r, s)
        for algorithm in ALL_ALGORITHMS:
            for option in ("grid_size", "prune_empty", "enforce_buffer", "execution"):
                with pytest.raises(TypeError, match=option):
                    session.run(algorithm, epsilon=0.05, **{option: 3})
        with pytest.raises(TypeError, match="enforce_buffer"):
            run_join(r, s, JoinSpec.distance(0.05), algorithm="fixedgrid", enforce_buffer=True)
        _, _, device = build_session_stack(r, s)
        with pytest.raises(TypeError, match="grid_size"):
            build_algorithm("naive", device, JoinSpec.distance(0.05), grid_size=3)
        assert session.device.total_bytes() == device.total_bytes() == 0
        # The fixed grid prunes empty cells of its 4 x 4 grid.
        result = session.run("fixedgrid", epsilon=0.05)
        assert result.pairs == brute_force_pairs(r, s, 0.05)
        assert result.operator_counts["count_queries"] >= 2 * 16

    def test_semijoin_runs_on_every_plain_session(self):
        # Every connection to one server publishes its index: a session
        # built with ``indexed=False`` runs SemiJoin exactly as the default.
        r = uniform(n=30, seed=18)
        s = uniform(n=30, seed=19)
        sessions = [AdHocJoinSession(r, s, indexed=False), AdHocJoinSession(r, s)]
        off, default = (session.run(algorithm="semijoin", epsilon=0.05) for session in sessions)
        assert off.pairs == default.pairs == brute_force_pairs(r, s, 0.05)
        assert off.num_pairs > 0
        assert (off.total_bytes, off.bytes_r, off.bytes_s) == (
            default.total_bytes, default.bytes_r, default.bytes_s
        )
        assert off.server_stats == default.server_stats
        assert off.channel_stats == default.channel_stats
        off_ledgers, default_ledgers = (
            (session.device.servers.r.ledger_fingerprint(),
             session.device.servers.s.ledger_fingerprint())
            for session in sessions
        )
        assert off_ledgers == default_ledgers
        assert list(off.trace) == list(default.trace)
        assert [e.action for e in off.trace][-1] == "semijoin-join"

    def test_trace_records_decisions(self):
        r = clustered(n=200, clusters=2, seed=20, std=0.03)
        s = clustered(n=200, clusters=2, seed=21, std=0.03)
        result = _session(r, s).run(algorithm="upjoin", epsilon=0.02)
        assert result.trace
        assert result.trace[0].action == "start"
        assert "upjoin" in result.format_trace(5)
        assert "algorithm" in result.summary()

    def test_cost_equals_bytes_for_unit_tariffs(self):
        r = uniform(n=80, seed=22)
        s = uniform(n=80, seed=23)
        result = _session(r, s).run(algorithm="mobijoin", epsilon=0.02)
        assert result.total_cost == pytest.approx(float(result.total_bytes))
        assert result.total_bytes == result.bytes_r + result.bytes_s


@functools.lru_cache(maxsize=None)
def _relay_session(seed: int) -> AdHocJoinSession:
    """Clustered R (smaller than S for seed 0, larger after) x uniform S."""
    r = clustered(n=40 + 60 * seed, clusters=3, seed=60 + seed, std=0.04, name="R")
    return AdHocJoinSession(r, uniform(n=80, seed=70 + seed, name="S"))


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2),
    corner=st.tuples(st.floats(-0.1, 1.0), st.floats(-0.1, 1.0)),
    size=st.tuples(st.floats(0.0, 0.6), st.floats(0.0, 0.6)),
    epsilon=st.sampled_from([0.0, 0.001, 0.03]),
)
def test_every_semijoin_past_its_root_round_uploads_a_window(seed, corner, size, epsilon):
    """Both root counts positive => a level MBR of the large side meets the
    window: the relay records ``semijoin-mbrs`` then ``semijoin-objects``
    and the small side is asked at least one window (see the argument in
    ``repro.core.semijoin``)."""
    (x, y), (w, h) = corner, size
    result = _relay_session(seed).run(
        "semijoin", epsilon=epsilon, kind="distance" if epsilon else "intersection",
        window=Rect(x, y, x + w, y + h),
    )
    start, *rest = result.trace
    if not (start.count_r and start.count_s):
        assert [e.action for e in rest] == ["prune"]
        return
    actions = [e.action for e in rest]
    assert actions[:3] == ["semijoin-plan", "semijoin-mbrs", "semijoin-objects"]
    small = rest[0].detail[len("small=")]
    assert result.server_stats[small]["window_queries"] >= 1
