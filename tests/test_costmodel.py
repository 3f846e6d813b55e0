"""Tests for the transfer cost model (Section 3.1, Equations 1-8)."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costmodel import INFEASIBLE, CostBreakdown, CostModel, predict_algorithm_costs
from repro.core.join_types import JoinSpec
from repro.core.uniformity import worth_retrieving_statistics
from repro.geometry.rect import Rect
from repro.network.config import NetworkConfig
from repro.network.packets import (
    aggregate_answer_bytes,
    num_packets,
    query_bytes,
    transferred_bytes,
)

from tests.oracles.costmodel_scalar import ScalarCostModel
from tests.oracles.costmodel_scalar import cheapest as oracle_cheapest
from tests.oracles.costmodel_scalar import num_packets as oracle_num_packets
from tests.oracles.costmodel_scalar import transferred_bytes as oracle_transferred_bytes

WINDOW = Rect(0.0, 0.0, 1.0, 1.0)


@pytest.fixture
def model() -> CostModel:
    return CostModel(NetworkConfig(), epsilon=0.01)


class TestPrimitives:
    def test_taq_is_eq7(self, model):
        cfg = model.config
        assert model.taq == (cfg.header_bytes + cfg.query_bytes) + (
            cfg.header_bytes + cfg.answer_bytes
        )

    def test_tb_matches_packetisation(self, model):
        assert model.tb(1000) == transferred_bytes(1000, model.config)

    def test_expected_probe_matches_uniform_formula(self, model):
        # pi * eps^2 / area * n
        expected = math.pi * 0.01**2 / 1.0 * 500
        assert model._probe_matches(WINDOW.area, 500) == pytest.approx(expected)

    def test_expected_probe_matches_capped_at_n(self):
        model = CostModel(NetworkConfig(), epsilon=2.0)
        assert model._probe_matches(WINDOW.area, 100) == 100.0

    def test_expected_probe_matches_degenerate_window(self, model):
        degenerate = Rect(0.5, 0.5, 0.5, 0.5)
        assert model._probe_matches(degenerate.area, 42) == 42.0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            CostModel(NetworkConfig(), epsilon=-0.1)


class TestStrategies:
    def test_c1_matches_eq2(self, model):
        cfg = model.config
        n_r, n_s = 100, 200
        expected = 2 * query_bytes(cfg)
        expected += transferred_bytes(n_r * cfg.object_bytes, cfg)
        expected += transferred_bytes(n_s * cfg.object_bytes, cfg)
        assert model.c1(WINDOW, n_r, n_s, buffer_size=1000) == pytest.approx(expected)

    def test_c1_infeasible_when_buffer_too_small(self, model):
        assert model.c1(WINDOW, 600, 600, buffer_size=800) == INFEASIBLE
        assert model.c1(WINDOW, 600, 600, buffer_size=None) < INFEASIBLE

    def test_c2_structure(self, model):
        """c2 = query + outer download + one Tdq per outer object (Eq. 4)."""
        cfg = model.config
        n_r, n_s = 50, 400
        expected = query_bytes(cfg)
        expected += transferred_bytes(n_r * cfg.object_bytes, cfg)
        expected += n_r * model._tdq(WINDOW.area, n_s)
        assert model.c2(WINDOW, n_r, n_s) == pytest.approx(expected)

    def test_c2_c3_symmetry(self, model):
        assert model.c2(WINDOW, 70, 300) == pytest.approx(model.c3(WINDOW, 300, 70))

    def test_equal_tariffs_make_c2_c3_equal_for_equal_counts(self, model):
        assert model.c2(WINDOW, 150, 150) == pytest.approx(model.c3(WINDOW, 150, 150))

    def test_asymmetric_tariffs_shift_preference(self):
        # Probing an expensive server should make that orientation costlier.
        cheap_s = CostModel(NetworkConfig(tariff_r=1.0, tariff_s=5.0), epsilon=0.01)
        # c2 probes S (expensive), c3 probes R (cheap): c3 should win.
        assert cheap_s.c3(WINDOW, 200, 200) < cheap_s.c2(WINDOW, 200, 200)

    def test_bucket_cheaper_than_per_object_for_many_probes(self):
        per_object = CostModel(NetworkConfig(), epsilon=0.01, bucket_queries=False)
        bucket = CostModel(NetworkConfig(), epsilon=0.01, bucket_queries=True)
        assert bucket.c2(WINDOW, 500, 500) < per_object.c2(WINDOW, 500, 500)

    def test_c4_estimate_contains_aggregate_term(self, model):
        cost = model.c4_estimate(WINDOW, 100, 100, buffer_size=800, k=2)
        assert cost >= 2 * 4 * model.taq

    def test_c4_estimate_scales_with_k(self, model):
        c4_k2 = model.c4_estimate(WINDOW, 1000, 1000, buffer_size=800, k=2)
        c4_k4 = model.c4_estimate(WINDOW, 1000, 1000, buffer_size=800, k=4)
        # More cells always means more aggregate queries up front.
        assert c4_k4 - c4_k2 >= 2 * (16 - 4) * model.taq - 1e-6

    def test_c4_invalid_k(self, model):
        with pytest.raises(ValueError):
            model.c4_estimate(WINDOW, 10, 10, buffer_size=100, k=1)

    def test_breakdown_cheapest_label(self, model):
        # A huge dataset pair that fits no buffer and is uniform: c4 or NLSJ
        # must win over the infeasible c1.
        breakdown = model.breakdown(WINDOW, 5000, 5000, buffer_size=100)
        assert breakdown.c1_hbsj == INFEASIBLE
        assert breakdown.cheapest() in ("c2", "c3", "c4")

    def test_breakdown_prefers_hbsj_when_feasible_and_small(self, model):
        breakdown = model.breakdown(WINDOW, 50, 50, buffer_size=800)
        assert breakdown.cheapest() == "c1"

    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=0, max_value=5000),
    )
    @settings(max_examples=60)
    def test_property_costs_nonnegative_and_monotone(self, n_r, n_s):
        model = CostModel(NetworkConfig(), epsilon=0.02)
        c1 = model.c1(WINDOW, n_r, n_s, buffer_size=None)
        c2 = model.c2(WINDOW, n_r, n_s)
        c3 = model.c3(WINDOW, n_r, n_s)
        assert c1 >= 0 and c2 >= 0 and c3 >= 0
        # Adding objects never makes any strategy cheaper.
        c1b = model.c1(WINDOW, n_r + 10, n_s, buffer_size=None)
        assert c1b >= c1
        assert model.c2(WINDOW, n_r + 10, n_s) >= c2
        assert model.c3(WINDOW, n_r, n_s + 10) >= c3


# --------------------------------------------------------------------------- #
# array-valued equations == the frozen scalar model, element by element
# --------------------------------------------------------------------------- #

BUFFER = 800
EDGE_COUNTS = [0, 1, BUFFER - 1, BUFFER, BUFFER + 1, 100_000]

configs = st.builds(
    NetworkConfig,
    mtu=st.sampled_from([1500, 576]),
    tariff_r=st.sampled_from([1.0, 0.3, 5.0, 0.0]),
    tariff_s=st.sampled_from([1.0, 2.5, 0.1]),
    object_bytes=st.sampled_from([20, 36]),
)
epsilons = st.sampled_from([0.0, 0.002, 0.05, 2.0])
counts = st.one_of(st.sampled_from(EDGE_COUNTS), st.integers(0, 100_000))
coords = st.floats(-10.0, 10.0, allow_nan=False, width=64)
extents = st.one_of(
    st.sampled_from([0.0, 1e-6, 1.0]), st.floats(0.0, 20.0, allow_nan=False, width=64)
)


#: Sides whose products are denormal areas (the probe fraction overflows to inf).
tiny_extents = st.sampled_from([5e-324, 1e-320, 1e-313, 1e-160, 1e-155, 1e-6, 1.0])


@st.composite
def windows(draw):
    if draw(st.integers(0, 4)) == 0:
        # Anchored at the origin, or the tiny side is absorbed by the corner.
        return Rect(0.0, 0.0, draw(tiny_extents), draw(tiny_extents))
    x0, y0, w, h = draw(coords), draw(coords), draw(extents), draw(extents)
    return Rect(x0, y0, x0 + w, y0 + h)


# A level: windows (a zero-area and a 1e-12-area one always among them) + counts.
levels = st.lists(st.tuples(windows(), counts, counts), min_size=1, max_size=12).map(
    lambda rows: rows
    + [(Rect(0.5, 0.5, 0.5, 0.5), 7, 9), (Rect(0.0, 0.0, 1e-6, 1e-6), BUFFER, 1)]
)


def _columns(level):
    rects = [row[0] for row in level]
    mbrs = np.array([r.as_tuple() for r in rects], dtype=np.float64)
    n_r = np.array([row[1] for row in level], dtype=np.int64)
    n_s = np.array([row[2] for row in level], dtype=np.int64)
    return rects, mbrs, n_r, n_s


def _exactly(column, expected):
    """Element-wise ``==`` on Python numbers."""
    assert isinstance(column, np.ndarray) and column.shape == (len(expected),)
    assert column.tolist() == expected


class TestArrayValuedEqualsScalarOracle:
    @given(configs, epsilons, st.booleans(), levels)
    @settings(max_examples=60, deadline=None)
    def test_every_equation_matches_per_element(self, config, epsilon, bucket, level):
        model = CostModel(config, epsilon=epsilon, bucket_queries=bucket)
        oracle = ScalarCostModel(config, epsilon=epsilon, bucket_queries=bucket)
        rects, mbrs, n_r, n_s = _columns(level)
        rows = list(zip(rects, n_r.tolist(), n_s.tolist()))

        assert model.taq == oracle.taq
        _exactly(
            model.tb(n_r * config.object_bytes),
            [oracle.tb(n * config.object_bytes) for n in n_r.tolist()],
        )
        areas = np.array([w.area for w in rects])
        _exactly(
            model._probe_matches(areas, n_s),
            [oracle.expected_probe_matches(w, s) for w, _, s in rows],
        )
        _exactly(model._tdq(areas, n_s), [oracle.tdq(w, s) for w, _, s in rows])
        _exactly(
            model.c1(mbrs, n_r, n_s, buffer_size=BUFFER),
            [oracle.c1(w, r, s, buffer_size=BUFFER) for w, r, s in rows],
        )
        _exactly(
            model.c1(mbrs, n_r, n_s, buffer_size=None),
            [oracle.c1(w, r, s, None, enforce_buffer=False) for w, r, s in rows],
        )
        _exactly(model.c2(mbrs, n_r, n_s), [oracle.c2(w, r, s) for w, r, s in rows])
        _exactly(model.c3(mbrs, n_r, n_s), [oracle.c3(w, r, s) for w, r, s in rows])
        # (N,) areas are accepted in place of (N, 4) windows.
        _exactly(model.c3(areas, n_r, n_s), [oracle.c3(w, r, s) for w, r, s in rows])
        _exactly(
            worth_retrieving_statistics(n_r, model),
            [oracle.tb(oracle.object_bytes(n)) > 3.0 * oracle.taq for n in n_r.tolist()],
        )

    @given(configs, epsilons, st.booleans(), levels, st.sampled_from([2, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_c4_and_breakdown_match_per_element(self, config, epsilon, bucket, level, k):
        model = CostModel(config, epsilon=epsilon, bucket_queries=bucket)
        oracle = ScalarCostModel(config, epsilon=epsilon, bucket_queries=bucket)
        rects, mbrs, n_r, n_s = _columns(level)
        rows = list(zip(rects, n_r.tolist(), n_s.tolist()))

        c4 = [oracle.c4_estimate(w, r, s, BUFFER, k=k) for w, r, s in rows]
        _exactly(model.c4_estimate(mbrs, n_r, n_s, BUFFER, k=k), c4)

        include = np.arange(len(rows)) % 3 != 0  # some rows may not repartition
        breakdown = model.breakdown(mbrs, n_r, n_s, BUFFER, k=k, include_c4=include)
        expected_c4 = [c if keep else INFEASIBLE for c, keep in zip(c4, include.tolist())]
        _exactly(breakdown.c4_repartition, expected_c4)
        assert breakdown.cheapest() == [
            oracle_cheapest(
                oracle.c1(w, r, s, BUFFER), oracle.c2(w, r, s), oracle.c3(w, r, s), c
            )
            for (w, r, s), c in zip(rows, expected_c4)
        ]

    @given(configs, epsilons, st.booleans(), levels, st.sampled_from([2, 3, 4]))
    @settings(max_examples=30, deadline=None)
    def test_one_window_is_the_one_row_case(self, config, epsilon, bucket, level, k):
        """Rect + ints == a one-row array call == the row of an N-row call == oracle."""
        model = CostModel(config, epsilon=epsilon, bucket_queries=bucket)
        oracle = ScalarCostModel(config, epsilon=epsilon, bucket_queries=bucket)
        rects, mbrs, n_r, n_s = _columns(level)
        calls = {
            "c1": lambda m, w, r, s: m.c1(w, r, s, buffer_size=BUFFER),
            "c2": lambda m, w, r, s: m.c2(w, r, s),
            "c3": lambda m, w, r, s: m.c3(w, r, s),
            "c4": lambda m, w, r, s: m.c4_estimate(w, r, s, BUFFER, k=k),
        }
        for name, call in calls.items():
            level_column = call(model, mbrs, n_r, n_s).tolist()
            for i, rect in enumerate(rects):
                r, s = int(n_r[i]), int(n_s[i])
                scalar = call(model, rect, r, s)
                assert not isinstance(scalar, (np.ndarray, np.generic)), name
                one_row = call(model, mbrs[i : i + 1], n_r[i : i + 1], n_s[i : i + 1])
                assert scalar == one_row.tolist()[0] == level_column[i], name
                assert scalar == call(oracle, rect, r, s), name

    @given(configs, epsilons, st.booleans(), levels, st.sampled_from([2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_algorithm_predictions_on_stacked_rows_match_one_query_calls(
        self, config, epsilon, bucket, level, k
    ):
        """Row ``i`` of an N-row prediction == the one-query call on row ``i``
        for every algorithm; one query is Python numbers."""
        spec = JoinSpec.distance(epsilon) if epsilon else JoinSpec.intersection()
        rects, mbrs, n_r, n_s = _columns(level)
        buffers = BUFFER + np.arange(len(rects), dtype=np.int64) % 3 - 1
        columns = predict_algorithm_costs(spec, mbrs, n_r, n_s, config, buffers, bucket, k)
        for i, rect in enumerate(rects):
            r, s, buffer = int(n_r[i]), int(n_s[i]), int(buffers[i])
            one = predict_algorithm_costs(spec, rect, r, s, config, buffer, bucket, k)
            assert list(one) == list(columns)
            for name, value in one.items():
                assert type(value) is float, name
                assert value == columns[name].tolist()[i], name

    @pytest.mark.parametrize("area", [5e-324, 1e-320, 1e-313])
    @pytest.mark.parametrize("bucket", [False, True])
    def test_denormal_areas_match_the_oracle_without_warnings(self, area, bucket):
        """``pi eps^2 / area`` overflows to inf and ``inf * 0`` objects is nan:
        the scalar model's ``min(n, nan)`` keeps ``n``, and so must the array one
        (it used to cast the nan to ``INT64_MIN`` payload bytes)."""
        config = NetworkConfig()
        model = CostModel(config, epsilon=0.002, bucket_queries=bucket)
        oracle = ScalarCostModel(config, epsilon=0.002, bucket_queries=bucket)
        window = Rect(0.0, 0.0, 1.0, area)
        assert window.area == area
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n_outer in (0, 1, 7):
                for n_inner in (0, 1, 7):
                    assert model.c2(window, n_outer, n_inner) == oracle.c2(window, n_outer, n_inner)
                    assert model.c3(window, n_inner, n_outer) == oracle.c3(window, n_inner, n_outer)
                    assert model._tdq(area, n_inner) == oracle.tdq(window, n_inner)
            counts = np.array([0, 1, 7], dtype=np.int64)
            areas = np.full(3, area)
            _exactly(model._tdq(areas, counts), [oracle.tdq(window, n) for n in (0, 1, 7)])
        assert CostModel(config, epsilon=0.002).c2(Rect(0, 0, 1e-160, 1e-155), 5, 0) == 668.0

    def test_cheapest_ties_resolve_in_name_order(self):
        ties = CostBreakdown(
            c1_hbsj=np.array([5.0, INFEASIBLE, 9.0, INFEASIBLE]),
            c2_nlsj_outer_r=np.array([5.0, 3.0, 9.0, INFEASIBLE]),
            c3_nlsj_outer_s=np.array([5.0, 3.0, 2.0, INFEASIBLE]),
            c4_repartition=np.array([5.0, 3.0, 2.0, INFEASIBLE]),
        )
        assert ties.cheapest() == ["c1", "c2", "c3", "c1"]
        for i, name in enumerate(ties.cheapest()):
            row = [float(column[i]) for column in ties.as_dict().values()]
            assert CostBreakdown(*row).cheapest() == name == oracle_cheapest(*row)

    def test_packetisation_array_matches_oracle(self):
        for config in (NetworkConfig(), NetworkConfig(mtu=576)):
            per_packet = config.payload_per_packet
            payloads = np.array(
                [0, 1, per_packet - 1, per_packet, per_packet + 1, 7 * per_packet, 2_000_000],
                dtype=np.int64,
            )
            _exactly(
                num_packets(payloads, config),
                [oracle_num_packets(p, config) for p in payloads.tolist()],
            )
            _exactly(
                transferred_bytes(payloads, config),
                [oracle_transferred_bytes(p, config) for p in payloads.tolist()],
            )

    def test_invalid_input_still_raises(self, model):
        mbrs = np.array([[0.0, 0.0, 1.0, 1.0]] * 2)
        bad = np.array([5, -1], dtype=np.int64)
        good = np.array([5, 5], dtype=np.int64)
        for call in (
            lambda: model.c1(mbrs, bad, good),
            lambda: model.c2(mbrs, bad, good),
            lambda: model.c3(mbrs, good, bad),
            lambda: model.c1(WINDOW, -1, 5),
            lambda: model.c2(WINDOW, -1, 5),
            lambda: num_packets(np.array([3, -3]), model.config),
            lambda: model.c4_estimate(mbrs, good, good, BUFFER, k=1),
            lambda: model.c4_estimate(WINDOW, 10, 10, BUFFER, k=0),
        ):
            with pytest.raises(ValueError):
                call()


def test_the_prediction_prices_the_selectable_algorithms_in_name_order():
    """One list of what the planner may pick: the prediction's names are
    :data:`SELECTABLE_ALGORITHMS`, in the name order ties go in."""
    from repro.core import planner
    from repro.core.costmodel import SELECTABLE_ALGORITHMS

    predicted = predict_algorithm_costs(
        JoinSpec.distance(0.01), Rect(0, 0, 1, 1), 500, 700, NetworkConfig(), BUFFER, False, 2
    )
    assert tuple(predicted) == SELECTABLE_ALGORITHMS == tuple(sorted(SELECTABLE_ALGORITHMS))
    assert planner.SELECTABLE_ALGORITHMS is SELECTABLE_ALGORITHMS
