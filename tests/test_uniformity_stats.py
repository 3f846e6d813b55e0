"""Tests for the uniformity test (Eq. 9), statistics rule (Eq. 10), density
bitmaps (Eq. 11) and quadrant-count retrieval.

The shipped tests are array-valued (one verdict per window of a frontier
level); ``TestColumnsEqualTheScalarOriginals`` holds every row of them equal
to the one-window originals kept in ``tests/oracles/frontier_generators.py``,
which also owns the quadrant-count generator since the level tables took
over (``fetch_quadrant_counts`` drives it).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costmodel import CostModel
from repro.core.uniformity import (
    bitmaps_equal,
    confirms_uniformity,
    density_bitmap,
    is_uniform,
    worth_retrieving_statistics,
)
from repro.datasets.synthetic import clustered, gaussian_mixture, uniform
from repro.device.pda import MobileDevice
from repro.geometry.rect import Rect
from repro.network.config import NetworkConfig
from repro.server.remote import ServerPair
from repro.server.server import SpatialServer

from tests.oracles import frontier_generators as scalar
from tests.oracles.frontier_generators import estimate_quadrant_counts
from tests.oracles.recursive_driver import fetch_quadrant_counts

WINDOW = Rect(0.0, 0.0, 1.0, 1.0)


class TestEquation9:
    def test_perfectly_uniform_counts(self):
        assert is_uniform(400, [100, 100, 100, 100], alpha=0.25)

    def test_everything_in_one_quadrant_is_skewed(self):
        assert not is_uniform(400, [400, 0, 0, 0], alpha=0.25)

    def test_alpha_controls_tolerance(self):
        counts = [140, 90, 90, 80]  # max deviation 40 from expected 100
        assert is_uniform(400, counts, alpha=0.15)  # 40 < 60
        assert not is_uniform(400, counts, alpha=0.05)  # 40 >= 20

    def test_empty_window_is_uniform(self):
        assert is_uniform(0, [0, 0, 0, 0], alpha=0.25)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            is_uniform(10, [1, 2, 3], alpha=0.25)
        with pytest.raises(ValueError):
            is_uniform(10, [1, 2, 3, 4], alpha=0.0)

    def test_confirmation_probe(self):
        assert confirms_uniformity(400, 110, alpha=0.25)
        assert not confirms_uniformity(400, 280, alpha=0.25)

    @given(st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=50)
    def test_property_exact_quarters_always_uniform(self, total):
        quarter = total / 4.0
        assert is_uniform(total, [quarter] * 4, alpha=0.05)


class TestEquation10:
    def test_small_windows_not_worth_statistics(self):
        model = CostModel(NetworkConfig())
        assert not worth_retrieving_statistics(0, model)
        assert not worth_retrieving_statistics(5, model)

    def test_large_windows_worth_statistics(self):
        model = CostModel(NetworkConfig())
        assert worth_retrieving_statistics(1000, model)

    def test_threshold_is_three_aggregate_queries(self):
        model = CostModel(NetworkConfig())
        # Find the smallest count that justifies statistics and check the
        # defining inequality on both sides of it.
        n = 0
        while not worth_retrieving_statistics(n, model):
            n += 1
        assert model.tb(model.object_bytes(n)) > 3 * model.taq
        assert model.tb(model.object_bytes(n - 1)) <= 3 * model.taq

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            worth_retrieving_statistics(-1, CostModel(NetworkConfig()))


class TestEquation11:
    def test_uniform_data_sets_all_bits(self):
        quadrants = WINDOW.quadrants()
        bits = density_bitmap(WINDOW, quadrants, 400, [100, 100, 100, 100], rho=0.3)
        assert bits == (True, True, True, True)

    def test_single_cluster_sets_one_bit(self):
        quadrants = WINDOW.quadrants()
        bits = density_bitmap(WINDOW, quadrants, 400, [400, 0, 0, 0], rho=0.3)
        assert bits == (True, False, False, False)

    def test_rho_scales_the_threshold(self):
        quadrants = WINDOW.quadrants()
        counts = [150, 90, 90, 70]
        lenient = density_bitmap(WINDOW, quadrants, 400, counts, rho=0.3)
        strict = density_bitmap(WINDOW, quadrants, 400, counts, rho=1.4)
        assert sum(lenient) >= sum(strict)

    def test_empty_window_all_bits_clear(self):
        quadrants = WINDOW.quadrants()
        assert density_bitmap(WINDOW, quadrants, 0, [0, 0, 0, 0], rho=0.3) == (
            False,
            False,
            False,
            False,
        )

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            density_bitmap(WINDOW, WINDOW.quadrants(), 10, [1, 2, 3, 4], rho=0.0)

    def test_bitmaps_equal(self):
        assert bitmaps_equal((True, False, True, False), (True, False, True, False))
        assert not bitmaps_equal((True, False, True, False), (True, True, True, False))
        with pytest.raises(ValueError):
            bitmaps_equal((True,), (True, False))


class TestColumnsEqualTheScalarOriginals:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=60),
        st.sampled_from([0.05, 0.25, 1.0]),
        st.sampled_from([0.3, 1.0, 2.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_verdict_per_row_equal_to_the_one_window_functions(self, seed, n, alpha, rho):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0.0, 1.0, size=(n, 2))
        extent = rng.uniform(0.0, 0.5, size=(n, 2)) * rng.choice([0.0, 1.0], size=(n, 2), p=[0.1, 0.9])
        windows = np.hstack([lo, lo + extent])
        totals = rng.integers(0, 400, size=n) * rng.choice([0, 1], size=n, p=[0.1, 0.9])
        # Around the quarter, so both verdicts occur; zeros, fractions and
        # negative derived counts included.
        counts = totals[:, None] / 4.0 + rng.normal(0.0, 1.0, size=(n, 4)) * totals[:, None] * alpha
        counts = np.where(rng.random((n, 4)) < 0.2, np.floor(counts), counts)
        probes = counts[:, 0]
        rects = [Rect(*row) for row in windows.tolist()]
        quadrants = np.array([[q.as_tuple() for q in rect.quadrants()] for rect in rects])

        uniform_rows = is_uniform(totals, counts, alpha)
        confirmed = confirms_uniformity(totals, probes, alpha)
        bits = density_bitmap(windows, quadrants, totals, counts, rho)
        assert uniform_rows.shape == confirmed.shape == (n,) and bits.shape == (n, 4)
        for i, rect in enumerate(rects):
            total, row = int(totals[i]), counts[i].tolist()
            assert uniform_rows[i] == scalar.is_uniform(total, row, alpha)
            assert confirmed[i] == scalar.confirms_uniformity(total, row[0], alpha)
            want = scalar.density_bitmap(rect, rect.quadrants(), total, row, rho)
            assert tuple(bits[i].tolist()) == want
            # ... and the one-window call of the shipped functions agrees.
            assert is_uniform(total, row, alpha) is bool(uniform_rows[i])
            assert density_bitmap(rect, rect.quadrants(), total, row, rho) == want
        other = density_bitmap(windows, quadrants, totals, counts[:, ::-1], rho)
        equal = bitmaps_equal(bits, other)
        assert equal.tolist() == [
            scalar.bitmaps_equal(a, b) for a, b in zip(bits.tolist(), other.tolist())
        ]


def _device_for(dataset_r, dataset_s, buffer_size=500) -> MobileDevice:
    pair = ServerPair.connect(
        SpatialServer(dataset_r, name="R"), SpatialServer(dataset_s, name="S")
    )
    return MobileDevice(pair, buffer_size=buffer_size)


class TestQuadrantCounts:
    def test_point_data_fourth_quadrant_derived_exactly(self):
        dataset = uniform(n=400, seed=1)
        device = _device_for(dataset, uniform(n=10, seed=2))
        counts = fetch_quadrant_counts(device, "R", WINDOW, 400, derive_fourth=True)
        assert counts.queries_issued == 3
        assert not counts.is_exact(3)
        # For point data the derivation is exact.
        real = dataset.count_in_window(WINDOW.quadrants()[3])
        assert counts.count(3) == pytest.approx(real)

    def test_derived_zero_triggers_real_count(self):
        # All the data sits in the first quadrant: the derived fourth count
        # would be zero, so a real COUNT must be issued before pruning.
        dataset = gaussian_mixture(n=200, centers=[(0.2, 0.2)], std=0.03, seed=3)
        device = _device_for(dataset, uniform(n=10, seed=4))
        counts = fetch_quadrant_counts(device, "R", WINDOW, 200, derive_fourth=True)
        assert counts.queries_issued == 4
        assert counts.is_exact(3)

    def test_no_derivation_issues_four_queries(self):
        device = _device_for(uniform(n=100, seed=5), uniform(n=10, seed=6))
        counts = fetch_quadrant_counts(device, "R", WINDOW, 100, derive_fourth=False)
        assert counts.queries_issued == 4
        assert all(counts.is_exact(i) for i in range(4))

    def test_margin_expands_probe_windows(self):
        # With a margin, quadrant counts may overlap and exceed the parent.
        dataset = uniform(n=500, seed=7)
        device = _device_for(uniform(n=10, seed=8), dataset)
        no_margin = fetch_quadrant_counts(device, "S", WINDOW, 500, derive_fourth=False)
        with_margin = fetch_quadrant_counts(
            device, "S", WINDOW, 500, derive_fourth=False, margin=0.05
        )
        assert with_margin.total() >= no_margin.total()

    def test_estimated_counts_are_quarters(self):
        est = estimate_quadrant_counts(WINDOW, 200)
        assert est.queries_issued == 0
        assert est.counts == (50.0, 50.0, 50.0, 50.0)
        assert not any(est.exact)

    @pytest.mark.parametrize("total", [1, 2, 3, 13, 13.25, 101.5, 999.875])
    def test_estimated_counts_conserve_parent_total_exactly(self, total):
        # Regression: the estimate used to round fractional parent counts to
        # an int first, so the four quarters could drift from the parent by
        # up to +-1 object -- and the drift compounded down the recursion.
        # Division by four is exact in binary floating point, so the sum
        # must equal the parent bit for bit, at every nesting level.
        est = estimate_quadrant_counts(WINDOW, total)
        assert sum(est.counts) == total
        nested = total
        window = WINDOW
        for _ in range(6):
            quads = estimate_quadrant_counts(window, nested)
            assert sum(quads.counts) == nested
            window = quads.quadrants[1]
            nested = quads.count(1)

    def test_counts_are_metered(self):
        device = _device_for(uniform(n=300, seed=9), uniform(n=10, seed=10))
        before = device.total_bytes()
        fetch_quadrant_counts(device, "R", WINDOW, 300, derive_fourth=True)
        assert device.total_bytes() > before
        assert device.counts.count_queries == 3
