"""Tests for dataset containers and the synthetic / railway-like generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.dataset import SpatialDataset
from repro.datasets.railway import generate_railway_like
from repro.datasets.synthetic import clustered, gaussian_mixture, uniform
from repro.errors import InvalidInput, ReproError
from repro.datasets.workloads import (
    PAPER_CLUSTER_COUNTS,
    WorkloadSpec,
    paper_cluster_sweep,
    random_query_windows,
)
from repro.geometry.rect import Rect, UNIT_RECT


class TestSpatialDataset:
    def test_from_points_degenerate_mbrs(self):
        pts = np.array([[0.1, 0.2], [0.3, 0.4]])
        ds = SpatialDataset.from_points(pts)
        assert len(ds) == 2
        assert ds.is_point_data
        assert ds.oids.tolist() == [0, 1]

    def test_duplicate_oids_rejected(self):
        with pytest.raises(ValueError):
            SpatialDataset(np.zeros((2, 4)), oids=np.array([1, 1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, bad):
        # Regression: an all-NaN row is "inside" every window (each of the
        # "lies outside" comparisons is False), so UpJoin over the derived
        # window kept repartitioning forever.  The dataset boundary now
        # refuses it, typed, before any server or index is built.
        mbrs = uniform(n=50, seed=1).mbrs.copy()
        mbrs[7] = bad
        with pytest.raises(InvalidInput, match="row 7") as info:
            SpatialDataset(mbrs)
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, ReproError)
        with pytest.raises(InvalidInput):
            SpatialDataset.from_points(mbrs[:, :2])

    def test_window_mask_and_count(self):
        ds = SpatialDataset.from_points(np.array([[0.1, 0.1], [0.9, 0.9], [0.5, 0.5]]))
        window = Rect(0.0, 0.0, 0.6, 0.6)
        assert ds.count_in_window(window) == 2
        assert ds.window_mask(window).tolist() == [True, False, True]

    def test_subset_preserves_ids(self):
        ds = SpatialDataset.from_points(np.random.default_rng(0).uniform(size=(20, 2)))
        sub = ds.clip_to_window(Rect(0.0, 0.0, 0.5, 0.5))
        for rect, oid in sub:
            assert ds.rect_of(oid) == rect

    def test_rect_of_unknown_oid(self):
        ds = SpatialDataset.from_points(np.array([[0.1, 0.1]]))
        with pytest.raises(KeyError):
            ds.rect_of(99)

    def test_bounds_of_empty_dataset_raises(self):
        ds = SpatialDataset(np.empty((0, 4)))
        with pytest.raises(ValueError):
            ds.bounds()

    def test_average_mbr_area(self):
        ds = SpatialDataset(np.array([[0.0, 0.0, 0.2, 0.2], [0.5, 0.5, 0.6, 0.6]]))
        assert ds.average_mbr_area_in(Rect(0, 0, 1, 1)) == pytest.approx(0.025)

    def test_from_rects_roundtrip(self):
        rects = [Rect(0.1, 0.1, 0.2, 0.3), Rect(0.4, 0.4, 0.5, 0.9)]
        ds = SpatialDataset.from_rects(rects)
        assert [r for r, _ in ds] == rects

    def test_immutable_arrays(self):
        ds = SpatialDataset.from_points(np.array([[0.1, 0.1]]))
        with pytest.raises(ValueError):
            ds.mbrs[0, 0] = 5.0


class TestSyntheticGenerators:
    def test_clustered_size_and_bounds(self):
        ds = clustered(n=500, clusters=4, seed=1)
        assert len(ds) == 500
        assert ds.is_point_data
        bounds = ds.bounds()
        assert UNIT_RECT.contains_rect(bounds)
        assert ds.metadata["clusters"] == 4

    def test_clustered_is_deterministic(self):
        a = clustered(n=100, clusters=3, seed=7)
        b = clustered(n=100, clusters=3, seed=7)
        assert np.array_equal(a.mbrs, b.mbrs)

    def test_clustered_seed_changes_data(self):
        a = clustered(n=100, clusters=3, seed=7)
        b = clustered(n=100, clusters=3, seed=8)
        assert not np.array_equal(a.mbrs, b.mbrs)

    def test_more_clusters_spread_points_out(self):
        # Dispersion (std of point coordinates) grows with the cluster count.
        tight = clustered(n=1000, clusters=1, seed=3)
        spread = clustered(n=1000, clusters=128, seed=3)
        assert spread.centers().std() > tight.centers().std()

    def test_clustered_validation(self):
        with pytest.raises(ValueError):
            clustered(n=-1)
        with pytest.raises(ValueError):
            clustered(clusters=0)
        with pytest.raises(ValueError):
            clustered(std=0.0)

    def test_uniform_generator(self):
        ds = uniform(n=200, seed=2)
        assert len(ds) == 200
        assert UNIT_RECT.contains_rect(ds.bounds())

    def test_gaussian_mixture_weights(self):
        ds = gaussian_mixture(
            n=1000, centers=[(0.2, 0.2), (0.8, 0.8)], weights=[0.9, 0.1], std=0.02, seed=4
        )
        near_first = ds.count_in_window(Rect(0.0, 0.0, 0.5, 0.5))
        assert near_first > 700

    def test_gaussian_mixture_validation(self):
        with pytest.raises(ValueError):
            gaussian_mixture(n=10, centers=[])
        with pytest.raises(ValueError):
            gaussian_mixture(n=10, centers=[(0.5, 0.5)], weights=[0.5, 0.5])

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: clustered(n=2.5), id="clustered-fractional-n"),
            pytest.param(lambda: clustered(clusters=2.5), id="clustered-fractional-clusters"),
            pytest.param(lambda: clustered(n=1000, std=np.inf), id="clustered-infinite-std"),
            pytest.param(lambda: clustered(std=np.nan), id="clustered-nan-std"),
            pytest.param(lambda: uniform(n=2.5), id="uniform-fractional-n"),
            pytest.param(lambda: gaussian_mixture(2.5, [(0.5, 0.5)]), id="mixture-fractional-n"),
            pytest.param(lambda: gaussian_mixture(10, [(0.5, 0.5)], std=-1), id="mixture-negative-std"),
            pytest.param(lambda: gaussian_mixture(10, [(0.5, 0.5)], std=0.0), id="mixture-zero-std"),
            pytest.param(
                lambda: gaussian_mixture(10, [(0.2, 0.2), (0.8, 0.8)], weights=[np.nan, 1.0]),
                id="mixture-nan-weight",
            ),
            pytest.param(
                lambda: gaussian_mixture(10, [(0.2, 0.2), (0.8, 0.8)], weights=[np.inf, 1.0]),
                id="mixture-infinite-weight",
            ),
        ],
    )
    def test_bad_arguments_are_invalid_input(self, make):
        # A typed error, still a ValueError for existing ``except`` clauses.
        with pytest.raises(InvalidInput):
            make()

    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=64))
    @settings(max_examples=20, deadline=None)
    def test_property_all_points_inside_bounds(self, n, k):
        ds = clustered(n=n, clusters=k, seed=0)
        assert len(ds) == n
        if n:
            assert UNIT_RECT.contains_rect(ds.bounds())


class TestRailwayGenerator:
    def test_cardinality_and_bounds(self):
        ds = generate_railway_like(n_segments=3000, seed=1)
        assert 2900 <= len(ds) <= 3000
        assert UNIT_RECT.contains_rect(ds.bounds())

    def test_segments_are_small(self):
        ds = generate_railway_like(n_segments=2000, seed=2)
        widths = ds.mbrs[:, 2] - ds.mbrs[:, 0]
        heights = ds.mbrs[:, 3] - ds.mbrs[:, 1]
        # Railway segments are short: the typical MBR is far below 5% of the
        # data space, as with the paper's German railway dataset.
        assert np.median(widths) < 0.05
        assert np.median(heights) < 0.05

    def test_spatially_skewed(self):
        # Corridor clustering leaves a sizeable part of the space empty.
        ds = generate_railway_like(n_segments=5000, seed=3)
        grid = 16
        occupied = set()
        centers = ds.centers()
        for x, y in centers:
            occupied.add((int(x * grid), int(y * grid)))
        assert len(occupied) < grid * grid * 0.9

    def test_deterministic(self):
        a = generate_railway_like(n_segments=1000, seed=4)
        b = generate_railway_like(n_segments=1000, seed=4)
        assert np.array_equal(a.mbrs, b.mbrs)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_railway_like(n_segments=0)
        with pytest.raises(ValueError):
            generate_railway_like(hubs=1)
        with pytest.raises(ValueError):
            generate_railway_like(branch_fraction=1.5)


class TestWorkloadsAndLoader:
    def test_workload_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(r_kind="postgres")
        with pytest.raises(ValueError):
            WorkloadSpec(epsilon=-1.0)
        with pytest.raises(ValueError):
            WorkloadSpec(buffer_size=0)

    def test_paper_cluster_sweep(self):
        base = WorkloadSpec()
        specs = list(paper_cluster_sweep(base))
        assert [s.clusters for s in specs] == list(PAPER_CLUSTER_COUNTS)

    def test_spec_describe_mentions_parameters(self):
        spec = WorkloadSpec(clusters=16, buffer_size=100)
        text = spec.describe()
        assert "k=16" in text and "buffer=100" in text

    def test_random_query_windows(self):
        windows = random_query_windows(10, relative_size=0.2, seed=1)
        assert len(windows) == 10
        for w in windows:
            assert UNIT_RECT.contains_rect(w)
            assert w.width == pytest.approx(0.2)

    def test_random_query_windows_validation(self):
        with pytest.raises(ValueError):
            random_query_windows(-1)
        with pytest.raises(ValueError):
            random_query_windows(1, relative_size=0.0)
