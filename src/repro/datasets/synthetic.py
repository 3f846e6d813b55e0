"""Synthetic point-dataset generators.

The paper's synthetic workloads are "1000 points ... clustered around k
randomly selected centers, and for each cluster the distribution of objects
was Gaussian. In order to achieve different skew levels, we varied k from 1
to 128."  :func:`clustered` reproduces exactly that; :func:`uniform` and
:func:`gaussian_mixture` are provided for tests, ablations and examples.

All generators are deterministic given a seed and emit points inside the
unit square (out-of-range Gaussian samples are re-drawn, not clipped, so
cluster shapes are not distorted at the borders).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.datasets.dataset import SpatialDataset
from repro.errors import InvalidInput, require_count, require_finite
from repro.geometry.rect import Rect, UNIT_RECT

__all__ = ["clustered", "uniform", "gaussian_mixture"]


def clustered(
    n: int = 1000,
    clusters: int = 8,
    seed: int = 0,
    std: float = 0.015,
    bounds: Rect = UNIT_RECT,
    name: Optional[str] = None,
) -> SpatialDataset:
    """The paper's clustered-Gaussian point generator.

    Parameters
    ----------
    n:
        Number of points (the paper uses 1 000).
    clusters:
        Number of cluster centres ``k``; ``k = 1`` is extremely skewed,
        ``k = 128`` is effectively uniform (the paper's reading).
    seed:
        RNG seed; cluster centres and point noise both derive from it.
    std:
        Standard deviation of each Gaussian cluster, in dataspace units.
    bounds:
        Data space (defaults to the unit square).
    """
    require_count(n, "n", minimum=0)
    require_count(clusters, "clusters")
    require_finite(std, "std")
    if std == 0:
        raise InvalidInput("std must be > 0")
    rng = np.random.default_rng(seed)
    centers = np.column_stack(
        [
            rng.uniform(bounds.xmin, bounds.xmax, size=clusters),
            rng.uniform(bounds.ymin, bounds.ymax, size=clusters),
        ]
    )
    # Points are distributed round-robin over clusters so every cluster gets
    # n/k points (the paper: "each cluster contains 500 points" for k=2).
    assignment = np.arange(n) % clusters
    rng.shuffle(assignment)
    points = _rejection_gaussian(rng, centers[assignment], std, bounds)
    return SpatialDataset.from_points(
        points,
        name=name or f"clustered(n={n},k={clusters},seed={seed})",
        metadata={
            "generator": "clustered",
            "n": n,
            "clusters": clusters,
            "seed": seed,
            "std": std,
        },
    )


def uniform(
    n: int = 1000,
    seed: int = 0,
    bounds: Rect = UNIT_RECT,
    name: Optional[str] = None,
) -> SpatialDataset:
    """Uniformly distributed points over ``bounds``."""
    require_count(n, "n", minimum=0)
    rng = np.random.default_rng(seed)
    points = np.column_stack(
        [
            rng.uniform(bounds.xmin, bounds.xmax, size=n),
            rng.uniform(bounds.ymin, bounds.ymax, size=n),
        ]
    )
    return SpatialDataset.from_points(
        points,
        name=name or f"uniform(n={n},seed={seed})",
        metadata={"generator": "uniform", "n": n, "seed": seed},
    )


def gaussian_mixture(
    n: int,
    centers: Sequence[Tuple[float, float]],
    weights: Optional[Sequence[float]] = None,
    std: float = 0.05,
    seed: int = 0,
    bounds: Rect = UNIT_RECT,
    name: Optional[str] = None,
) -> SpatialDataset:
    """A Gaussian mixture with explicit centres and weights.

    Used to construct the adversarial layouts of Figures 2 and 4 of the
    paper (clusters placed in specific quadrants) and by the examples.
    """
    require_count(n, "n", minimum=0)
    require_finite(std, "std")
    if std == 0:
        raise InvalidInput("std must be > 0")
    if not centers:
        raise ValueError("at least one centre is required")
    centers_arr = np.asarray(centers, dtype=np.float64)
    if centers_arr.ndim != 2 or centers_arr.shape[1] != 2:
        raise ValueError("centers must be a sequence of (x, y) pairs")
    if weights is None:
        weights_arr = np.full(len(centers), 1.0 / len(centers))
    else:
        weights_arr = np.asarray(weights, dtype=np.float64)
        if weights_arr.shape != (len(centers),):
            raise ValueError("weights must be parallel to centers")
        if not np.isfinite(weights_arr).all():
            raise InvalidInput("weights must be finite")
        if np.any(weights_arr < 0) or weights_arr.sum() == 0:
            raise ValueError("weights must be non-negative and not all zero")
        weights_arr = weights_arr / weights_arr.sum()
    rng = np.random.default_rng(seed)
    assignment = rng.choice(len(centers), size=n, p=weights_arr)
    points = _rejection_gaussian(rng, centers_arr[assignment], std, bounds)
    return SpatialDataset.from_points(
        points,
        name=name or f"mixture(n={n},m={len(centers)},seed={seed})",
        metadata={
            "generator": "gaussian_mixture",
            "n": n,
            "centers": [tuple(c) for c in centers_arr.tolist()],
            "std": std,
            "seed": seed,
        },
    )


def _rejection_gaussian(
    rng: np.random.Generator,
    means: np.ndarray,
    std: float,
    bounds: Rect,
    max_rounds: int = 64,
) -> np.ndarray:
    """Sample one Gaussian point per row of ``means``, rejecting out-of-bounds draws.

    After ``max_rounds`` of rejection the few remaining stragglers are
    clamped; with the default parameters this never triggers in practice
    but keeps the generator total.
    """
    def inside(draw: np.ndarray) -> np.ndarray:
        x, y = draw[:, 0], draw[:, 1]
        return (x >= bounds.xmin) & (x <= bounds.xmax) & (y >= bounds.ymin) & (y <= bounds.ymax)

    # Round one draws every row straight into the output; later rounds
    # re-draw only the rows still outside, in row order, so the RNG stream
    # and every output byte are those of a round-by-round rejection loop.
    points = means + rng.normal(0.0, std, size=means.shape)
    pending = np.flatnonzero(~inside(points))
    for _ in range(max_rounds - 1):
        if pending.size == 0:
            break
        draw = means[pending] + rng.normal(0.0, std, size=(pending.size, 2))
        ok = inside(draw)
        points[pending[ok]] = draw[ok]
        pending = pending[~ok]
    if pending.size:
        draw = means[pending] + rng.normal(0.0, std, size=(pending.size, 2))
        points[pending, 0] = np.clip(draw[:, 0], bounds.xmin, bounds.xmax)
        points[pending, 1] = np.clip(draw[:, 1], bounds.ymin, bounds.ymax)
    return points
