"""Railway-like segment dataset generator.

The paper's "real" dataset is the MBRs of roughly 35 000 German railway
segments.  That dataset is not redistributable, so this module synthesises
a stand-in with the same statistical character:

* a backbone of *hub cities* placed with a preferential bias towards a few
  dense regions (the Ruhr-like blob, a handful of metropolises),
* corridors (polylines) connecting nearby hubs, built over a Delaunay-free
  nearest-neighbour graph so the network is connected and roughly planar,
* local jitter that bends each corridor into a sequence of many short
  segments, plus branch lines radiating from hubs,
* each segment contributes one small, elongated MBR.

The result is ~35 000 MBRs that are strongly clustered along 1-D corridors,
leaving most of the plane empty -- the property that makes the paper's
Figure 8 experiments interesting (pruning pays off on the real dataset).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.datasets.dataset import SpatialDataset
from repro.errors import InvalidInput, require_count, require_finite
from repro.geometry.rect import Rect, UNIT_RECT

__all__ = ["generate_railway_like"]


def generate_railway_like(
    n_segments: int = 35_000,
    seed: int = 0,
    hubs: int = 60,
    branch_fraction: float = 0.25,
    jitter: float = 0.004,
    bounds: Rect = UNIT_RECT,
    name: Optional[str] = None,
) -> SpatialDataset:
    """Generate a railway-network-like segment MBR dataset.

    Parameters
    ----------
    n_segments:
        Target number of segment MBRs (the German railway dataset used in
        the paper has ~35 K).  The generator may emit a handful fewer if
        the corridor budget does not divide exactly; never more.
    seed:
        RNG seed.
    hubs:
        Number of hub cities in the backbone network.
    branch_fraction:
        Fraction of the segment budget spent on local branch lines around
        hubs rather than inter-hub corridors.
    jitter:
        Magnitude of the per-vertex perpendicular jitter that bends
        corridors (data-space units).
    bounds:
        Data space (defaults to the unit square).
    """
    require_count(n_segments, "n_segments")
    require_count(seed, "seed", minimum=0)
    require_count(hubs, "hubs", minimum=2)
    require_finite(branch_fraction, "branch_fraction")
    if branch_fraction >= 1.0:
        raise InvalidInput(f"branch_fraction must lie in [0, 1), got {branch_fraction!r}")
    require_finite(jitter, "jitter")
    rng = np.random.default_rng(seed)

    hub_xy = _place_hubs(rng, hubs, bounds)
    corridors = _hub_corridors(hub_xy)

    branch_budget = int(n_segments * branch_fraction)
    corridor_budget = n_segments - branch_budget

    segments: List[Tuple[float, float, float, float]] = []
    segments.extend(
        _corridor_segments(rng, hub_xy, corridors, corridor_budget, jitter, bounds)
    )
    segments.extend(_branch_segments(rng, hub_xy, branch_budget, jitter, bounds))
    segments = segments[:n_segments]

    mbrs = np.empty((len(segments), 4), dtype=np.float64)
    for i, (x0, y0, x1, y1) in enumerate(segments):
        mbrs[i, 0] = min(x0, x1)
        mbrs[i, 1] = min(y0, y1)
        mbrs[i, 2] = max(x0, x1)
        mbrs[i, 3] = max(y0, y1)
    np.clip(mbrs[:, 0::2], bounds.xmin, bounds.xmax, out=mbrs[:, 0::2])
    np.clip(mbrs[:, 1::2], bounds.ymin, bounds.ymax, out=mbrs[:, 1::2])

    return SpatialDataset(
        mbrs=mbrs,
        name=name or f"railway-like(n={len(segments)},seed={seed})",
        metadata={
            "generator": "railway_like",
            "n_segments": n_segments,
            "seed": seed,
            "hubs": hubs,
            "branch_fraction": branch_fraction,
            "jitter": jitter,
        },
    )


# -------------------------------------------------------------------------- #
# internals
# -------------------------------------------------------------------------- #


def _place_hubs(rng: np.random.Generator, hubs: int, bounds: Rect) -> np.ndarray:
    """Hub cities: a few dense metropolitan blobs plus scattered towns."""
    n_metro = max(2, hubs // 5)
    metro_centers = np.column_stack(
        [
            rng.uniform(bounds.xmin + 0.15 * bounds.width, bounds.xmax - 0.15 * bounds.width, n_metro),
            rng.uniform(bounds.ymin + 0.15 * bounds.height, bounds.ymax - 0.15 * bounds.height, n_metro),
        ]
    )
    n_metro_hubs = hubs // 2
    metro_pick = rng.integers(0, n_metro, size=n_metro_hubs)
    metro_hubs = metro_centers[metro_pick] + rng.normal(0.0, 0.04, size=(n_metro_hubs, 2))
    n_town = hubs - n_metro_hubs
    towns = np.column_stack(
        [
            rng.uniform(bounds.xmin, bounds.xmax, n_town),
            rng.uniform(bounds.ymin, bounds.ymax, n_town),
        ]
    )
    hub_xy = np.vstack([metro_hubs, towns])
    np.clip(hub_xy[:, 0], bounds.xmin, bounds.xmax, out=hub_xy[:, 0])
    np.clip(hub_xy[:, 1], bounds.ymin, bounds.ymax, out=hub_xy[:, 1])
    return hub_xy


def _hub_corridors(hub_xy: np.ndarray) -> List[Tuple[int, int]]:
    """Connect each hub to its 2-3 nearest neighbours (deduplicated edges)."""
    n = hub_xy.shape[0]
    d2 = (
        (hub_xy[:, None, 0] - hub_xy[None, :, 0]) ** 2
        + (hub_xy[:, None, 1] - hub_xy[None, :, 1]) ** 2
    )
    np.fill_diagonal(d2, np.inf)
    edges = set()
    for i in range(n):
        neighbours = np.argsort(d2[i])[: 3 if i % 2 else 2]
        for j in neighbours:
            edges.add((min(i, int(j)), max(i, int(j))))
    return sorted(edges)


def _corridor_segments(
    rng: np.random.Generator,
    hub_xy: np.ndarray,
    corridors: List[Tuple[int, int]],
    budget: int,
    jitter: float,
    bounds: Rect,
) -> List[Tuple[float, float, float, float]]:
    """Split every corridor into short, jittered segments; total ~= budget."""
    if budget <= 0 or not corridors:
        return []
    lengths = np.array(
        [
            math.hypot(
                hub_xy[a, 0] - hub_xy[b, 0], hub_xy[a, 1] - hub_xy[b, 1]
            )
            for a, b in corridors
        ]
    )
    total_len = float(lengths.sum())
    if total_len == 0.0:
        return []
    segments: List[Tuple[float, float, float, float]] = []
    for (a, b), length in zip(corridors, lengths):
        pieces = max(1, int(round(budget * length / total_len)))
        ax, ay = hub_xy[a]
        bx, by = hub_xy[b]
        # Unit normal of the corridor, for perpendicular jitter.
        if length > 0:
            nx, ny = -(by - ay) / length, (bx - ax) / length
        else:
            nx, ny = 0.0, 0.0
        ts = np.linspace(0.0, 1.0, pieces + 1)
        offs = np.cumsum(rng.normal(0.0, jitter, size=pieces + 1))
        offs -= np.linspace(offs[0], offs[-1], pieces + 1)  # pin both endpoints
        xs = ax + ts * (bx - ax) + offs * nx
        ys = ay + ts * (by - ay) + offs * ny
        for i in range(pieces):
            segments.append((xs[i], ys[i], xs[i + 1], ys[i + 1]))
            if len(segments) >= budget:
                return segments
    return segments


def _branch_segments(
    rng: np.random.Generator,
    hub_xy: np.ndarray,
    budget: int,
    jitter: float,
    bounds: Rect,
) -> List[Tuple[float, float, float, float]]:
    """Short branch lines radiating out of random hubs."""
    segments: List[Tuple[float, float, float, float]] = []
    if budget <= 0:
        return segments
    n_hubs = hub_xy.shape[0]
    while len(segments) < budget:
        hub = hub_xy[rng.integers(0, n_hubs)]
        angle = rng.uniform(0.0, 2.0 * math.pi)
        branch_len = rng.uniform(0.01, 0.08)
        pieces = max(1, int(branch_len / 0.004))
        x, y = float(hub[0]), float(hub[1])
        dx = math.cos(angle) * branch_len / pieces
        dy = math.sin(angle) * branch_len / pieces
        for _ in range(pieces):
            nx = x + dx + rng.normal(0.0, jitter)
            ny = y + dy + rng.normal(0.0, jitter)
            nx = min(max(nx, bounds.xmin), bounds.xmax)
            ny = min(max(ny, bounds.ymin), bounds.ymax)
            segments.append((x, y, nx, ny))
            x, y = nx, ny
            if len(segments) >= budget:
                break
    return segments
