"""The paper's figures (Section 5) and their ablations as one table.

:data:`FIGURES` maps a name to its
:class:`~repro.experiments.harness.ExperimentConfig`: the series, the
cluster counts on the x-axis, the seeds, the base workload and the shape
checks -- the qualitative claims of the paper's text the figure must
reproduce.  Absolute byte values depend on calibration constants the paper
does not publish (object wire size, cluster spread, epsilon); the *shapes*
-- who wins where, and by roughly what factor -- are checked.
``python -m repro.experiments.run`` runs the table.

The workloads follow the paper: 1 000-point synthetic datasets, cluster
counts {1, 2, 4, 8, 16, 128}, an 800-point buffer unless stated otherwise,
``alpha = 0.25`` and ``rho = 0.30``.  Every entry runs at a fast scale --
one or two seeds, and a railway-like stand-in for the real dataset of
5 000 segments instead of ~35 000 (3 000 for the bucket ablation);
:func:`paper_scale` gives the paper's ten seeds and 35 000 segments.  The
*shape* of the comparison is unaffected (the railway side remains two
orders of magnitude denser than the synthetic side and strongly
corridor-clustered).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.datasets.workloads import PAPER_CLUSTER_COUNTS, WorkloadSpec
from repro.experiments.harness import ExperimentConfig, ExperimentResult
from repro.network.config import NetworkConfig

__all__ = ["FIGURES", "paper_scale", "shape_checks"]

#: Default distance-join threshold used by all synthetic experiments.  The
#: paper does not state its epsilon; 0.005 of the unit data space keeps the
#: result cardinality (tens to hundreds of pairs out of 1000 x 1000 points)
#: in the regime the paper's byte totals imply.
DEFAULT_EPSILON = 0.005

#: Two independent clustered 1 000-point datasets.
SYNTHETIC = WorkloadSpec(epsilon=DEFAULT_EPSILON, buffer_size=800)
#: The railway-like R joined with a clustered 1 000-point S, bucket queries on.
RAILWAY = WorkloadSpec(
    r_kind="railway",
    r_size=5000,
    epsilon=DEFAULT_EPSILON,
    buffer_size=800,
    bucket_queries=True,
)

#: The paper's scale: ten seeds, the ~35 000-segment railway dataset.
PAPER_SEEDS = tuple(range(10))
PAPER_RAILWAY_SIZE = 35_000


def paper_scale(config: ExperimentConfig) -> ExperimentConfig:
    """``config`` at the paper's scale (:data:`PAPER_SEEDS`, :data:`PAPER_RAILWAY_SIZE`)."""
    workload = config.workload
    if workload.r_kind == "railway":
        workload = dataclasses.replace(workload, r_size=PAPER_RAILWAY_SIZE)
    return dataclasses.replace(config, seeds=PAPER_SEEDS, workload=workload)


def shape_checks(result: ExperimentResult) -> Dict[str, bool]:
    """The figure's own checks, after the one every figure has: all
    algorithms report the same result cardinality on the same workload."""
    pairs = {tuple(series.mean_pairs) for series in result.series.values()}
    checks = {"every series reports the same result pairs": len(pairs) == 1}
    if result.config.checks is not None:
        checks.update(result.config.checks(result))
    return checks


# --------------------------------------------------------------------------- #
# Shape checks
# --------------------------------------------------------------------------- #


def _figure_6a_checks(result: ExperimentResult) -> dict:
    """``alpha = 0.15`` over-partitions (highest cost on uniform data), very
    large ``alpha`` fails to identify empty areas; ``alpha = 0.25`` is the
    sweet spot used for the remaining experiments."""
    xs = result.config.x_values
    uniform_idx = xs.index(128)
    skewed_idx = xs.index(1)
    strict = result.series["alpha=0.15"].mean_bytes
    chosen = result.series["alpha=0.25"].mean_bytes
    return {
        "alpha=0.15 is not cheaper than alpha=0.25 on uniform data (over-partitioning)":
            strict[uniform_idx] >= chosen[uniform_idx] * 0.95,
        "costs grow from the most skewed to the uniform setting (alpha=0.25)":
            chosen[skewed_idx] < chosen[uniform_idx],
    }


def _figure_6b_checks(result: ExperimentResult) -> dict:
    """``rho = 100%`` of the average density over-partitions uniform
    datasets (k = 128); ``rho = 30%`` fits uniform data well and is used for
    the remaining experiments."""
    xs = result.config.x_values
    uniform_idx = xs.index(128)
    skewed_idx = xs.index(1)
    rho_100 = result.series["rho=100%"].mean_bytes
    rho_30 = result.series["rho=30%"].mean_bytes
    return {
        "rho=100% is not cheaper than rho=30% on uniform data":
            rho_100[uniform_idx] >= rho_30[uniform_idx] * 0.95,
        "costs grow from the most skewed to the uniform setting (rho=30%)":
            rho_30[skewed_idx] < rho_30[uniform_idx],
    }


def _figure_7a_checks(result: ExperimentResult) -> dict:
    """All three algorithms perform similarly for skewed datasets (small
    cluster counts); for the uniform setting (k = 128) UpJoin deteriorates
    because it keeps partitioning data that cannot be pruned."""
    xs = result.config.x_values
    mobi = result.series["mobiJoin"].mean_bytes
    up = result.series["upJoin"].mean_bytes
    sr = result.series["srJoin"].mean_bytes
    skew_idx = [xs.index(1), xs.index(2)]
    uniform_idx = xs.index(128)
    return {
        "similar performance for highly skewed data (within 2x of MobiJoin)": all(
            up[i] <= 2 * mobi[i] + 1000 and sr[i] <= 2 * mobi[i] + 1000 for i in skew_idx
        ),
        "UpJoin is the most expensive algorithm on uniform data (k=128)":
            up[uniform_idx] >= max(mobi[uniform_idx], sr[uniform_idx]) * 0.98,
        "costs increase from skewed to uniform data for every algorithm": all(
            series[xs.index(1)] < series[uniform_idx] for series in (mobi, up, sr)
        ),
    }


def _figure_7b_checks(result: ExperimentResult) -> dict:
    """MobiJoin degrades for skewed datasets (its uniformity-based ``c4``
    estimate makes it stop refining and download whole regions -- the
    Figure 2(b) pathology), while the distribution-aware algorithms keep
    pruning; for uniform data MobiJoin works well and SrJoin strikes a
    balance."""
    xs = result.config.x_values
    mobi = result.series["mobiJoin"].mean_bytes
    up = result.series["upJoin"].mean_bytes
    sr = result.series["srJoin"].mean_bytes
    moderate_idx = [xs.index(4), xs.index(8)]
    uniform_idx = xs.index(128)
    return {
        "distribution-aware algorithms beat MobiJoin on skewed data (k in {4, 8})": all(
            min(up[i], sr[i]) < mobi[i] for i in moderate_idx
        ),
        "MobiJoin is competitive on uniform data (k=128)":
            mobi[uniform_idx] <= min(up[uniform_idx], sr[uniform_idx]) * 1.05,
        "SrJoin never exceeds MobiJoin by more than 10% anywhere": all(
            s <= m * 1.10 + 500 for s, m in zip(sr, mobi)
        ),
    }


def _figure_8a_checks(result: ExperimentResult) -> dict:
    """MobiJoin's heuristic "performs poorly for real-life datasets, since
    it chooses to execute NLSJ most of the time"; UpJoin and SrJoin easily
    outperform it, especially for skewed synthetic sides."""
    xs = result.config.x_values
    mobi = result.series["mobiJoin"].mean_bytes
    up = result.series["upJoin"].mean_bytes
    sr = result.series["srJoin"].mean_bytes
    skew_idx = [xs.index(k) for k in (1, 2)]
    return {
        "UpJoin does not lose to MobiJoin on the most skewed settings": all(
            up[i] <= mobi[i] * 1.05 for i in skew_idx
        ),
        "SrJoin wins clearly on the most skewed settings": all(
            sr[i] <= mobi[i] * 0.9 for i in skew_idx
        ),
    }


def _figure_8b_checks(result: ExperimentResult) -> dict:
    """UpJoin and SrJoin have lower transfer cost than the PDA-mediated
    SemiJoin for skewed synthetic sides, while SemiJoin -- which pays a
    fixed price for shipping one R-tree level of MBRs but prunes empty
    space very effectively -- wins for uniform synthetic sides."""
    xs = result.config.x_values
    semi = result.series["semiJoin"].mean_bytes
    up = result.series["upJoin"].mean_bytes
    sr = result.series["srJoin"].mean_bytes
    skew_idx = [xs.index(k) for k in (1, 2)]
    uniform_idx = xs.index(128)
    return {
        "adaptive algorithms beat SemiJoin on skewed synthetic sides": all(
            min(up[i], sr[i]) < semi[i] for i in skew_idx
        ),
        "SemiJoin's cost is nearly flat across the sweep (fixed MBR shipping)":
            max(semi) <= 3.0 * min(semi) + 1000,
        "SemiJoin is competitive for uniform synthetic sides":
            semi[uniform_idx] <= 1.5 * min(up[uniform_idx], sr[uniform_idx]) + 1000,
    }


def _fanout_checks(result: ExperimentResult) -> dict:
    """Section 3.2: a larger grid fan-out does not rescue MobiJoin and
    inflates its aggregate overhead."""
    k2 = result.series["mobiJoin k=2"].mean_bytes
    k8 = result.series["mobiJoin k=8"].mean_bytes
    return {
        "k=8 pays more aggregate overhead than k=2 on uniform data":
            k8[-1] >= k2[-1] * 0.95,
    }


def _bucket_checks(result: ExperimentResult) -> dict:
    """Section 3.1 / the Section 5.2 footnote: bucket submission lowers the
    totals, same trend otherwise."""
    checks = {}
    for algo in ("upJoin", "srJoin"):
        bucket = result.series[f"{algo} (bucket)"].mean_bytes
        plain = result.series[f"{algo} (per-object)"].mean_bytes
        checks[f"{algo}: bucket never costs more than per-object probing"] = all(
            b <= p * 1.02 + 200 for b, p in zip(bucket, plain)
        )
    return checks


# --------------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------------- #


def _comparison(name: str, buffer_size: int, checks) -> ExperimentConfig:
    """Figure 7: the three algorithms on synthetic data, one buffer size."""
    return ExperimentConfig(
        name=name,
        description=f"MobiJoin vs UpJoin vs SrJoin, buffer={buffer_size} points",
        x_values=PAPER_CLUSTER_COUNTS,
        series={
            "srJoin": {"algorithm": "srjoin"},
            "upJoin": {"algorithm": "upjoin"},
            "mobiJoin": {"algorithm": "mobijoin"},
        },
        workload=dataclasses.replace(SYNTHETIC, buffer_size=buffer_size),
        seeds=(0, 1),
        checks=checks,
    )


def _tariffs(ratio: float) -> ExperimentConfig:
    """Extension: server S is ``ratio`` times more expensive per byte than R
    (the paper fixes ``b_R = b_S``).  No shape is claimed."""
    return ExperimentConfig(
        name=f"ablation_tariffs_x{ratio:g}",
        description=f"Asymmetric tariffs: b_S = {ratio:g} * b_R",
        x_values=(8,),
        series={
            "upJoin": {"algorithm": "upjoin"},
            "srJoin": {"algorithm": "srjoin"},
            "mobiJoin": {"algorithm": "mobijoin"},
        },
        workload=SYNTHETIC,
        seeds=(0,),
        config=NetworkConfig(tariff_r=1.0, tariff_s=ratio),
    )


#: Every figure and ablation, by name, at its fast scale.  The paper
#: expresses Figure 6(b)'s rho as a percentage of the average density; here
#: it is the equivalent fraction.
FIGURES: Dict[str, ExperimentConfig] = {
    config.name: config
    for config in (
        ExperimentConfig(
            name="figure_6a",
            description="UpJoin transferred bytes vs. cluster count for several alpha values",
            x_values=PAPER_CLUSTER_COUNTS,
            series={
                f"alpha={a:g}": {"algorithm": "upjoin", "alpha": a}
                for a in (0.15, 0.20, 0.25, 0.30)
            },
            workload=SYNTHETIC,
            seeds=(0, 1),
            checks=_figure_6a_checks,
        ),
        ExperimentConfig(
            name="figure_6b",
            description="SrJoin transferred bytes vs. cluster count for several rho values",
            x_values=PAPER_CLUSTER_COUNTS,
            series={
                f"rho={int(r * 100)}%": {"algorithm": "srjoin", "rho": r}
                for r in (0.30, 0.50, 1.00, 2.00, 3.50)
            },
            workload=SYNTHETIC,
            seeds=(0, 1),
            checks=_figure_6b_checks,
        ),
        _comparison("figure_7a", 100, _figure_7a_checks),
        _comparison("figure_7b", 800, _figure_7b_checks),
        ExperimentConfig(
            name="figure_8a",
            description="Railway-like dataset joined with 1000-point synthetic (bucket queries)",
            x_values=PAPER_CLUSTER_COUNTS,
            series={
                "srJoin": {"algorithm": "srjoin", "bucket_queries": True},
                "upJoin": {"algorithm": "upjoin", "bucket_queries": True},
                "mobiJoin": {"algorithm": "mobijoin", "bucket_queries": True},
            },
            workload=RAILWAY,
            seeds=(0,),
            checks=_figure_8a_checks,
        ),
        ExperimentConfig(
            name="figure_8b",
            description="UpJoin/SrJoin vs SemiJoin on the railway-like dataset",
            x_values=PAPER_CLUSTER_COUNTS,
            series={
                "upJoin": {"algorithm": "upjoin", "bucket_queries": True},
                "srJoin": {"algorithm": "srjoin", "bucket_queries": True},
                "semiJoin": {"algorithm": "semijoin"},
            },
            workload=RAILWAY,
            seeds=(0,),
            checks=_figure_8b_checks,
        ),
        ExperimentConfig(
            name="ablation_fanout",
            description="MobiJoin with larger repartitioning fan-out",
            x_values=(1, 8, 128),
            series={
                f"mobiJoin k={k}": {"algorithm": "mobijoin", "grid_k": k} for k in (2, 4, 8)
            },
            workload=SYNTHETIC,
            seeds=(0,),
            checks=_fanout_checks,
        ),
        ExperimentConfig(
            name="ablation_bucket",
            description="Effect of bucket query submission on the real-like workload",
            x_values=(1, 8, 128),
            series={
                "upJoin (bucket)": {"algorithm": "upjoin", "bucket_queries": True},
                "upJoin (per-object)": {"algorithm": "upjoin", "bucket_queries": False},
                "srJoin (bucket)": {"algorithm": "srjoin", "bucket_queries": True},
                "srJoin (per-object)": {"algorithm": "srjoin", "bucket_queries": False},
            },
            workload=dataclasses.replace(RAILWAY, r_size=3000, bucket_queries=False),
            seeds=(0,),
            checks=_bucket_checks,
        ),
        *(_tariffs(ratio) for ratio in (1.0, 2.0, 5.0)),
    )
}
