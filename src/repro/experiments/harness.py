"""Generic experiment machinery.

An :class:`ExperimentConfig` describes a sweep: which algorithms to run,
over which cluster counts (the x-axis of every figure), on which seeds,
and the base :class:`~repro.datasets.workloads.WorkloadSpec` every cell
derives from.  :func:`run_experiment` executes it and returns an
:class:`ExperimentResult` whose series can be printed as the paper's
figures.

The paper reports "the average of 10 executions with different datasets";
the figures of :data:`repro.experiments.figures.FIGURES` run one or two
seeds so the whole table takes about a second, and
:func:`~repro.experiments.figures.paper_scale` gives the paper's ten.

Execution layer
---------------

Every algorithm series of a sweep cell joins the *same* (x-value, seed)
datasets, and a server build is immutable (the connections count).  The
sweep therefore iterates cells in the outer loop, builds the cell's two
:class:`~repro.server.server.SpatialServer` instances once and hands them
to every series of the cell: index construction is O(x-values x seeds)
instead of O(series x x-values x seeds).  Only the metered connections and
the device are rebuilt per run, so byte accounting is bit-identical to a
cold build.  Cells run one after the other, in the process that called
:func:`run_experiment`, and a cell's servers are released before the next
cell is built.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import AdHocJoinSession
from repro.core.planner import StackConfig
from repro.core.result import JoinResult
from repro.datasets.dataset import SpatialDataset
from repro.datasets.railway import generate_railway_like
from repro.datasets.synthetic import clustered, uniform
from repro.datasets.workloads import WorkloadSpec
from repro.network.config import NetworkConfig
from repro.server.server import SpatialServer

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "SeriesResult",
    "build_datasets",
    "run_experiment",
    "run_single",
]

@dataclass(frozen=True)
class ExperimentConfig:
    """A full sweep specification."""

    name: str
    description: str
    #: Cluster counts on the x-axis.
    x_values: Tuple[int, ...]
    #: The series: algorithm label -> run keyword arguments passed to
    #: :meth:`AdHocJoinSession.run` (must include ``algorithm``).
    series: Dict[str, Dict[str, object]]
    #: The workload of every cell; a cell sets its ``clusters`` and ``seed``.
    workload: WorkloadSpec
    #: Seeds averaged per x-value.
    seeds: Tuple[int, ...] = (0, 1, 2)
    #: Wire constants / tariffs.
    config: NetworkConfig = field(default_factory=NetworkConfig)
    #: The figure's shape checks, ``result -> {claim: holds}``; the sweep
    #: itself never calls them.
    checks: Optional[Callable[["ExperimentResult"], Dict[str, bool]]] = None


@dataclass
class SeriesResult:
    """Measured bytes of one algorithm across the x-axis."""

    label: str
    #: Mean total bytes per x-value (parallel to ``ExperimentResult.x_values``).
    mean_bytes: List[float] = field(default_factory=list)
    #: Standard deviation across seeds per x-value.
    std_bytes: List[float] = field(default_factory=list)
    #: Mean result-pair counts (sanity signal: all series must agree).
    mean_pairs: List[float] = field(default_factory=list)


@dataclass
class ExperimentResult:
    """The outcome of one full sweep."""

    config: ExperimentConfig
    series: Dict[str, SeriesResult] = field(default_factory=dict)
    #: Raw per-run results keyed by (series label, x_value, seed).
    runs: Dict[Tuple[str, int, int], JoinResult] = field(default_factory=dict)


def build_datasets(spec: WorkloadSpec) -> Tuple[SpatialDataset, SpatialDataset]:
    """Materialise the two datasets described by a workload spec."""

    def build(kind: str, size: int, seed: int, clusters: int) -> SpatialDataset:
        if kind == "clustered":
            return clustered(n=size, clusters=clusters, seed=seed)
        if kind == "uniform":
            return uniform(n=size, seed=seed)
        if kind == "railway":
            return generate_railway_like(n_segments=size, seed=seed)
        raise ValueError(f"unknown dataset kind {kind!r}")

    dataset_r = build(spec.r_kind, spec.r_size, spec.seed, spec.clusters)
    dataset_s = build(spec.s_kind, spec.s_size, spec.seed + 1000, spec.clusters)
    return dataset_r, dataset_s


def run_single(
    dataset_r: SpatialDataset,
    dataset_s: SpatialDataset,
    spec: WorkloadSpec,
    run_kwargs: Dict[str, object],
    config: NetworkConfig,
    servers: Optional[Tuple[SpatialServer, SpatialServer]] = None,
) -> JoinResult:
    """Run one algorithm once on a prepared workload.

    The device buffer is the spec's.  ``servers`` injects pre-built server
    instances (typically a sweep cell's); connections, their statistics
    and the device are fresh per run either way, so results are
    independent of any previous run on the same servers.
    """
    session = AdHocJoinSession(
        dataset_r,
        dataset_s,
        buffer_size=spec.buffer_size,
        config=config,
        servers=servers,
    )
    kwargs = dict(run_kwargs)
    kwargs.setdefault("epsilon", spec.epsilon)
    kwargs.setdefault("bucket_queries", spec.bucket_queries)
    return session.run(**kwargs)  # type: ignore[arg-type]


#: One measured run: (total_bytes, num_pairs, JoinResult or None).
_RunRecord = Tuple[float, float, Optional[JoinResult]]


def _run_cell(
    config: ExperimentConfig,
    x: int,
    seed: int,
    keep_runs: bool,
    share_servers: bool,
) -> Dict[Tuple[str, int, int], _RunRecord]:
    """Run every series of the sweep on one (x, seed) cell.

    With ``share_servers`` the cell's two servers are built once and handed
    to every series; otherwise every run builds its own.
    """
    spec = dataclasses.replace(config.workload, clusters=x, seed=seed)
    dataset_r, dataset_s = build_datasets(spec)
    servers = StackConfig().servers(dataset_r, dataset_s) if share_servers else None
    out: Dict[Tuple[str, int, int], _RunRecord] = {}
    for label, run_kwargs in config.series.items():
        run = run_single(
            dataset_r, dataset_s, spec, run_kwargs, config=config.config, servers=servers
        )
        out[(label, x, seed)] = (
            float(run.total_bytes),
            float(run.num_pairs),
            run if keep_runs else None,
        )
    return out


def run_experiment(
    config: ExperimentConfig,
    keep_runs: bool = False,
    *,
    share_servers: bool = True,
) -> ExperimentResult:
    """Execute a sweep: every series at every x-value, averaged over seeds.

    Parameters
    ----------
    keep_runs:
        Keep every raw :class:`~repro.core.result.JoinResult` in
        ``result.runs``.
    share_servers:
        Share one pre-built server pair per (x-value, seed) cell across all
        algorithm series (the default).  ``False`` rebuilds the full stack
        for every run -- the reference the equivalence tests hold sharing
        against.
    """
    raw: Dict[Tuple[str, int, int], _RunRecord] = {}
    for x in config.x_values:
        for seed in config.seeds:
            # Peak memory stays at a single cell's servers.
            raw.update(_run_cell(config, x, seed, keep_runs, share_servers))

    # The series are reported series-major, then x, then seed.
    result = ExperimentResult(config=config)
    for label in config.series:
        series = SeriesResult(label=label)
        for x in config.x_values:
            totals: List[float] = []
            pair_counts: List[float] = []
            for seed in config.seeds:
                total_bytes, num_pairs, run = raw[(label, x, seed)]
                totals.append(total_bytes)
                pair_counts.append(num_pairs)
                if keep_runs and run is not None:
                    result.runs[(label, x, seed)] = run
            series.mean_bytes.append(statistics.fmean(totals))
            series.std_bytes.append(statistics.pstdev(totals) if len(totals) > 1 else 0.0)
            series.mean_pairs.append(statistics.fmean(pair_counts))
        result.series[label] = series
    return result
