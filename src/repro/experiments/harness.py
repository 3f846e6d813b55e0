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
datasets, a side whose generator takes no cluster count (uniform, railway)
joins the same dataset at every x-value of a seed, and a server build is
immutable (the connections count).  The sweep therefore runs seed by seed
and builds each distinct dataset -- keyed by ``(kind, size, seed,
clusters if the kind uses them)`` -- and its side's
:class:`~repro.server.server.SpatialServer` once, handing them to every
cell and series that uses them.  Only the metered connections and the
device are rebuilt per run, so byte accounting is bit-identical to a cold
build.  Seeds run one after the other, in the process that called
:func:`run_experiment`, and a seed's builds are released before the next
seed's are made.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import AdHocJoinSession
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


def _sides(spec: WorkloadSpec) -> List[Tuple]:
    """Each side's dataset key, ``(kind, size, seed, clusters)``: R at
    ``spec.seed``, S at ``spec.seed + 1000``; the cluster count is ``None``
    where the generator takes none."""
    return [
        (kind, size, seed, spec.clusters if kind == "clustered" else None)
        for kind, size, seed in (
            (spec.r_kind, spec.r_size, spec.seed),
            (spec.s_kind, spec.s_size, spec.seed + 1000),
        )
    ]


def _dataset(kind: str, size: int, seed: int, clusters: Optional[int]) -> SpatialDataset:
    """The dataset one key describes."""
    if kind == "clustered":
        return clustered(n=size, clusters=clusters, seed=seed)
    if kind == "uniform":
        return uniform(n=size, seed=seed)
    if kind == "railway":
        return generate_railway_like(n_segments=size, seed=seed)
    raise ValueError(f"unknown dataset kind {kind!r}")


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


def run_experiment(config: ExperimentConfig, keep_runs: bool = False) -> ExperimentResult:
    """Execute a sweep: every series at every x-value, averaged over seeds.

    Each distinct dataset of a seed and its side's server are built once and
    shared by every cell and series that joins them (see "Execution layer"
    above).

    Parameters
    ----------
    keep_runs:
        Keep every raw :class:`~repro.core.result.JoinResult` in
        ``result.runs``.
    """
    # One measured run: (total_bytes, num_pairs, JoinResult or None).
    raw: Dict[Tuple[str, int, int], Tuple[float, float, Optional[JoinResult]]] = {}
    for seed in config.seeds:
        # Peak memory stays at one seed's builds.  A side's server is keyed
        # by its dataset; the two sides of a seed draw different generator
        # seeds, so they never share one.
        builds: Dict[Tuple, Tuple[SpatialDataset, SpatialServer]] = {}
        for x in config.x_values:
            spec = dataclasses.replace(config.workload, clusters=x, seed=seed)
            sides = []
            for name, key in zip("RS", _sides(spec)):
                if (name, key) not in builds:
                    dataset = _dataset(*key)
                    builds[(name, key)] = dataset, SpatialServer(dataset, name=name)
                sides.append(builds[(name, key)])
            (dataset_r, server_r), (dataset_s, server_s) = sides
            for label, run_kwargs in config.series.items():
                run = run_single(
                    dataset_r, dataset_s, spec, run_kwargs, config.config, (server_r, server_s)
                )
                raw[(label, x, seed)] = (
                    float(run.total_bytes),
                    float(run.num_pairs),
                    run if keep_runs else None,
                )

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
