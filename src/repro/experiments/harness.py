"""Generic experiment machinery.

An :class:`ExperimentConfig` describes a sweep: which algorithms to run,
over which x-axis values (cluster counts, alpha values, ...), how many
seeded repetitions to average, and how to build the workload for one
(x-value, seed) combination.  :func:`run_experiment` executes it and
returns an :class:`ExperimentResult` whose series can be printed as the
paper's figures.

The paper reports "the average of 10 executions with different datasets";
the default here is 3 repetitions to keep the benchmark suite fast --
every figure function accepts a ``repetitions`` override.

Execution layer
---------------

Every algorithm series of a sweep cell joins the *same* (x-value, seed)
datasets, and all server-side state -- the datasets, the aggregate R-tree
and its flattened snapshots -- is immutable during a join.  The sweep
therefore iterates cells in the outer loop and shares one pair of
pre-built :class:`~repro.server.server.SpatialServer` instances (held in a
:class:`WorkloadCache`) across all series of a cell: index construction is
O(x-values x seeds) instead of O(series x x-values x seeds).  Only the
metered channels and the device are rebuilt per run, so byte accounting is
bit-identical to a cold build.

``run_experiment(..., workers=N)`` additionally fans the independent
(x-value, seed) cells out over a ``fork`` process pool.  Each worker
computes its cells exactly as the serial path would (same datasets, same
seeds, same algorithms); the parent merges the per-run numbers in the
canonical (series, x-value, seed) order, so the resulting
:class:`ExperimentResult` is bit-identical to a serial run regardless of
worker count or scheduling.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    "WorkloadCache",
    "WorkloadCell",
    "build_datasets",
    "run_experiment",
    "run_single",
]

#: Type of a workload factory: (x_value, seed) -> (dataset_r, dataset_s, spec).
WorkloadFactory = Callable[[object, int], Tuple[SpatialDataset, SpatialDataset, WorkloadSpec]]


@dataclass(frozen=True)
class ExperimentConfig:
    """A full sweep specification."""

    name: str
    description: str
    #: Values on the x-axis (cluster counts, alpha values, ...).
    x_values: Tuple[object, ...]
    x_label: str
    #: The series: algorithm label -> run keyword arguments passed to
    #: :meth:`AdHocJoinSession.run` (must include ``algorithm``).
    series: Dict[str, Dict[str, object]]
    #: Workload factory for one (x_value, seed) pair.
    workload: WorkloadFactory
    #: Seeds averaged per x-value.
    seeds: Tuple[int, ...] = (0, 1, 2)
    #: Device buffer capacity in objects.
    buffer_size: int = 800
    #: Wire constants / tariffs.
    config: NetworkConfig = field(default_factory=NetworkConfig)
    #: Build indexed (SemiJoin-capable) sessions.
    indexed: bool = False


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
    runs: Dict[Tuple[str, object, int], JoinResult] = field(default_factory=dict)

    def x_values(self) -> Tuple[object, ...]:
        return self.config.x_values

    def winner_at(self, x_value: object) -> str:
        """The cheapest series at one x-value (by mean bytes)."""
        idx = self.config.x_values.index(x_value)
        return min(self.series, key=lambda label: self.series[label].mean_bytes[idx])


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
    buffer_size: int,
    config: NetworkConfig,
    indexed: bool,
    servers: Optional[Tuple[SpatialServer, SpatialServer]] = None,
) -> JoinResult:
    """Run one algorithm once on a prepared workload.

    ``servers`` injects pre-built server instances (typically from a
    :class:`WorkloadCache`); channels, device and server statistics are
    fresh / reset per run either way, so results are independent of any
    previous run on the same servers.
    """
    session = AdHocJoinSession(
        dataset_r,
        dataset_s,
        buffer_size=buffer_size,
        config=config,
        indexed=indexed or str(run_kwargs.get("algorithm", "")).lower() == "semijoin",
        servers=servers,
    )
    kwargs = dict(run_kwargs)
    kwargs.setdefault("epsilon", spec.epsilon)
    kwargs.setdefault("bucket_queries", spec.bucket_queries)
    return session.run(**kwargs)  # type: ignore[arg-type]


# --------------------------------------------------------------------------- #
# the execution layer: shared immutable server stacks + parallel sweeps
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class WorkloadCell:
    """One fully prepared (x-value, seed) sweep cell.

    Everything here is immutable during a join: the datasets are frozen
    array containers and the servers' index structures are read-only after
    construction (only their statistics counters mutate, and those are
    reset at the start of every run).  A cell can therefore back any number
    of algorithm runs, sequentially, with bit-identical results.
    """

    x: object
    seed: int
    dataset_r: SpatialDataset
    dataset_s: SpatialDataset
    spec: WorkloadSpec
    server_r: SpatialServer
    server_s: SpatialServer

    @property
    def servers(self) -> Tuple[SpatialServer, SpatialServer]:
        return (self.server_r, self.server_s)


class WorkloadCache:
    """Keyed cache of built workload cells for one experiment sweep.

    The key is ``(x_value, seed)``: the workload factory is deterministic
    in those two values, so one materialised cell (datasets + bulk-loaded
    servers) serves every algorithm series of the sweep.  This turns the
    O(series x x-values x seeds) index rebuilds of a naive sweep into
    O(x-values x seeds) shared builds.
    """

    def __init__(self, config: ExperimentConfig, index_fanout: int = 16) -> None:
        self.config = config
        self.index_fanout = index_fanout
        self.hits = 0
        self.misses = 0
        self._cells: Dict[Tuple[object, int], WorkloadCell] = {}

    def __len__(self) -> int:
        return len(self._cells)

    def get(self, x: object, seed: int) -> WorkloadCell:
        """The built cell for ``(x, seed)``, constructing it on first use."""
        key = (x, seed)
        cell = self._cells.get(key)
        if cell is not None:
            self.hits += 1
            return cell
        self.misses += 1
        dataset_r, dataset_s, spec = self.config.workload(x, seed)
        cell = WorkloadCell(
            x=x,
            seed=seed,
            dataset_r=dataset_r,
            dataset_s=dataset_s,
            spec=spec,
            server_r=SpatialServer(
                dataset_r.rename("R"), name="R", index_fanout=self.index_fanout
            ),
            server_s=SpatialServer(
                dataset_s.rename("S"), name="S", index_fanout=self.index_fanout
            ),
        )
        self._cells[key] = cell
        return cell


#: One measured run: (total_bytes, num_pairs, JoinResult or None).
_RunRecord = Tuple[float, float, Optional[JoinResult]]


def _run_cell(
    config: ExperimentConfig,
    x: object,
    seed: int,
    keep_runs: bool,
    cache: Optional[WorkloadCache],
) -> Dict[Tuple[str, object, int], _RunRecord]:
    """Run every series of the sweep on one (x, seed) cell."""
    if cache is not None:
        cell = cache.get(x, seed)
        dataset_r, dataset_s, spec = cell.dataset_r, cell.dataset_s, cell.spec
        servers: Optional[Tuple[SpatialServer, SpatialServer]] = cell.servers
    else:
        dataset_r, dataset_s, spec = config.workload(x, seed)
        servers = None
    out: Dict[Tuple[str, object, int], _RunRecord] = {}
    for label, run_kwargs in config.series.items():
        run = run_single(
            dataset_r,
            dataset_s,
            spec,
            run_kwargs,
            buffer_size=spec.buffer_size or config.buffer_size,
            config=config.config,
            indexed=config.indexed,  # run_single adds the semijoin override
            servers=servers,
        )
        out[(label, x, seed)] = (
            float(run.total_bytes),
            float(run.num_pairs),
            run if keep_runs else None,
        )
    return out


#: Sweep state inherited by forked pool workers (set only around a pool run).
_WORKER_STATE: Optional[Tuple[ExperimentConfig, bool, bool]] = None


def _worker_run_cell(
    cell_key: Tuple[object, int]
) -> Dict[Tuple[str, object, int], _RunRecord]:
    """Pool worker: run one cell with a private per-cell cache."""
    assert _WORKER_STATE is not None, "worker state not inherited (non-fork start?)"
    config, keep_runs, share_servers = _WORKER_STATE
    x, seed = cell_key
    # A fresh per-cell cache still shares the cell's server build across
    # all series while keeping peak memory at one cell.
    cache = WorkloadCache(config) if share_servers else None
    return _run_cell(config, x, seed, keep_runs, cache)


def _run_cells_parallel(
    config: ExperimentConfig,
    cells: Sequence[Tuple[object, int]],
    workers: int,
    keep_runs: bool,
    share_servers: bool,
) -> Optional[Dict[Tuple[str, object, int], _RunRecord]]:
    """Fan the cells out over a ``fork`` pool; None when fork is unavailable.

    The workload factories in :mod:`repro.experiments.figures` are closures
    and cannot cross a pickling process boundary, so the sweep state is
    handed to the workers through fork-time memory inheritance (the
    module-global ``_WORKER_STATE``).  Platforms without ``fork`` fall back
    to the serial path.
    """
    import multiprocessing as mp

    try:
        ctx = mp.get_context("fork")
    except ValueError:
        return None
    global _WORKER_STATE
    _WORKER_STATE = (config, keep_runs, share_servers)
    try:
        with ctx.Pool(processes=workers) as pool:
            chunks = pool.map(_worker_run_cell, list(cells), chunksize=1)
    finally:
        _WORKER_STATE = None
    merged: Dict[Tuple[str, object, int], _RunRecord] = {}
    for chunk in chunks:
        merged.update(chunk)
    return merged


def run_experiment(
    config: ExperimentConfig,
    repetitions: Optional[int] = None,
    keep_runs: bool = False,
    *,
    share_servers: bool = True,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Execute a sweep: every series at every x-value, averaged over seeds.

    Parameters
    ----------
    repetitions:
        Override the config's seed tuple with ``range(repetitions)``.
    keep_runs:
        Keep every raw :class:`~repro.core.result.JoinResult` in
        ``result.runs``.
    share_servers:
        Share one pre-built server pair per (x-value, seed) cell across all
        algorithm series (the default).  ``False`` rebuilds the full stack
        for every run -- the reference the equivalence tests hold the
        cache against.
    workers:
        When > 1, fan the (x-value, seed) cells out over a ``fork`` process
        pool of that size.  Results are merged in the canonical
        (series, x-value, seed) order and are bit-identical to a serial
        run; platforms without ``fork`` silently run serially.
    """
    seeds = config.seeds if repetitions is None else tuple(range(repetitions))
    cells = [(x, seed) for x in config.x_values for seed in seeds]

    raw: Optional[Dict[Tuple[str, object, int], _RunRecord]] = None
    if workers is not None and workers > 1 and len(cells) > 1:
        raw = _run_cells_parallel(config, cells, workers, keep_runs, share_servers)
    if raw is None:
        raw = {}
        for x, seed in cells:
            # One fresh cache per cell: every series of the cell shares the
            # server build, and the cell is released before the next one is
            # constructed (peak memory stays at a single cell).
            cache = WorkloadCache(config) if share_servers else None
            raw.update(_run_cell(config, x, seed, keep_runs, cache))

    # Deterministic merge: iterate the canonical (series, x, seed) order so
    # means, stds and run insertion order never depend on how (or where)
    # the cells were executed.
    result = ExperimentResult(config=config)
    for label in config.series:
        series = SeriesResult(label=label)
        for x in config.x_values:
            totals: List[float] = []
            pair_counts: List[float] = []
            for seed in seeds:
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
