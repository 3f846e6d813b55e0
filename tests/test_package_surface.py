"""The shipped package has one implementation per operation and no knob to pick another.

The reference twins (pointer R-tree, depth-first driver, scalar operators,
per-lead sweep, event-replay kernel, SemiJoin's scalar loop) live in
``tests/oracles/``; this guard keeps them, and the options that used to
select them, out of ``src/repro/`` -- and with them every definition that
nothing but a test reaches.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import importlib
import inspect
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.api
from repro.core.planner import ALGORITHMS
from repro.experiments.harness import run_experiment
from repro.index import flat
from repro.index.flat import FlatRTree
from repro.network.wifi import WifiLinkModel
from repro.service.query import JoinQuery

from tests import test_benchmark_targets
from tests.oracles import pointer_rtree

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ORACLES = ROOT / "tests" / "oracles"

#: Names a caller could use to pick between implementations of one operation.
SELECTOR_NAMES = {"execution", "method", "fuse", "coalesce"}

#: Options no caller ever set, each turned into the one value in use: the
#: healthy-first replica order, index fanout 16, a serial sweep, the
#: broker's default-built cost model, its calibration weight, calibration
#: itself (on, or raw predictions), the planner's candidate pool, the fixed
#: grid's 4 x 4 cells and COUNT pruning, the naive join's lifted buffer,
#: the device's 802.11b link model, the broker's admission width, breaker
#: threshold and cooldown, result-cache byte budget and server-build cap
#: (``repro.service.broker``'s module constants) and the sweep's shared
#: builds.
REMOVED_OPTIONS = {
    "router", "index_fanout", "workers", "selector", "smoothing", "calibrate",
    "calibrated", "candidates", "grid_size", "prune_empty", "enforce_buffer",
    "link", "max_wave", "breaker_threshold", "breaker_cooldown_waves",
    "cache_max_bytes", "max_server_builds", "share_servers",
}

#: The batch and scalar endpoints of a server connection.
CONNECTION_ENDPOINTS = {
    "count", "count_batch", "window", "window_batch", "window_batch_flat", "range",
    "range_batch", "range_batch_flat", "bucket_range", "average_mbr_area",
}


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_the_package_never_imports_the_tests_or_an_oracle():
    oracle_names = {path.stem for path in ORACLES.glob("*.py")} - {"__init__"}
    assert len(oracle_names) >= 9
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for module in _imported_modules(path):
            parts = set(module.split("."))
            if parts & ({"tests", "oracles"} | oracle_names):
                offenders.append((str(path.relative_to(ROOT)), module))
    assert not offenders
    # ... and what moved out did not leave a copy behind.
    assert not (PACKAGE / "index" / "rtree.py").exists()
    assert not (PACKAGE / "network" / "simulation.py").exists()


def _public_callables():
    """Every function, constructor and public method the entry points expose."""
    owners = [getattr(repro.api, name) for name in repro.api.__all__]
    owners += [*ALGORITHMS.values(), WifiLinkModel, JoinQuery, run_experiment]
    for owner in owners:
        if inspect.isfunction(owner):
            yield owner.__qualname__, owner
        elif inspect.isclass(owner):
            yield owner.__qualname__, owner
            for name, member in inspect.getmembers(owner, inspect.isfunction):
                if not name.startswith("_"):
                    yield f"{owner.__qualname__}.{name}", member


def test_no_entry_point_takes_an_implementation_selector():
    offenders = []
    seen = 0
    for name, target in _public_callables():
        try:
            parameters = inspect.signature(target).parameters
        except (TypeError, ValueError):  # a constant or an uninspectable builtin
            continue
        seen += 1
        offenders += [(name, p) for p in parameters if p in SELECTOR_NAMES | REMOVED_OPTIONS]
        if dataclasses.is_dataclass(target):
            offenders += [
                (name, f.name)
                for f in dataclasses.fields(target)
                if f.name in SELECTOR_NAMES | REMOVED_OPTIONS
            ]
    assert seen > 50
    assert not offenders
    # An algorithm takes no options of its own, so nothing carries them.
    from repro.api import AdHocJoinSession
    from repro.core.planner import build_algorithm, run_join

    for target in (build_algorithm, run_join, AdHocJoinSession.run):
        kinds = {p.kind for p in inspect.signature(target).parameters.values()}
        assert inspect.Parameter.VAR_KEYWORD not in kinds, target.__qualname__
    # ... nor does anything below the entry points.
    assert [
        (name, names & REMOVED_OPTIONS)
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, names in _signatures(path)
        if names & REMOVED_OPTIONS
    ] == []


def test_the_broker_has_one_entry_point_and_a_stateless_planner():
    # ``run_batch`` is the way in, and a plan is a pure function of its
    # query: no learned correction, no selector object, no per-query twin
    # of one.
    from repro.core import costmodel
    from repro.service.broker import QueryBroker

    broker = QueryBroker()
    for name in ("submit", "execute", "selector", "calibrate", "_pending"):
        assert not hasattr(broker, name), name
    assert not hasattr(costmodel, "CalibratedCostModel")
    assert tuple(inspect.signature(QueryBroker).parameters) == (
        "config", "cache", "tracer", "metrics"
    )


def test_every_run_keeps_its_trace_and_its_sessions_buffer():
    # ``trace`` cannot join REMOVED_OPTIONS: it is also ``JoinResult.trace``.
    # A run records its decision trace, and its buffer is its session's.
    from repro.api import AdHocJoinSession
    from repro.core.base import AlgorithmParameters

    fields = tuple(f.name for f in dataclasses.fields(AlgorithmParameters))
    assert fields == ("alpha", "rho", "grid_k", "bucket_queries", "seed")
    assert tuple(inspect.signature(AdHocJoinSession.run).parameters) == (
        "self", "algorithm", "epsilon", "kind", "min_matches", "bucket_queries",
        "alpha", "rho", "grid_k", "window", "seed",
    )


#: What starts a thread: the stdlib's thread and pool classes and the
#: low-level spawn call.
THREAD_STARTERS = {"Thread", "Timer", "ThreadPoolExecutor", "start_new_thread"}


def _thread_starters(tree: ast.AST):
    """Names of thread starters a module imports or reaches as attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in THREAD_STARTERS:
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names if a.name in THREAD_STARTERS)
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name == "_thread")


def test_the_broker_is_the_only_way_to_serve_queries():
    # The asynchronous admission front-end is gone with its thread, its
    # error and the outcome fields only it stamped: a caller cuts a stream
    # of arrivals into ``run_batch`` calls itself.
    import repro.errors
    import repro.service
    from repro.service.query import QueryOutcome

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.service.executor")
    for module in (repro.api, repro.service, repro.errors):
        for name in ("QueryService", "ServiceClosed"):
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in getattr(module, "__all__", ()), (module.__name__, name)
    fields = {f.name for f in dataclasses.fields(QueryOutcome)}
    assert not fields & {"ticket", "service_latency_s"}
    starters, mentions = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        starters += [(path.name, name) for name in _thread_starters(ast.parse(text))]
        mentions += [path.name for name in ("QueryService", "ServiceClosed") if name in text]
    assert starters == [] and mentions == []


def _touches_servers(tree: ast.AST):
    """Attribute reads on a ``servers`` name (``getattr`` included) and calls
    of a connection endpoint; handing ``servers`` on to a driver is neither."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in ("servers", "ServerPair"):
                yield f"{node.value.id}.{node.attr}"
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            if isinstance(func, ast.Attribute) and func.attr in CONNECTION_ENDPOINTS:
                yield f".{func.attr}()"
            if isinstance(func, ast.Name) and func.id == "getattr":
                if isinstance(args[0], ast.Name) and args[0].id == "servers":
                    yield "getattr(servers, ...)"


def test_the_operators_ask_for_server_work_and_never_do_it():
    # The operator bodies are step generators: whoever drives them answers.
    # A ``servers.r.window_batch_flat(...)`` creeping back into one would
    # run inside a brokered query's advance, invisible to the wave driver.
    for name in ("hbsj.py", "nlsj.py"):
        tree = ast.parse((PACKAGE / "device" / name).read_text())
        assert list(_touches_servers(tree)) == [], name
    # ... and the protocol module reaches a connection in its one booking
    # path only; everything else reads nothing of a pair but the builds
    # behind it, which the driver evaluates on.
    tree = ast.parse((PACKAGE / "device" / "steps.py").read_text())
    touching = {}
    for node in tree.body:
        touched = list(_touches_servers(node))
        if touched:
            touching[node.name] = touched
    assert set(touching) == {"book_step"}
    read = {
        node.attr
        for top in tree.body
        if getattr(top, "name", None) != "book_step"
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and "servers" in ast.unparse(node.value)
    }
    assert read == {"backing"}
    # A kind is evaluated by a build and booked by a connection: there is
    # no third way to answer it.
    from repro.device import steps

    assert steps.Kind._fields == ("name", "evaluate", "columns", "book")
    assert not hasattr(steps, "answer_step")
    # One operator body each: the generator, which ``MobileDevice`` drives;
    # no free function drives it a second way.
    import repro.device
    from repro.device import hbsj, nlsj

    assert inspect.isgeneratorfunction(hbsj.hash_based_spatial_join_steps)
    assert inspect.isgeneratorfunction(nlsj.nested_loop_spatial_join_steps)
    for module in (repro.device, hbsj, nlsj):
        free = [
            name for name in vars(module)
            if name.endswith(("_spatial_join", "_spatial_join_batch"))
        ]
        assert free == [], module.__name__


def _body(function) -> list:
    """The statements of ``function`` after its docstring."""
    return [
        node for node in ast.parse(textwrap.dedent(inspect.getsource(function))).body[0].body
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
    ]


#: The one-query endpoints ``benchmarks/e2e/layers.py`` pins, and their batch twins.
SCALAR_TWINS = {"window": "window_batch", "count": "count_batch", "range": "range_batch"}


def test_a_single_query_is_a_batch_of_one():
    # Every one-query endpoint is one statement calling its batch twin, so a
    # query kind has one evaluation and one accounting path at every layer.
    from repro.device.pda import MobileDevice
    from repro.server.remote import RemoteServer, ShardedRemoteServer
    from repro.server.server import SpatialServer

    delegations = [
        (cls, name, twin)
        for cls in (SpatialServer, RemoteServer, ShardedRemoteServer)
        for name, twin in SCALAR_TWINS.items()
    ] + [(MobileDevice, "count_window", "count_windows")]
    for cls, name, twin in delegations:
        body = _body(vars(cls)[name])
        assert len(body) == 1 and isinstance(body[0], ast.Return), (cls.__name__, name)
        calls = [
            node.func.attr for node in ast.walk(body[0])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        ]
        assert calls == [twin], (cls.__name__, name)
    # ... and the index has no one-query descent beside its batch descents.
    for name in ("_descend", "window_rows", "range_rows", "window_query", "range_query"):
        assert not hasattr(FlatRTree, name), name
    assert not hasattr(flat, "_meets")


def _counter_writes(node: ast.AST, counters, function=None):
    """``(function, counter)`` per write of a statistics counter --
    ``stats.<counter>`` or ``<...>.stats.<counter>`` -- outside
    ``ServerQueryStats``, whose methods are the rules."""
    if isinstance(node, ast.ClassDef) and node.name == "ServerQueryStats":
        return
    if isinstance(node, ast.FunctionDef):
        function = node.name
    if isinstance(node, ast.Assign):
        targets = node.targets
    else:
        targets = [node.target] if isinstance(node, ast.AugAssign) else []
    for target in targets:
        if isinstance(target, ast.Attribute) and target.attr in counters:
            if "stats" in (getattr(target.value, "id", None), getattr(target.value, "attr", None)):
                yield function, target.attr
    for child in ast.iter_child_nodes(node):
        yield from _counter_writes(child, counters, function)


def test_one_statistics_rule_per_query_kind():
    # What answering a COUNT / WINDOW / RANGE / bucket batch or an aggregate
    # counts is one ``ServerQueryStats.book_*`` method each.  Nothing in the
    # package writes a counter beside them.
    from repro.server.server import ServerQueryStats

    counters = {field.name for field in dataclasses.fields(ServerQueryStats)}
    offenders = [
        (path.name, *write)
        for path in sorted(PACKAGE.rglob("*.py"))
        for write in _counter_writes(ast.parse(path.read_text()), counters)
    ]
    assert offenders == []
    rules = {"book_count", "book_window", "book_range", "book_bucket", "book_aggregate"}
    assert rules <= set(vars(ServerQueryStats))
    # ... and the ABC of scalar methods nothing called or checked is gone.
    assert not (PACKAGE / "server" / "interface.py").exists()


#: What a server build carried to keep per-query counters of its own.
BUILD_STATE_NAMES = ("stats", "shared_view", "breaker_token", "server_uid")


def test_a_server_build_keeps_no_query_state():
    # The connection counts: builds have no counters, views or tokens, and
    # the names that existed only for them are gone.
    from repro.datasets.dataset import SpatialDataset
    from repro.server import ShardedSpatialServer, SpatialServer
    from repro.server.remote import RemoteServer, ShardedRemoteServer

    mbrs = np.array([[0.0, 0.0, 0.1, 0.1], [0.5, 0.5, 0.6, 0.6]])
    dataset = SpatialDataset(mbrs, name="R")
    builds = [SpatialServer(dataset, name="R"), ShardedSpatialServer(dataset, name="R", replicas=2)]
    for build in builds:
        for unit in (build, *build.breaker_units()):
            for name in BUILD_STATE_NAMES:
                assert not hasattr(unit, name), (type(unit).__name__, name)
    for module, name in (
        ("repro.server", "FleetStats"),
        ("repro.server.sharded", "FleetStats"),
        ("repro.server.server", "_SERVER_UIDS"),
        ("repro.experiments", "WorkloadCache"),
        ("repro.experiments", "WorkloadCell"),
        ("repro.experiments.harness", "WorkloadCache"),
        ("repro.experiments.harness", "WorkloadCell"),
    ):
        assert not hasattr(importlib.import_module(module), name), (module, name)
    for cls in (RemoteServer, ShardedRemoteServer):
        assert callable(cls.replica_stats)


def test_serving_queries_writes_nothing_to_a_server_build():
    # A plain build, a 2-shard x 2-replica fleet and every replica keep the
    # very same attribute objects through a brokered batch under a
    # recoverable fault plan and a session run: only the index's lazily
    # built page table (inside an index object) may appear.
    from repro.api import AdHocJoinSession
    from repro.core.join_types import JoinSpec
    from repro.datasets.synthetic import clustered
    from repro.network.faults import FaultPlan, replica_outages
    from repro.server import ShardedSpatialServer, SpatialServer
    from repro.service import QueryBroker

    r = clustered(n=300, clusters=3, seed=11, name="R")
    s = clustered(n=300, clusters=4, seed=12, std=0.04, name="S")
    plain = SpatialServer(r, name="R")
    fleet = ShardedSpatialServer(s, name="S", shards=2, scheme="str", replicas=2)
    units = (plain, fleet, *fleet.breaker_units())
    before = [dict(vars(unit)) for unit in units]
    plan = FaultPlan(
        seed=5, drop_rate=0.05, stall_rate=0.05, duplicate_rate=0.05,
        outages=replica_outages("S#0", 2, 0, 10**9, indices=[0]),
    )
    (outcome,) = QueryBroker(cache=False).run_batch([
        JoinQuery(
            r, s, JoinSpec.distance(0.03), algorithm="srjoin", buffer_size=96,
            servers=(plain, fleet), stack=repro.api.StackConfig(faults=plan),
        )
    ])
    assert outcome.status == "ok" and outcome.result.resilience["failovers"]
    session = AdHocJoinSession(r, s, buffer_size=96, servers=(plain, fleet), faults=plan)
    assert session.run(algorithm="upjoin", epsilon=0.03).num_pairs == outcome.result.num_pairs
    for unit, state in zip(units, before):
        assert vars(unit).keys() == state.keys(), unit.name
        assert all(vars(unit)[key] is value for key, value in state.items()), unit.name


def test_a_frontier_level_is_decided_as_a_table_never_window_by_window():
    # The per-window decision generators (and the request / statistics
    # objects they exchanged) moved to tests/oracles/frontier_generators.py
    # when a level became a table of columns; nothing in the package defines
    # or imports them again.  (``HBSJRequest`` / ``NLSJRequest`` may keep a
    # ``Rect`` per *leaf*.)
    moved = {"CountRequest", "QuadrantCounts", "WindowCosts", "quadrant_count_steps"}
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            offenders += [
                (str(path.relative_to(ROOT)), name)
                for name in names
                if name == "_window_steps" or name in moved
            ]
    assert not offenders
    assert not (PACKAGE / "core" / "stats.py").exists()
    # The oracle still holds them, for the suites that compare.
    from tests.oracles import frontier_generators

    assert moved <= set(frontier_generators.__all__)
    for generator in frontier_generators.GENERATORS.values():
        assert inspect.isgeneratorfunction(generator._window_steps)
    # One path: a table class per algorithm, no generator beside it.
    from repro.core.frontier import FrontierAlgorithm, LevelTable

    for name, cls in ALGORITHMS.items():
        if issubclass(cls, FrontierAlgorithm):
            assert issubclass(cls.table, LevelTable), name
            assert not inspect.isgeneratorfunction(cls.table.start), name


def test_every_flat_rtree_is_built_by_the_field_constructor():
    rng = np.random.default_rng(5)
    lo = rng.random((300, 2))
    mbrs = np.hstack([lo, lo + 0.01])
    built = FlatRTree.from_mbr_array(mbrs, max_entries=8)
    forest = FlatRTree.forest(
        [FlatRTree.from_mbr_array(mbrs[:100]), FlatRTree.from_mbr_array(mbrs[100:])]
    )
    flattened = pointer_rtree.flatten(pointer_rtree.RTree.from_mbr_array(mbrs, max_entries=8))
    # The constructor fields, ``size``, and in place of the entry block the
    # page table laid out from it with the block index that reads it back --
    # nothing else, and nothing added by a query.
    fields = set(inspect.signature(FlatRTree).parameters) - {"entry_cols"}
    fields |= {"size", "pages", "_blocks"}
    for index in (built, forest, flattened):
        assert set(vars(index)) == fields
        index.count_batch(np.array([[0.0, 0.0, 1.0, 1.0]]))
        assert set(vars(index)) == fields
    # The constructor is the one place that assigns them.
    for source in (inspect.getsource(flat), inspect.getsource(pointer_rtree.flatten)):
        assert "__new__" not in source


#: The stack knobs; the first four name a topology and nothing else.
STACK_KNOBS = ("shards_r", "shards_s", "shard_scheme", "replicas", "faults", "retry", "deadline_s")

#: Who may spell a topology knob: the config class, its two keyword-sugar
#: entry points, and what consumes ``replicas`` under that very name (the
#: fleet constructor and the fault-plan helper that names replica channels
#: take the count; a connection takes the replica servers themselves).
TOPOLOGY_KNOB_OWNERS = {
    "core/planner.py:StackConfig",
    "api.py:quick_join",
    "api.py:AdHocJoinSession.__init__",
    "server/sharded.py:ShardedSpatialServer.__init__",
    "network/faults.py:replica_outages",
    "server/remote.py:RemoteServer.__init__",
}


def _signatures(path: Path):
    """``(qualified name, names)`` per function (its parameters) and per
    class (its annotated fields) of one module."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                every = [*args.posonlyargs, *args.args, *args.kwonlyargs]
                yield prefix + node.name, {a.arg for a in every}
                yield from walk(node.body, prefix + node.name + ".")
            elif isinstance(node, ast.ClassDef):
                fields = {
                    n.target.id for n in node.body
                    if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
                }
                yield prefix + node.name, fields
                yield from walk(node.body, prefix + node.name + ".")

    module = str(path.relative_to(PACKAGE))
    for name, names in walk(ast.parse(path.read_text()).body, ""):
        yield f"{module}:{name}", names


def test_a_stack_is_described_in_one_place():
    from repro.core import planner

    spellers, both_ways, seen = set(), [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        for name, names in _signatures(path):
            seen += 1
            if names & set(STACK_KNOBS[:4]):
                spellers.add(name)
            if "stack" in names and names & set(STACK_KNOBS):
                both_ways.append(name)
    assert seen > 500
    assert spellers == TOPOLOGY_KNOB_OWNERS
    assert not both_ways
    assert len(dataclasses.fields(planner.StackConfig)) == 7
    assert tuple(f.name for f in dataclasses.fields(planner.StackConfig)) == STACK_KNOBS
    # Everything below ``repro.api`` takes the config, not the knobs ...
    for target in (planner.build_session_stack, planner.run_join, JoinQuery):
        parameters = set(inspect.signature(target).parameters)
        assert "stack" in parameters and not parameters & set(STACK_KNOBS), target
    # ... and the loose-knob helpers it absorbed are no second route.
    gone = {"validate_stack_knobs", "build_server", "build_resilience"}
    assert not gone & (set(planner.__all__) | set(vars(planner)))
    files = [p.name for p in PACKAGE.rglob("*.py") if "shards_r" in p.read_text()]
    assert sorted(files) == ["api.py", "planner.py"]


#: The classes of ``server/remote.py``: per-query resilience state, the
#: connection to one server or one shard's replica set (SemiJoin's relay
#: included), the fleet's scatter/merge connection and the session's pair.
REMOTE_CLASSES = {"ResilienceController", "RemoteServer", "ShardedRemoteServer", "ServerPair"}

#: Connection classes, past and present.
CONNECTION_CLASSES = {
    "RemoteServer", "IndexedRemoteServer", "ShardedRemoteServer", "ReplicatedRemoteServer",
}


def _branch_tests(tree: ast.AST):
    """The conditions of every ``if``, conditional expression, loop and
    comprehension filter under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.IfExp, ast.While)):
            yield node.test
        elif isinstance(node, ast.comprehension):
            yield from node.ifs


def test_one_connection_class_per_server_and_per_shard():
    # A plain server is a replica set of one: one class serves it and a
    # shard's replicas alike, so nothing picks a class by a group's size.
    remote = ast.parse((PACKAGE / "server" / "remote.py").read_text())
    assert {node.name for node in remote.body if isinstance(node, ast.ClassDef)} == REMOTE_CLASSES
    checks = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
                checks += [(str(path.relative_to(PACKAGE)), name) for name in named & CONNECTION_CLASSES]
    # ... and no caller dispatches on one.
    assert checks == []
    sharded = next(
        node for node in remote.body
        if isinstance(node, ast.ClassDef) and node.name == "ShardedRemoteServer"
    )
    init = next(node for node in sharded.body if getattr(node, "name", None) == "__init__")
    sized = {
        ast.unparse(call.args[0])
        for test in _branch_tests(init)
        for call in ast.walk(test)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "len"
    }
    assert sized == {"channels"}  # the one-channel-per-replica check, nothing per group


def test_indexed_is_a_parameter_of_the_session_alone():
    """Every connection to one server runs SemiJoin: ``indexed`` reaches
    nothing below the API, and only the session keeps the name."""
    owners = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text())):
            for node in ast.iter_child_nodes(scope):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                args = node.args
                if "indexed" in {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}:
                    where = f"{getattr(scope, 'name', '')}.{getattr(node, 'name', '<lambda>')}"
                    owners.append((str(path.relative_to(PACKAGE)), where))
    assert owners == [("api.py", "AdHocJoinSession.__init__")]


def test_the_broker_names_no_algorithm():
    """Every algorithm reaches the broker through ``run_group``: its source
    names no algorithm, by registry key or by class."""
    from repro.core.frontier import FrontierAlgorithm

    names = {*ALGORITHMS, *(cls.__name__ for cls in ALGORITHMS.values()), FrontierAlgorithm.__name__}
    source = (PACKAGE / "service" / "broker.py").read_text().lower()
    assert [name for name in sorted(names) if name.lower() in source] == []


def test_every_algorithm_is_a_level_table_with_one_group_driver():
    """One algorithm shape: every registry class is a ``FrontierAlgorithm``,
    whose ``run_group`` is the one group driver, and every trace row is a
    level-table row -- no eager recorder on the base class, no eager row
    class in ``repro.core.result``."""
    from repro.core import result
    from repro.core.base import MobileJoinAlgorithm
    from repro.core.frontier import FrontierAlgorithm

    others = [name for name, cls in ALGORITHMS.items() if not issubclass(cls, FrontierAlgorithm)]
    assert others == []
    drivers = [
        (str(path.relative_to(PACKAGE)), node.name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(getattr(item, "name", None) == "run_group" for item in node.body)
    ]
    assert drivers == [("core/frontier.py", "FrontierAlgorithm")]
    assert not hasattr(MobileJoinAlgorithm, "record")
    assert not hasattr(MobileJoinAlgorithm, "prune")
    assert [cls.__name__ for cls in result._Events.__subclasses__()] == ["LevelTrace", "Trace"]
    assert "TraceRows" not in vars(result)


def test_one_algorithm_class():
    """``FrontierAlgorithm`` is the one algorithm class: it has no base of
    its own, every registry class derives from it directly, the old base
    ``MobileJoinAlgorithm`` is only its alias (the frozen benchmark tracer
    patches that name), nothing under ``core/`` is an ABC, and the quadrant
    statistics live on the one table that allocates the columns they fill."""
    from repro.core import base
    from repro.core.frontier import FrontierAlgorithm

    assert FrontierAlgorithm.__bases__ == (object,)
    indirect = {
        name: [b.__name__ for b in cls.__bases__]
        for name, cls in ALGORITHMS.items()
        if cls.__bases__ != (FrontierAlgorithm,)
    }
    assert indirect == {}
    assert base.MobileJoinAlgorithm is FrontierAlgorithm
    core = sorted((PACKAGE / "core").rglob("*.py"))
    assert [
        str(path.relative_to(PACKAGE)) for path in core if "abc" in set(_imported_modules(path))
    ] == []
    owners = sorted(
        (name, node.name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for name in ("quad_windows", "quadrant_counts")
        if any(getattr(item, "name", None) == name for item in node.body)
    )
    assert owners == [("quad_windows", "CostedTable"), ("quadrant_counts", "CostedTable")]


def test_one_window_rule():
    """Every request window comes from ``JoinPredicate.request_windows``:
    outside its module no package module reads ``window_margin``, except as
    the margin of ``too_small_to_split`` (a cell too small to split is not
    a request).  The rule grows S's rows, not R's, and ``query_window`` is
    its one-``Rect`` case."""
    from repro.core.frontier import FrontierAlgorithm
    from repro.core.join_types import JoinSpec
    from repro.geometry.rect import Rect

    rule = PACKAGE / "geometry" / "predicates.py"
    reads = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == rule:
            continue
        tree = ast.parse(path.read_text())
        margins = {
            id(arg)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "too_small_to_split"
            for arg in node.args
        }
        reads += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "window_margin"
            and id(node) not in margins
        ]
    assert reads == []

    predicate = JoinSpec.distance(0.25).predicate()
    rows = np.array([[0.0, 1.0, 2.0, 3.0]])
    assert predicate.request_windows("R", rows) is rows
    assert predicate.request_windows("S", rows).tolist() == [[-0.25, 0.75, 2.25, 3.25]]
    algo = FrontierAlgorithm.__new__(FrontierAlgorithm)
    algo.predicate = predicate
    window = Rect(0.1, 0.2, 0.3, 0.4)
    assert algo.query_window("R", window) == window
    assert algo.query_window("S", window) == window.expanded(0.25)


def test_one_step_driver():
    """Every step is answered by ``steps.drive``: a standalone run drives a
    unit of one through it, the broker its wave's groups.  So the broker
    neither gathers nor books, a crew hears of a failed member only through
    ``Crew.leave`` (no second answer protocol), only ``drive`` gathers and
    books in the protocol module, and every booking names its shares."""
    from repro.core.frontier import Crew
    from repro.device import steps

    broker = ast.parse((PACKAGE / "service" / "broker.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(broker)
        if isinstance(node, ast.ImportFrom) and node.module == "repro.device.steps"
        for alias in node.names
    }
    called = {
        node.func.id
        for node in ast.walk(broker)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert "drive" in imported and "drive" in called
    assert not imported & {"gather", "book_step"}
    assert not hasattr(Crew, "relay")
    callers = {}
    for top in ast.parse((PACKAGE / "device" / "steps.py").read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("gather", "book_step"):
                callers.setdefault(node.func.id, set()).add(top.name)
    assert callers == {"gather": {"drive"}, "book_step": {"drive"}}
    shares = inspect.signature(steps.book_step).parameters["shares"]
    assert shares.default is inspect.Parameter.empty


@pytest.mark.parametrize("window", [None, (0.0, 0.0, 0.01, 0.01)], ids=["whole", "empty"])
def test_every_trace_row_is_a_level_table_row(window):
    """Each algorithm's trace, the ``start`` row and SemiJoin's relay and
    prune rows included, is level tables and nothing else."""
    from repro.api import AdHocJoinSession
    from repro.core.result import LevelTrace
    from repro.datasets.synthetic import clustered, uniform
    from repro.geometry.rect import Rect

    session = AdHocJoinSession(
        uniform(n=300, seed=1, name="R"),
        clustered(n=300, clusters=4, seed=7, std=0.06, name="S"),
        buffer_size=40,
    )
    for name in ALGORITHMS:
        result = session.run(algorithm=name, epsilon=0.03, window=window and Rect(*window))
        actions = [event.action for event in result.trace]
        assert actions[0] == "start" and len(actions) > 1, name
        assert {type(part) for part in result.trace._parts} == {LevelTrace}, name


def test_a_kept_answer_holds_no_object_per_pair():
    """Nothing under ``src/`` builds a tuple per pair: a kept 20k x 20k
    answer is a ``PairSet`` over one block, and what the package allocated
    for it (traced by file) is far below its pair count."""
    import gc
    import tracemalloc

    from repro.api import AdHocJoinSession
    from repro.datasets.synthetic import clustered
    from repro.index.pairs import PairSet

    session = AdHocJoinSession(
        clustered(n=20000, clusters=128, seed=1, name="R"),
        clustered(n=20000, clusters=128, seed=2, name="S"),
        buffer_size=100,
    )
    session.run(algorithm="upjoin", epsilon=0.005)  # builds and pages the indexes
    gc.collect()
    tracemalloc.start()
    try:
        result = session.run(algorithm="upjoin", epsilon=0.005)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    ours = snapshot.filter_traces([tracemalloc.Filter(True, str(PACKAGE / "*"))])
    allocations = sum(stat.count for stat in ours.statistics("filename"))
    pairs = result.pairs
    assert type(pairs) is PairSet and pairs.block.shape == (len(pairs), 2)
    assert len(pairs) > 20000 and allocations < len(pairs) // 20, allocations


#: The deleted wire-message classes and their one method: a message is its
#: kind and object count, priced by ``network/packets.py::payload_size``.
MESSAGE_BASES = {"Message", "QueryMessage", "ResponseMessage"}
MESSAGE_NAMES = {
    "payload_bytes", "ObjectPayload", "ScalarResponse", "BucketRangeQuery",
    "AggregateQuery", "WindowQuery", "CountQuery", "RangeQuery",
}
#: The wire-size constants of ``NetworkConfig``.
WIRE_SIZES = {"query_bytes", "answer_bytes", "object_bytes"}


def test_a_message_is_its_kind_and_its_object_count():
    """No message class, stand-in or size method is left: every send names a
    ``MessageKind`` and an object count, and one rule prices it.  A logged
    record's ``payload_bytes`` *field* (``TrafficRecord``) is data, not a
    definition, and stays."""
    from repro.network.messages import MessageKind

    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        where = str(path.relative_to(PACKAGE))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
                found += [(where, node.name) for _ in bases & (MESSAGE_BASES | MESSAGE_NAMES)]
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Name) and node.id != "payload_bytes":
                names = {node.id}  # a parameter of Eq. 1 may be called so
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                names = {node.func.attr}
            else:
                continue
            found += [(where, name) for name in names & (MESSAGE_BASES | MESSAGE_NAMES)]
    assert not found
    assert {kind.name: kind.value for kind in MessageKind} == {
        "WINDOW": "window", "COUNT": "count", "RANGE": "range",
        "BUCKET_RANGE": "bucket_range", "AGGREGATE": "aggregate",
        "OBJECTS": "objects", "SCALAR": "scalar",
    }
    # Past the config that holds them, the metering layers read the wire
    # sizes in one place: the payload rule.
    readers = {
        str(path.relative_to(PACKAGE))
        for layer in ("network", "server")
        for path in (PACKAGE / layer).rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in WIRE_SIZES
    }
    assert readers - {"network/config.py"} == {"network/packets.py"}


def test_the_benchmark_target_guard_is_unmodified_and_passes():
    # benchmarks/e2e/layers.py is frozen; so is the test that holds src/ to it.
    digest = hashlib.sha256(Path(test_benchmark_targets.__file__).read_bytes()).hexdigest()
    assert digest == "62403bb2c5433b95872ae5db6c6296747b73136ea13a281b93ec08642c1e490b"
    test_benchmark_targets.test_every_traced_target_resolves()
    test_benchmark_targets.test_sized_targets_take_the_batch_first()


#: Where a reference keeps package code alive besides the package itself.
CALLERS = (ROOT / "examples", ROOT / "benchmarks")

#: Definitions under ``src/repro/`` that nothing reaches and that stay on
#: purpose: ``"module:qualname"`` -> why.
UNREACHED_ON_PURPOSE: dict = {}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: The statements that define a function, class or method.
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.AST):
    """The ids of the docstring constants under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITIONS)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                yield id(first.value)


def _references(nodes, docstrings) -> set:
    """Names, attributes and identifiers inside non-docstring strings under
    ``nodes``; imports and ``__all__`` lists are not references."""
    found = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                found.update(_IDENTIFIER.findall(node.value))
        stack.extend(ast.iter_child_nodes(node))
    return found


def _own_code(node):
    """What runs as part of a definition itself: a function whole, a class
    without its methods and nested classes (definitions of their own)."""
    if isinstance(node, ast.ClassDef):
        return [
            *node.bases, *node.keywords, *node.decorator_list,
            *(n for n in node.body if not isinstance(n, _DEFINITIONS)),
        ]
    return [node]


def _definitions():
    """``"module:qualname"`` -> (name, references) for every function, class
    and method under ``src/repro/``, plus the references of the modules'
    own top-level code."""
    definitions, top_level = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text())
        docstrings = set(_docstrings(tree))

        def walk(body, prefix):
            for node in body:
                if isinstance(node, _DEFINITIONS):
                    key = f"{module}:{prefix}{node.name}"
                    definitions[key] = (node.name, _references(_own_code(node), docstrings))
                    if isinstance(node, ast.ClassDef):
                        walk(node.body, f"{prefix}{node.name}.")

        walk(tree.body, "")
        top_level |= _references(
            [n for n in tree.body if not isinstance(n, _DEFINITIONS)], docstrings
        )
    return definitions, top_level


def _key(obj):
    for unwrap in ("__func__", "fget", "func"):
        obj = getattr(obj, unwrap, obj)
    if inspect.isfunction(obj) or inspect.isclass(obj):
        return f"{obj.__module__}:{obj.__qualname__}"
    return None


def _roots(definitions):
    """Dunders, the public surface of ``repro.api``, the dataset generators
    the knob sweep covers and the ``repro.obs.dump`` command line."""
    from repro.obs import dump
    from tests import test_knob_sweep

    owners = [getattr(repro.api, name) for name in repro.api.__all__]
    owners += [
        owner for owner, _, _ in test_knob_sweep.TARGETS.values()
        if owner.__module__.startswith("repro.datasets.")
    ]
    owners.append(dump.main)
    roots = {
        key for key, (name, _) in definitions.items()
        if name.startswith("__") and name.endswith("__")
    }
    for owner in owners:
        roots.add(_key(owner))
        if inspect.isclass(owner):
            roots |= {
                _key(inspect.getattr_static(owner, name))
                for name in dir(owner) if not name.startswith("_")
            }
    return roots & set(definitions)


def unreached_definitions():
    """Every definition under ``src/repro/`` that no root reaches through
    package code, an example or a benchmark, walked to a fixpoint."""
    definitions, names = _definitions()
    for caller in CALLERS:
        for path in sorted(caller.rglob("*.py")):
            tree = ast.parse(path.read_text())
            names |= _references([tree], set(_docstrings(tree)))
    reached = set()
    frontier = _roots(definitions)
    while frontier:
        reached |= frontier
        for key in frontier:
            names |= definitions[key][1]
        frontier = {
            key for key, (name, _) in definitions.items()
            if key not in reached and name in names
        }
    return sorted(set(definitions) - reached)


def test_nothing_in_the_package_exists_only_for_tests():
    # Reference code belongs to the test that compares against it
    # (``tests/oracles/``); what no caller outside ``tests/`` reaches is gone.
    unreached = unreached_definitions()
    assert [key for key in unreached if key not in UNREACHED_ON_PURPOSE] == []
    # ... and every exception is still one.
    assert set(UNREACHED_ON_PURPOSE) <= set(unreached)


def test_setup_py_names_the_package_and_its_version():
    """``setup.py`` is the one metadata file: an offline ``pip install -e .``
    (the legacy ``setup.py develop`` path) registers ``repro`` at the
    package's own version, not an empty ``UNKNOWN`` 0.0.0 distribution."""
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out[-2:] == ["repro", repro.__version__]
    assert not (ROOT / "pyproject.toml").exists()
