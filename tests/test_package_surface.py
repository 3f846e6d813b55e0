"""The shipped package has one implementation per operation and no knob to pick another.

The reference twins (pointer R-tree, depth-first driver, scalar operators,
per-lead sweep, event-replay kernel, SemiJoin's scalar loop) live in
``tests/oracles/``; this guard keeps them, and the options that used to
select them, out of ``src/repro/``.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import inspect
from pathlib import Path

import numpy as np

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
#: itself (on, or raw predictions) and the planner's candidate pool.
REMOVED_OPTIONS = {
    "router", "index_fanout", "workers", "selector", "smoothing", "calibrate",
    "calibrated", "candidates",
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
    # ... nor does anything below the entry points.
    assert [
        (name, names & REMOVED_OPTIONS)
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, names in _signatures(path)
        if names & REMOVED_OPTIONS
    ] == []


def test_the_broker_has_one_entry_point_and_a_stateless_planner():
    # ``run_batch`` is the way in (``QueryService`` keeps its own queue and
    # calls it), and a plan is a pure function of its query: no learned
    # correction, no selector object, no per-query twin of one.
    from repro.core import costmodel
    from repro.service.broker import QueryBroker

    broker = QueryBroker()
    for name in ("submit", "execute", "selector", "calibrate", "_pending"):
        assert not hasattr(broker, name), name
    assert not hasattr(costmodel, "CalibratedCostModel")
    assert len(inspect.signature(QueryBroker).parameters) == 9


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
    # path only; the driver reads nothing of the pair but the builds behind
    # it, which it evaluates on.
    touching = {}
    for node in ast.parse((PACKAGE / "device" / "steps.py").read_text()).body:
        touched = list(_touches_servers(node))
        if touched:
            touching[node.name] = touched
    assert set(touching) == {"book_step", "run_steps"}
    assert touching["run_steps"] == ["servers.backing"]
    # A kind is evaluated by a build and booked by a connection: there is
    # no third way to answer it.
    from repro.device import steps

    assert steps.Kind._fields == ("name", "evaluate", "columns", "book")
    assert not hasattr(steps, "answer_step")
    # One operator body each: the generator; the list-returning forms drive it.
    from repro.device import hbsj, nlsj

    for module, steps, batch, single in (
        (hbsj, "hash_based_spatial_join_steps", "hash_based_spatial_join_batch",
         "hash_based_spatial_join"),
        (nlsj, "nested_loop_spatial_join_steps", "nested_loop_spatial_join_batch",
         "nested_loop_spatial_join"),
    ):
        assert inspect.isgeneratorfunction(getattr(module, steps))
        for name in (batch, single):
            function = getattr(module, name)
            assert not inspect.isgeneratorfunction(function)
            body = [n for n in ast.parse(inspect.getsource(function)).body[0].body
                    if not isinstance(n, ast.Expr)]  # the docstring
            assert len(body) == 1 and isinstance(body[0], ast.Return), name


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
    # What answering a COUNT / WINDOW / RANGE / bucket batch counts is one
    # ``ServerQueryStats.book_*`` method each.  No connection writes a
    # counter, and no server endpoint re-states a rule beside it.
    from repro.server.server import ServerQueryStats

    counters = {field.name for field in dataclasses.fields(ServerQueryStats)}
    remote = ast.parse((PACKAGE / "server" / "remote.py").read_text())
    assert list(_counter_writes(remote, counters)) == []
    step_kinds = counters - {"aggregate_queries"}
    offenders = [
        (path.name, *write)
        for path in sorted(PACKAGE.rglob("*.py"))
        for write in _counter_writes(ast.parse(path.read_text()), step_kinds)
    ]
    assert offenders == []
    assert {"book_count", "book_window", "book_range", "book_bucket"} <= set(vars(ServerQueryStats))
    # ... and the ABC of scalar methods nothing called or checked is gone.
    assert not (PACKAGE / "server" / "interface.py").exists()


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
    # The constructor fields, ``size`` and the page table derived from them
    # on the first batch query (PR 24) -- nothing else.
    fields = set(inspect.signature(FlatRTree).parameters) | {"size", "_pages"}
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
#: connection to one server or one shard's replica set, its SemiJoin
#: subclass, the fleet's scatter/merge connection and the session's pair.
REMOTE_CLASSES = {
    "ResilienceController", "RemoteServer", "IndexedRemoteServer", "ShardedRemoteServer",
    "ServerPair",
}

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
    # ... and no caller dispatches on one, but SemiJoin asking for the published index.
    assert checks == [("core/semijoin.py", "IndexedRemoteServer")]
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


def test_the_benchmark_target_guard_is_unmodified_and_passes():
    # benchmarks/e2e/layers.py is frozen; so is the test that holds src/ to it.
    digest = hashlib.sha256(Path(test_benchmark_targets.__file__).read_bytes()).hexdigest()
    assert digest == "62403bb2c5433b95872ae5db6c6296747b73136ea13a281b93ec08642c1e490b"
    test_benchmark_targets.test_every_traced_target_resolves()
    test_benchmark_targets.test_sized_targets_take_the_batch_first()
