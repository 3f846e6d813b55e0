"""The end-to-end benchmark's tracer still times the package it patches.

``benchmarks/e2e/layers.py`` wraps the ``TARGETS`` callables in place and
puts them back on exit.  Its own smoke test is not collected here, so this
runs one small join inside a ``LayerTracer`` -- the file is loaded by path
and nothing in it is edited -- and checks that the index and server layers
record spans and that every patch is undone.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"

#: The layers the servers' index build, its descents and the connections land in.
SERVER_LAYERS = {"index.build", "index.flatten", "index.query", "server", "server.remote"}


def _layers():
    spec = importlib.util.spec_from_file_location("_e2e_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_traced_join_records_the_server_layers_and_leaks_no_patch():
    from repro import api
    from repro.datasets.synthetic import clustered
    from repro.index import aggregate_rtree
    from repro.index.flat import FlatRTree

    r = clustered(n=300, clusters=3, seed=11, name="R")
    s = clustered(n=300, clusters=4, seed=12, std=0.04, name="S")
    with _layers().LayerTracer() as tracer:
        result = api.quick_join(r, s, epsilon=0.03)
    assert result.num_pairs > 0
    assert tracer.leaked() == []
    assert SERVER_LAYERS <= {span[2] for span in tracer.spans}
    # ``index.build`` patches the build under the index's old class name.
    assert aggregate_rtree.AggregateRTree is FlatRTree
