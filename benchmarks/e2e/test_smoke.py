"""Smoke test of the end-to-end benchmark.

Not part of the tier-1 suite (``pytest.ini`` collects ``tests/`` only); run
it explicitly with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  It drives the
real command in ``--smoke`` size twice, so it takes about a minute.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.e2e import run  # puts src/ on sys.path; keep it first
from benchmarks.e2e import harness, metrics
from benchmarks.e2e.layers import LayerTracer


@pytest.fixture(scope="module")
def smoke_runs():
    names = harness.spec_names()
    return [
        run.measure(names, seed=0, seconds=1.0, smoke=True, end_to_end=True, per_layer=True)
        for _ in range(2)
    ]


def test_every_named_metric_is_present_and_every_op_passes(smoke_runs):
    contract = metrics.contract()
    expected = {entry["name"] for entry in contract["end_to_end"] + contract["per_layer"]}
    assert sorted(smoke_runs[0]) == sorted(entry["name"] for entry in contract["workloads"])
    for name, result in smoke_runs[0].items():
        assert set(result["metrics"]) == expected, name
        assert result["failed"] == 0, result["errors"]
        assert result["attempted"] > 0


def test_exact_metrics_repeat_bit_for_bit(smoke_runs):
    first, second = smoke_runs
    for name in first:
        for metric in metrics.EXACT:
            a = first[name]["metrics"][metric]["value"]
            b = second[name]["metrics"][metric]["value"]
            assert a == b, (name, metric, a, b)


def test_self_time_covers_the_op(smoke_runs):
    for name, result in smoke_runs[0].items():
        coverage = result["metrics"]["bench.self_time_coverage"]["value"]
        assert coverage >= 0.95, (name, coverage)


def test_tracer_puts_every_original_back():
    with LayerTracer() as tracer:
        assert tracer.patches
        assert all(
            vars(owner)[attr] is wrapped for owner, attr, _, wrapped in tracer.patches
        )
    assert all(
        vars(owner)[attr] is original for owner, attr, original, _ in tracer.patches
    )


def test_unknown_workload_key_is_a_hard_error(tmp_path, monkeypatch):
    spec = json.loads((harness.SPEC_DIR / "cold_join.json").read_text())
    spec["data"]["skew"] = 2.0
    (tmp_path / "cold_join.json").write_text(json.dumps(spec))
    monkeypatch.setattr(harness, "SPEC_DIR", tmp_path)
    with pytest.raises(ValueError, match="unknown keys"):
        harness.load_spec("cold_join")
