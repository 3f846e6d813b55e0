"""The observability layer: deterministic, and invisible when off.

Three families of guarantees:

* **Trace core** -- span ids are pure functions of (parent, name, labels),
  the fingerprint covers exactly the deterministic fields, the Chrome
  trace-event export is structurally valid, and the no-op tracer really
  does nothing.
* **Read-only hooks** -- every algorithm, standalone and brokered,
  produces bit-identical results with tracing/metrics attached or not;
  the same workload fingerprints identically across repeats and worker
  counts.
* **Satellites** -- the broker's result-cache byte budget default, the
  LRU bound on cached server builds (and the breaker-state contract on
  eviction), the cache's metric counters, and the ``repro.obs.dump`` CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.core.join_types import JoinSpec
from repro.core.planner import ALGORITHMS, run_join
from repro.datasets.synthetic import clustered
from repro.obs import (
    NULL_TRACER,
    ChannelMetricsObserver,
    MetricsRegistry,
    NullSpan,
    NullTracer,
    Tracer,
    span_tree,
    to_chrome_trace,
    trace_fingerprint,
)
from repro.obs.dump import main as dump_main
from repro.service import broker as service_broker
from repro.service.broker import DEFAULT_CACHE_MAX_BYTES, QueryBroker
from repro.service.cache import ResultCache, dataset_token
from repro.service.query import JoinQuery

pytestmark = pytest.mark.obs

BUFFER = 96


def _datasets():
    return (
        clustered(n=110, clusters=3, seed=11, name="R"),
        clustered(n=110, clusters=4, seed=12, std=0.04, name="S"),
    )


def _trace_tuples(result):
    return [
        (e.depth, e.action, e.detail, e.count_r, e.count_s, e.window.as_tuple())
        for e in result.trace
    ]


def _assert_identical(result, reference):
    assert result.sorted_pairs() == reference.sorted_pairs()
    assert result.objects == reference.objects
    assert result.total_bytes == reference.total_bytes
    assert result.bytes_r == reference.bytes_r
    assert result.bytes_s == reference.bytes_s
    assert result.total_cost == reference.total_cost
    assert result.estimated_time_s == reference.estimated_time_s
    assert result.operator_counts == reference.operator_counts
    assert result.server_stats == reference.server_stats
    assert result.channel_stats == reference.channel_stats
    assert _trace_tuples(result) == _trace_tuples(reference)


# --------------------------------------------------------------------- #
# trace core
# --------------------------------------------------------------------- #


class TestTraceCore:
    def test_span_ids_deterministic(self):
        def build(tracer):
            root = tracer.span("join", algorithm="srjoin", window="w")
            round0 = root.child("round", round=0, servers="R,S")
            round0.close(sim=0.25)
            leaf = root.child("leaves", batch=0, hbsj=2, nlsj=0)
            leaf.close()
            root.close(sim=1.0)
            return root, round0, leaf

        a = build(Tracer())
        b = build(Tracer())
        assert [s.span_id for s in a] == [s.span_id for s in b]
        assert len({s.span_id for s in a}) == 3

    def test_labels_change_identity(self):
        t = Tracer()
        s0 = t.span("round", round=0)
        s1 = t.span("round", round=1)
        assert s0.span_id != s1.span_id

    def test_duplicate_siblings_get_distinct_ids(self):
        t = Tracer()
        s0 = t.span("round", round=0)
        s1 = t.span("round", round=0)
        assert s0.span_id != s1.span_id
        # ...but deterministically: a fresh tracer repeats both ids.
        u = Tracer()
        assert [u.span("round", round=0).span_id for _ in range(2)] == [
            s0.span_id,
            s1.span_id,
        ]

    def test_fingerprint_covers_annotations_and_events_not_wall(self):
        def build(tracer, annotate):
            root = tracer.span("join", algorithm="srjoin")
            root.event("retry", sim=0.5, server="R", attempt=1)
            if annotate:
                root.annotate(status="ok")
            root.close(sim=1.0)

        t1, t2, t3 = Tracer(), Tracer(), Tracer()
        build(t1, True)
        build(t2, True)
        build(t3, False)
        assert t1.fingerprint() == t2.fingerprint()  # wall clocks excluded
        assert t1.fingerprint() != t3.fingerprint()  # annotations included
        # Annotations do not change identity, only the fingerprint.
        assert t1.spans()[0].span_id == t3.spans()[0].span_id

    def test_fingerprint_order_independent(self):
        t = Tracer()
        root = t.span("join")
        child = root.child("round", round=0)
        child.close()
        root.close()
        spans = t.spans()
        assert trace_fingerprint(spans) == trace_fingerprint(spans[::-1])

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert NullTracer.enabled is False
        span = NULL_TRACER.span("join", algorithm="x")
        assert isinstance(span, NullSpan)
        assert span.child("round", round=0) is span
        span.event("retry", server="R")
        span.annotate(status="ok")
        span.close(sim=1.0)
        with span:
            pass
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.fingerprint() == trace_fingerprint([])
        assert NULL_TRACER.to_chrome() == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }

    def test_chrome_export_structure(self):
        t = Tracer()
        root = t.span("join", algorithm="srjoin")
        root.event("cache-hit", ticket=3)
        child = root.child("round", round=0)
        child.close(sim=0.5)
        root.close(sim=1.0)
        doc = t.to_chrome()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        json.dumps(doc)  # serialisable
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(complete) == 2 and len(instants) == 1
        for event in complete:
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["cat"] == "repro"
            assert "span_id" in event["args"]
        (instant,) = instants
        assert instant["s"] == "t"
        assert instant["args"]["span_id"] == root.span_id
        by_id = {e["args"]["span_id"]: e for e in complete}
        assert by_id[child.span_id]["args"]["parent_id"] == root.span_id
        assert by_id[child.span_id]["args"]["sim_end_s"] == 0.5

    def test_span_tree_shape(self):
        t = Tracer()
        root = t.span("join", algorithm="srjoin")
        r0 = root.child("round", round=0)
        r0.close()
        r1 = root.child("round", round=1)
        r1.close()
        root.close(sim=2.0)
        (tree_root,) = span_tree(t.spans())
        assert tree_root["name"] == "join"
        assert tree_root["sim_end"] == 2.0
        assert {c["labels"]["round"] for c in tree_root["children"]} == {"0", "1"}
        # Children sort by span id -> two identical builds compare equal.
        u = Tracer()
        root2 = u.span("join", algorithm="srjoin")
        ra = root2.child("round", round=0)
        ra.close()
        rb = root2.child("round", round=1)
        rb.close()
        root2.close(sim=2.0)
        assert span_tree(u.spans()) == span_tree(t.spans())


# --------------------------------------------------------------------- #
# metrics core
# --------------------------------------------------------------------- #


class TestMetricsCore:
    def test_counter(self):
        m = MetricsRegistry()
        c = m.counter("repro_test_total", "help")
        c.inc(server="R")
        c.inc(2, server="R")
        c.inc(server="S")
        assert c.value(server="R") == 3
        assert c.value(server="S") == 1
        assert c.value(server="missing") == 0
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        m = MetricsRegistry()
        g = m.gauge("repro_test_bytes")
        g.set(10)
        g.add(5)
        assert g.value() == 15
        g.set(3)
        assert g.value() == 3

    def test_histogram_buckets(self):
        m = MetricsRegistry()
        h = m.histogram("repro_test_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.1, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count() == 5
        assert h.sum() == pytest.approx(55.65)
        text = m.render_prometheus()
        # le is inclusive: 0.1 falls in the 0.1 bucket.
        assert 'repro_test_seconds_bucket{le="0.1"} 2' in text
        assert 'repro_test_seconds_bucket{le="1"} 3' in text
        assert 'repro_test_seconds_bucket{le="10"} 4' in text
        assert 'repro_test_seconds_bucket{le="+Inf"} 5' in text
        assert "repro_test_seconds_count 5" in text

    def test_prometheus_text_format(self):
        m = MetricsRegistry()
        c = m.counter("repro_hits_total", "Cache hits")
        c.inc(4, kind="warm")
        text = m.render_prometheus()
        assert "# HELP repro_hits_total Cache hits" in text
        assert "# TYPE repro_hits_total counter" in text
        assert 'repro_hits_total{kind="warm"} 4' in text

    def test_snapshot_json_round_trip(self):
        m = MetricsRegistry()
        m.counter("repro_a_total").inc(2, server="R")
        m.gauge("repro_b").set(1.5)
        m.histogram("repro_c", buckets=(1.0,)).observe(0.5)
        snap = json.loads(json.dumps(m.snapshot()))
        assert snap["repro_a_total"]["type"] == "counter"
        assert snap["repro_a_total"]["series"][0] == {
            "labels": {"server": "R"},
            "value": 2,
        }
        assert snap["repro_b"]["series"][0]["value"] == 1.5
        hist = snap["repro_c"]["series"][0]
        assert hist["buckets"] == {"1": 1, "+Inf": 1}
        assert hist["count"] == 1

    def test_registration_idempotent_and_kind_checked(self):
        m = MetricsRegistry()
        c1 = m.counter("repro_x_total")
        c2 = m.counter("repro_x_total")
        assert c1 is c2
        with pytest.raises(ValueError):
            m.gauge("repro_x_total")

    def test_reset_keeps_instruments(self):
        m = MetricsRegistry()
        c = m.counter("repro_y_total")
        c.inc(5)
        m.reset()
        assert c.value() == 0
        assert m.get("repro_y_total") is c

    def test_channel_observer(self):
        m = MetricsRegistry()
        obs = ChannelMetricsObserver(m)
        obs.on_traffic("R", "primary", "down", wire=100, packets=2, messages=1)
        obs.on_traffic("R", "primary", "down", wire=50, packets=1, messages=1)
        assert m.get("repro_channel_bytes_total").value(
            server="R", lane="primary", direction="down"
        ) == 150
        assert m.get("repro_channel_messages_total").value(
            server="R", lane="primary", direction="down"
        ) == 2


# --------------------------------------------------------------------- #
# read-only hooks: bit-identity and determinism
# --------------------------------------------------------------------- #


class TestNoOpBitIdentity:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_standalone_identical_with_hooks(self, algorithm):
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        plain = run_join(r, s, spec, algorithm=algorithm, buffer_size=BUFFER)
        tracer, metrics = Tracer(), MetricsRegistry()
        traced = run_join(
            r, s, spec, algorithm=algorithm, buffer_size=BUFFER,
            tracer=tracer, metrics=metrics,
        )
        _assert_identical(traced, plain)
        assert tracer.spans(), "tracer attached but no spans recorded"
        # The channel observer saw exactly the metered traffic.
        bytes_metric = metrics.get("repro_channel_bytes_total")
        observed = sum(
            value for _key, value in bytes_metric._series.items()
        )
        assert observed == plain.total_bytes

    def test_brokered_identical_with_hooks(self):
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)

        def queries():
            return [
                JoinQuery(r, s, spec, algorithm=name, buffer_size=BUFFER)
                for name in sorted(ALGORITHMS)
            ]

        plain = QueryBroker().run_batch(queries())
        tracer, metrics = Tracer(), MetricsRegistry()
        traced = QueryBroker(tracer=tracer, metrics=metrics).run_batch(queries())
        assert [o.status for o in traced] == [o.status for o in plain]
        for a, b in zip(traced, plain):
            _assert_identical(a.result, b.result)
        assert tracer.spans()

    def test_fingerprint_stable_across_repeats(self):
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        spec2 = JoinSpec.distance(0.05)

        def run():
            tracer = Tracer()
            queries = [
                JoinQuery(r, s, spec, buffer_size=BUFFER),
                JoinQuery(r, s, spec, buffer_size=BUFFER, algorithm="upjoin"),
                JoinQuery(r, s, spec2, buffer_size=BUFFER),
                JoinQuery(r, s, spec, buffer_size=BUFFER),
            ]
            QueryBroker(tracer=tracer).run_batch(queries)
            return tracer

        base, repeat = run(), run()
        assert repeat.fingerprint() == base.fingerprint()
        assert repeat.span_tree() == base.span_tree()

    def test_standalone_trace_fingerprint_repeatable(self):
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        fps = []
        for _ in range(2):
            tracer = Tracer()
            run_join(r, s, spec, algorithm="mobijoin", buffer_size=BUFFER,
                     tracer=tracer)
            fps.append(tracer.fingerprint())
        assert fps[0] == fps[1]

    def test_real_run_chrome_export_valid(self):
        r, s = _datasets()
        tracer = Tracer()
        run_join(r, s, JoinSpec.distance(0.03), algorithm="srjoin",
                 buffer_size=BUFFER, tracer=tracer)
        doc = tracer.to_chrome()
        json.dumps(doc)
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"join", "round", "merge"} <= names
        span_ids = {
            e["args"]["span_id"]
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        for event in doc["traceEvents"]:
            parent = event["args"].get("parent_id")
            if event["ph"] == "X" and parent is not None:
                assert parent in span_ids

    def test_a_batch_is_one_root_execute_span_over_its_waves(self, monkeypatch):
        """``batch_join`` with a tracer: the batch's ``execute`` span is the
        one root, it parents every ``wave``, and each wave parents the
        ``query`` spans it ran."""
        from repro.api import batch_join

        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        tracer = Tracer()
        monkeypatch.setattr(service_broker, "MAX_WAVE", 2)
        outcomes = batch_join(
            [JoinQuery(r, s, spec, algorithm=name, buffer_size=BUFFER)
             for name in ("upjoin", "srjoin", "mobijoin")],
            cache=False, tracer=tracer,
        )
        assert all(o.status == "ok" for o in outcomes)
        spans = tracer.spans()
        by_id = {span.span_id: span for span in spans}
        (root,) = [span for span in spans if span.parent_id is None]
        assert root.name == "execute"
        assert dict(root.labels) == {"batch": "1", "queries": "3"}
        waves = [span for span in spans if span.name == "wave"]
        assert len(waves) == 2
        assert all(wave.parent_id == root.span_id for wave in waves)
        queries = [span for span in spans if span.name == "query"]
        assert sorted(dict(q.labels)["ticket"] for q in queries) == ["0", "1", "2"]
        assert sorted(len([q for q in queries if q.parent_id == w.span_id]) for w in waves) == [1, 2]
        joins = [span for span in spans if span.name == "join"]
        assert len(joins) == 3
        assert all(by_id[join.parent_id].name == "query" for join in joins)


# --------------------------------------------------------------------- #
# satellites: cache budget, server-build LRU, cache metrics, dump CLI
# --------------------------------------------------------------------- #


class TestSatellites:
    def test_broker_cache_byte_budget_default(self, monkeypatch):
        broker = QueryBroker()
        assert DEFAULT_CACHE_MAX_BYTES == 64 * 1024 * 1024
        assert broker.cache.max_bytes == DEFAULT_CACHE_MAX_BYTES
        monkeypatch.setattr(service_broker, "DEFAULT_CACHE_MAX_BYTES", None)
        assert QueryBroker().cache.max_bytes is None
        monkeypatch.setattr(service_broker, "DEFAULT_CACHE_MAX_BYTES", 1024)
        assert QueryBroker().cache.max_bytes == 1024

    def test_server_build_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(service_broker, "MAX_SERVER_BUILDS", 2)
        broker = QueryBroker()
        spec = JoinSpec.distance(0.03)
        pairs = [
            (
                clustered(n=60, clusters=2, seed=100 + i, name="R"),
                clustered(n=60, clusters=2, seed=200 + i, name="S"),
            )
            for i in range(3)
        ]
        for r, s in pairs:
            broker.run_batch([JoinQuery(r, s, spec, buffer_size=BUFFER)])
        assert len(broker._servers) == 2
        # The evicted build's breaker state went with it; survivors keep
        # theirs available for lazy re-creation.
        live_units = {
            unit
            for pair in broker._servers.values()
            for base in pair
            for unit in base.breaker_units()
        }
        assert set(broker._breakers) <= live_units

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_the_server_build_cap_is_read_when_a_build_is_cached(self, cap, monkeypatch):
        """Only the ``MAX_SERVER_BUILDS`` newest builds stay, oldest out first."""
        monkeypatch.setattr(service_broker, "MAX_SERVER_BUILDS", cap)
        broker = QueryBroker()
        spec = JoinSpec.distance(0.03)
        pairs = [
            (
                clustered(n=60, clusters=2, seed=100 + i, name="R"),
                clustered(n=60, clusters=2, seed=200 + i, name="S"),
            )
            for i in range(4)
        ]
        for r, s in pairs:
            broker.run_batch([JoinQuery(r, s, spec, buffer_size=BUFFER)])
        assert [key[:2] for key in broker._servers] == [
            (dataset_token(r), dataset_token(s)) for r, s in pairs[-cap:]
        ]

    def test_result_cache_metrics(self):
        r, s = _datasets()
        results = [
            run_join(r, s, JoinSpec.distance(eps), algorithm="srjoin",
                     buffer_size=BUFFER)
            for eps in (0.02, 0.03, 0.04)
        ]
        metrics = MetricsRegistry()
        cache = ResultCache(max_entries=2, metrics=metrics)
        assert cache.get("a") is None
        cache.put("a", results[0])
        assert cache.get("a") is not None
        cache.put("b", results[1])
        cache.put("c", results[2])  # max_entries=2 -> evicts "a"
        assert metrics.get("repro_cache_misses_total").value() == cache.misses == 1
        assert metrics.get("repro_cache_hits_total").value() == cache.hits == 1
        assert metrics.get("repro_cache_evictions_total").value() == cache.evictions == 1
        assert metrics.get("repro_cache_bytes").value() == cache.bytes_stored > 0

    def test_dump_cli(self, tmp_path, capsys):
        tracer, metrics = Tracer(), MetricsRegistry()
        root = tracer.span("join", algorithm="srjoin")
        root.event("retry", server="R", attempt=1)
        root.close(sim=1.0)
        metrics.counter("repro_demo_total", "demo").inc(3, server="R")
        metrics.histogram("repro_demo_seconds", buckets=(1.0,)).observe(0.5)
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        trace_path.write_text(json.dumps(tracer.to_chrome()))
        metrics_path.write_text(json.dumps(metrics.snapshot()))
        assert dump_main([str(trace_path), str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "join" in out and "! retry" in out
        assert "repro_demo_total" in out and "count=1" in out

    def test_dump_cli_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"neither": true}')
        assert dump_main([str(bad)]) == 1
        assert "not a Chrome trace" in capsys.readouterr().err
