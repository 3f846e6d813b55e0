"""Broker-executed queries == standalone runs, bit for bit.

The query service may change *how* work is scheduled -- plan selection,
admission waves, result-cache deduplication, cross-query COUNT coalescing
-- but never what any single query measures.  This suite pins every query
executed through :class:`~repro.service.broker.QueryBroker` against the
same query run standalone through :func:`~repro.core.planner.run_join`:

* the result pair set (and semi-join object list),
* the byte totals (overall and per server), the tariff-weighted cost and
  the estimated response time,
* the operator counters, the per-server query statistics and the channel
  ledgers down to the per-message traffic-record sequence
  (:meth:`~repro.network.channel.Channel.ledger_fingerprint` -- coalescing
  may share the physical evaluation, never the attributed ledger),
* the full decision trace,

for every algorithm in ``planner.ALGORITHMS``, under multiple submission
orders, and with the result cache cold and warm.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core import planner
from repro.core.base import AlgorithmParameters
from repro.core.join_types import JoinSpec
from repro.core.planner import (
    ALGORITHMS,
    SELECTABLE_ALGORITHMS,
    StackConfig,
    run_join,
    select_algorithm,
)
from repro.datasets.dataset import SpatialDataset
from repro.datasets.synthetic import clustered, uniform
from repro.errors import InvalidInput
from repro.geometry.rect import Rect
from repro.network.config import NetworkConfig
from repro.service import JoinQuery, QueryBroker
from repro.service import broker as service_broker
from repro.service.cache import query_key

from tests.oracles.recursive_driver import depth_first_algorithms

BUFFER = 96


def _datasets():
    return (
        clustered(n=110, clusters=3, seed=11, name="R"),
        clustered(n=110, clusters=4, seed=12, std=0.04, name="S"),
    )


def _other_datasets():
    return (
        uniform(n=90, seed=21, name="R"),
        clustered(n=100, clusters=2, seed=22, name="S"),
    )


def _trace_tuples(result) -> List[tuple]:
    return [
        (e.depth, e.action, e.detail, e.count_r, e.count_s, e.window.as_tuple())
        for e in result.trace
    ]


def _standalone(query: JoinQuery, algorithm: str):
    return run_join(
        query.dataset_r,
        query.dataset_s,
        query.spec,
        algorithm=algorithm,
        buffer_size=query.buffer_size,
        config=query.config,
        params=query.params,
        window=query.window,
    )


def _raise_value_error(*args, **kwargs):
    """Stands in for an algorithm bug: an untyped error in the middle of a wave."""
    raise ValueError("injected mid-wave failure")


def _mixed_planning_batch() -> List[JoinQuery]:
    """Queries spread over six planning groups, then one that cannot plan."""
    r, s = _datasets()
    spec = JoinSpec.distance(0.03)
    empty = SpatialDataset(np.empty((0, 4)), name="S")
    tariffed = NetworkConfig(mtu=576, tariff_r=2.0, tariff_s=0.5)
    return [
        JoinQuery(r, s, spec, buffer_size=50),
        JoinQuery(r, s, spec, buffer_size=800),
        JoinQuery(r, s, spec, algorithm="semijoin", buffer_size=BUFFER),
        JoinQuery(r, s, spec, algorithm="upjoin", buffer_size=800),
        JoinQuery(r, s, JoinSpec.intersection(), buffer_size=BUFFER),
        JoinQuery(r, s, JoinSpec.distance(0.01), config=tariffed, buffer_size=BUFFER),
        JoinQuery(
            r, s, spec, params=AlgorithmParameters(bucket_queries=True), buffer_size=BUFFER
        ),
        JoinQuery(r, s, spec, params=AlgorithmParameters(grid_k=3), buffer_size=50),
        JoinQuery(
            r,
            empty,
            JoinSpec.distance(0.002),
            buffer_size=BUFFER,
            window=Rect(0.0, 0.0, 1e-160, 1e-155),
        ),
        JoinQuery(empty.rename("E"), empty, spec, buffer_size=BUFFER),
    ]


def _assert_identical(result, reference) -> None:
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
    assert result.buffer_high_water_mark == reference.buffer_high_water_mark
    assert _trace_tuples(result) == _trace_tuples(reference)


class TestBrokerEqualsStandalone:
    """One batch holding every algorithm; each outcome == its standalone run."""

    @pytest.mark.parametrize("order_seed", [None, 0, 1])
    def test_all_algorithms_any_submission_order(self, order_seed):
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        queries = [
            JoinQuery(r, s, spec, algorithm=name, buffer_size=BUFFER)
            for name in sorted(ALGORITHMS)
        ]
        if order_seed is not None:
            random.Random(order_seed).shuffle(queries)
        broker = QueryBroker()
        outcomes = broker.run_batch(queries)
        assert [o.query for o in outcomes] == queries
        for outcome in outcomes:
            reference = _standalone(outcome.query, outcome.algorithm)
            _assert_identical(outcome.result, reference)
        # Coalescing really happened: the frontier queries of the batch
        # shared server-round exchanges.
        assert 0 < broker.stats.coalesced_exchanges < broker.stats.standalone_exchanges

    def test_ledger_fingerprints_match_standalone(self):
        """The attributed per-message traffic is identical record for record.

        The broker captures each execution's channel ledger fingerprints
        (`Channel.ledger_fingerprint`); a standalone stack over the same
        query must produce byte-for-byte the same record sequences --
        coalescing shares evaluations, never the attributed ledger.
        """
        from repro.core.planner import build_algorithm, build_session_stack

        r, s = _datasets()
        spec = JoinSpec.intersection()
        queries = [
            JoinQuery(r, s, spec, algorithm=name, buffer_size=BUFFER)
            for name in ("upjoin", "srjoin", "mobijoin", "naive")
        ]
        outcomes = QueryBroker().run_batch(queries)
        for outcome in outcomes:
            assert outcome.ledger_fingerprints is not None
            _, _, device = build_session_stack(
                outcome.query.dataset_r,
                outcome.query.dataset_s,
                buffer_size=outcome.query.buffer_size,
            )
            algo = build_algorithm(outcome.algorithm, device, outcome.query.spec)
            algo.run(outcome.query.resolved_window())
            assert outcome.ledger_fingerprints == (
                device.servers.r.channel.ledger_fingerprint(),
                device.servers.s.channel.ledger_fingerprint(),
            )
        # Cache-served outcomes carry no execution ledger of their own.
        warm = QueryBroker()
        twin = JoinQuery(r, s, spec, algorithm="upjoin", buffer_size=BUFFER)
        repeat = warm.run_batch([twin, twin])
        assert repeat[0].ledger_fingerprints is not None
        assert repeat[1].ledger_fingerprints is None

    def test_mixed_dataset_pairs_specs_and_buffers(self, monkeypatch):
        r1, s1 = _datasets()
        r2, s2 = _other_datasets()
        queries = [
            JoinQuery(r1, s1, JoinSpec.distance(0.03), algorithm="upjoin", buffer_size=64),
            JoinQuery(r2, s2, JoinSpec.intersection(), algorithm="srjoin", buffer_size=128),
            JoinQuery(r1, s1, JoinSpec.iceberg(0.05, 2), algorithm="mobijoin", buffer_size=96),
            JoinQuery(r2, s2, JoinSpec.distance(0.02), algorithm="mobijoin", buffer_size=96),
            JoinQuery(r1, s1, JoinSpec.distance(0.03), algorithm="naive", buffer_size=64),
        ]
        monkeypatch.setattr(service_broker, "MAX_WAVE", 8)
        outcomes = QueryBroker().run_batch(queries)
        for outcome in outcomes:
            _assert_identical(
                outcome.result, _standalone(outcome.query, outcome.algorithm)
            )

    @pytest.mark.parametrize("max_wave", [1, 2, 16])
    def test_admission_width_never_changes_results(self, max_wave, monkeypatch):
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        queries = [
            JoinQuery(r, s, spec, algorithm=name, buffer_size=BUFFER)
            for name in sorted(ALGORITHMS)
        ]
        monkeypatch.setattr(service_broker, "MAX_WAVE", max_wave)
        broker = QueryBroker(cache=False)
        outcomes = broker.run_batch(queries)
        expected_waves = -(-len(queries) // max_wave)
        assert broker.stats.waves == expected_waves
        for outcome in outcomes:
            _assert_identical(
                outcome.result, _standalone(outcome.query, outcome.algorithm)
            )

    @pytest.mark.parametrize("algorithm", ["upjoin", "srjoin", "mobijoin"])
    def test_broker_equals_the_depth_first_oracle(self, algorithm):
        """The broker's coalesced waves against a reference that shares neither
        the driver nor the operators (``tests/oracles/recursive_driver.py``):
        everything but the global interleaving of the trace, which a
        depth-first run nests and the engine emits level by level."""
        r, s = _datasets()
        query = JoinQuery(
            r, s, JoinSpec.distance(0.03), algorithm=algorithm, buffer_size=BUFFER
        )
        (outcome,) = QueryBroker().run_batch([query])
        with depth_first_algorithms():
            reference = _standalone(query, algorithm)
        result = outcome.result
        assert result.sorted_pairs() == reference.sorted_pairs()
        assert result.total_bytes == reference.total_bytes
        assert (result.bytes_r, result.bytes_s) == (reference.bytes_r, reference.bytes_s)
        assert result.total_cost == reference.total_cost
        assert result.operator_counts == reference.operator_counts
        assert result.server_stats == reference.server_stats
        assert result.channel_stats == reference.channel_stats
        assert result.buffer_high_water_mark == reference.buffer_high_water_mark
        by_depth = lambda res: sorted(_trace_tuples(res), key=lambda event: event[0])
        assert by_depth(result) == by_depth(reference)


class TestResultCache:
    def test_cold_then_warm_cache_bit_identical(self):
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        queries = [
            JoinQuery(r, s, spec, algorithm=name, buffer_size=BUFFER)
            for name in sorted(ALGORITHMS)
        ]
        broker = QueryBroker()
        cold = broker.run_batch(queries)
        warm = broker.run_batch(list(queries))
        assert all(not o.cached for o in cold)
        assert all(o.cached for o in warm)
        assert broker.stats.cache_hits == len(queries)
        for c, w in zip(cold, warm):
            assert w.result is c.result  # served, not re-executed
            _assert_identical(w.result, _standalone(w.query, w.algorithm))

    def test_in_batch_deduplication_executes_once(self):
        r, s = _datasets()
        query = JoinQuery(r, s, JoinSpec.distance(0.03), algorithm="srjoin", buffer_size=BUFFER)
        twin = JoinQuery(r, s, JoinSpec.distance(0.03), algorithm="srjoin", buffer_size=BUFFER)
        broker = QueryBroker()
        outcomes = broker.run_batch([query, twin, query])
        assert broker.stats.queries_executed == 1
        assert [o.cached for o in outcomes] == [False, True, True]
        assert outcomes[1].result is outcomes[0].result
        _assert_identical(outcomes[0].result, _standalone(query, "srjoin"))

    def test_content_equal_datasets_share_entries(self):
        """Dataset identity is content-derived, not object identity."""
        r1, s1 = _datasets()
        r2, s2 = _datasets()  # fresh objects, same rows
        assert r1 is not r2
        spec = JoinSpec.distance(0.03)
        broker = QueryBroker()
        first = broker.run_batch([JoinQuery(r1, s1, spec, algorithm="upjoin", buffer_size=BUFFER)])
        second = broker.run_batch([JoinQuery(r2, s2, spec, algorithm="upjoin", buffer_size=BUFFER)])
        assert not first[0].cached
        assert second[0].cached
        assert second[0].result is first[0].result

    def test_disabled_cache_disables_dedup_too(self):
        """cache=False => one execution and one result object per query."""
        r, s = _datasets()
        query = JoinQuery(r, s, JoinSpec.distance(0.03), algorithm="srjoin", buffer_size=BUFFER)
        twin = JoinQuery(r, s, JoinSpec.distance(0.03), algorithm="srjoin", buffer_size=BUFFER)
        broker = QueryBroker(cache=False)
        outcomes = broker.run_batch([query, twin])
        assert broker.stats.queries_executed == 2
        assert not outcomes[0].cached and not outcomes[1].cached
        assert outcomes[0].result is not outcomes[1].result
        assert outcomes[0].result.sorted_pairs() == outcomes[1].result.sorted_pairs()
        assert outcomes[0].result.total_bytes == outcomes[1].result.total_bytes

    def test_failed_batch_does_not_leak_into_the_next(self, monkeypatch):
        """A query raising mid-wave discards the batch, not the broker."""
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        good = JoinQuery(r, s, spec, algorithm="upjoin", buffer_size=BUFFER)
        bad = JoinQuery(r, s, spec, algorithm="srjoin", buffer_size=BUFFER)
        monkeypatch.setattr(ALGORITHMS["srjoin"], "_root_task", _raise_value_error)
        broker = QueryBroker()
        with pytest.raises(ValueError):
            broker.run_batch([good, bad])
        outcomes = broker.run_batch([good])
        assert len(outcomes) == 1
        _assert_identical(outcomes[0].result, _standalone(good, "upjoin"))

    def test_a_batch_that_fails_to_plan_does_not_leak_into_the_next(self, monkeypatch):
        """Planning is all-or-nothing: the queries planned before the raise
        used to stay queued and come back with the next batch's outcomes.
        Two epsilons make two planning groups; the second group's
        prediction raises after the first group's two queries are planned."""
        r, s = _datasets()
        first, second = JoinSpec.distance(0.03), JoinSpec.distance(0.02)
        queries = [
            JoinQuery(r, s, spec, algorithm=name, buffer_size=BUFFER)
            for spec, name in ((first, "upjoin"), (second, "srjoin"), (first, "mobijoin"))
        ]
        predict = planner.predict_algorithm_costs

        def second_group_raises(spec, *args, **kwargs):
            if spec is second:
                raise RuntimeError("injected planner bug")
            return predict(spec, *args, **kwargs)

        monkeypatch.setattr(planner, "predict_algorithm_costs", second_group_raises)
        broker = QueryBroker()
        with pytest.raises(RuntimeError, match="injected planner bug"):
            broker.run_batch(queries)
        assert broker.stats.queries_submitted == 0
        (outcome,) = broker.run_batch([queries[2]])
        assert outcome.query is queries[2]
        _assert_identical(outcome.result, _standalone(queries[2], "mobijoin"))

    def test_a_query_that_cannot_be_planned_fails_alone(self):
        """A typed error while planning is that query's ``failed`` outcome."""
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        empty = SpatialDataset(np.empty((0, 4)), name="E")
        good = JoinQuery(r, s, spec, algorithm="upjoin", buffer_size=BUFFER)
        windowless = JoinQuery(empty, empty.rename("F"), spec, buffer_size=BUFFER)
        other = JoinQuery(r, s, spec, algorithm="naive", buffer_size=BUFFER)
        broker = QueryBroker()
        first, failed, third = broker.run_batch([good, windowless, other])
        assert [o.status for o in (first, failed, third)] == ["ok", "failed", "ok"]
        assert isinstance(failed.error, InvalidInput)
        assert failed.query is windowless and failed.result is None
        assert failed.plan is None and failed.algorithm is None
        assert broker.stats.queries_failed == 1 and broker.stats.queries_executed == 2
        _assert_identical(first.result, _standalone(good, "upjoin"))
        _assert_identical(third.result, _standalone(other, "naive"))

    def test_the_whole_stack_config_keys_the_cache(self):
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)

        def key(**knobs):
            query = JoinQuery(r, s, spec, algorithm="srjoin", stack=StackConfig(**knobs))
            return query_key(query, "srjoin", None)

        fleet = dict(shards_r=2, shards_s=2, replicas=2)
        assert key(**fleet) != key(shards_r=2, shards_s=2)
        assert key() != key(deadline_s=1e9)
        assert key() != key(shards_s=2)
        assert key(**fleet) == key(**fleet)
        # No ``stack=`` at all is the default stack: one entry, one execution.
        bare = JoinQuery(r, s, spec, algorithm="srjoin")
        assert query_key(bare, "srjoin", None) == key()
        broker = QueryBroker()
        cold, warm = broker.run_batch(
            [bare, JoinQuery(r, s, spec, algorithm="srjoin", stack=StackConfig())]
        )
        assert warm.cached and warm.result is cold.result
        assert broker.stats.cache_hits == 1 and broker.stats.queries_executed == 1

    def test_result_cache_eviction_is_bounded(self, monkeypatch):
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        monkeypatch.setattr(service_broker, "CACHE_MAX_ENTRIES", 1)
        broker = QueryBroker()
        cache = broker.cache
        a = JoinQuery(r, s, spec, algorithm="upjoin", buffer_size=64)
        b = JoinQuery(r, s, spec, algorithm="upjoin", buffer_size=128)
        broker.run_batch([a])
        broker.run_batch([b])  # evicts a
        assert len(cache) == 1 and cache.evictions == 1
        (again,) = broker.run_batch([a])  # re-executes after eviction
        assert not again.cached

    def test_differing_config_never_shares_entries(self):
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        broker = QueryBroker()
        a = JoinQuery(r, s, spec, algorithm="upjoin", buffer_size=64)
        b = JoinQuery(r, s, spec, algorithm="upjoin", buffer_size=128)
        c = JoinQuery(r, s, spec, algorithm="upjoin", buffer_size=64,
                      window=Rect(0.0, 0.0, 0.5, 0.5))
        outcomes = broker.run_batch([a, b, c])
        assert [o.cached for o in outcomes] == [False, False, False]
        assert broker.stats.queries_executed == 3


class TestPlanSelection:
    def test_explain_reports_predicted_and_override(self):
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        broker = QueryBroker()
        free = broker.explain(JoinQuery(r, s, spec, buffer_size=BUFFER))
        assert not free.overridden
        assert free.algorithm == free.cheapest()
        assert set(free.predicted) == set(SELECTABLE_ALGORITHMS)
        assert all(v >= 0 for v in free.predicted.values())
        forced = broker.explain(
            JoinQuery(r, s, spec, algorithm="semijoin", buffer_size=BUFFER)
        )
        assert forced.overridden and forced.algorithm == "semijoin"
        assert set(forced.predicted) == set(SELECTABLE_ALGORITHMS)

    def test_planner_selected_query_matches_standalone(self):
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        broker = QueryBroker()
        query = JoinQuery(r, s, spec, buffer_size=BUFFER)
        (outcome,) = broker.run_batch([query])
        assert outcome.algorithm in SELECTABLE_ALGORITHMS
        assert not outcome.plan.overridden
        _assert_identical(outcome.result, _standalone(query, outcome.algorithm))

    def test_execution_is_not_a_query_field(self):
        # The per-query execution switch used to be forwarded to whichever
        # algorithm the planner picked: a query that left the choice open
        # took its whole batch down with an untyped TypeError whenever the
        # pick (naive, fixedgrid) had no such argument.
        import dataclasses

        r, s = _datasets()
        spec = JoinSpec.distance(0.01)
        assert "execution" not in {f.name for f in dataclasses.fields(JoinQuery)}
        with pytest.raises(TypeError, match="execution"):
            JoinQuery(r, s, spec, algorithm=None, execution="recursive", buffer_size=100)
        query = JoinQuery(r, s, spec, algorithm=None, buffer_size=100)
        broker = QueryBroker()
        assert broker.explain(query).algorithm == "naive"
        (outcome,) = broker.run_batch([query])
        assert outcome.status == "ok" and outcome.algorithm == "naive"
        _assert_identical(outcome.result, _standalone(query, "naive"))

    def test_denormal_window_over_an_empty_side_plans_and_spares_its_neighbour(self):
        # Costing this window divides by a denormal area: inf * 0 objects was
        # nan, the nan an INT64_MIN payload, and the untyped ValueError raised
        # while planning took the healthy neighbour down with it.
        r, s = _datasets()
        spec = JoinSpec.distance(0.002)
        empty = SpatialDataset(np.empty((0, 4)), name="S")
        broken = JoinQuery(
            r, empty, spec, buffer_size=BUFFER, window=Rect(0.0, 0.0, 1e-160, 1e-155)
        )
        healthy = JoinQuery(r, s, spec, buffer_size=BUFFER)
        first, second = QueryBroker().run_batch([broken, healthy])
        assert (first.status, second.status) == ("ok", "ok")
        assert first.result.pairs == set()
        _assert_identical(second.result, _standalone(healthy, second.algorithm))

    def test_unknown_algorithm_rejected_at_construction(self):
        r, s = _datasets()
        with pytest.raises(InvalidInput, match="unknown algorithm 'bogus'"):
            JoinQuery(r, s, JoinSpec.intersection(), algorithm="bogus")

    def test_the_planner_never_picks_upjoin_and_its_picks_are_pinned(self):
        """UpJoin and SrJoin are not selectable (they would get MobiJoin's
        prediction and lose the tie by name), so over 1,200 buffers x
        epsilons x counts x window sides the pick is never either.  The
        pick counts are pinned: a change to the root estimates moves them
        only on purpose.  Each spec's 300 points are also planned as stacked
        rows in one call, and every row's decision == its one-query call."""
        counts = (0, 10, 100, 1000, 20000)
        picks = Counter()
        for epsilon in (0, 0.001, 0.005, 0.03):
            spec = JoinSpec.distance(epsilon) if epsilon else JoinSpec.intersection()
            rows = list(itertools.product((50, 100, 800, 5000), counts, counts, (0.01, 0.3, 1.0)))
            buffers, n_r, n_s, sides = (np.array(column) for column in zip(*rows))
            zeros = np.zeros_like(sides)
            stacked = select_algorithm(
                spec,
                np.column_stack([zeros, zeros, sides, sides]),
                n_r,
                n_s,
                config=NetworkConfig(),
                buffer_size=buffers,
                params=AlgorithmParameters(),
            )
            assert len(stacked) == len(rows)
            for (buffer, rows_r, rows_s, side), row_plan in zip(rows, stacked):
                plan = select_algorithm(
                    spec,
                    Rect(0.0, 0.0, side, side),
                    rows_r,
                    rows_s,
                    config=NetworkConfig(),
                    buffer_size=buffer,
                    params=AlgorithmParameters(),
                )
                assert row_plan == plan
                assert plan.algorithm not in ("upjoin", "srjoin")
                assert plan.algorithm == plan.cheapest()
                picks[plan.algorithm] += 1
        assert picks == {"mobijoin": 952, "naive": 248}

    def test_a_batch_plans_every_query_as_explain_does(self):
        """Grouped planning is invisible: every outcome carries the plan its
        query gets alone, across every member of the planning group key,
        buffers, overrides, the denormal window and a windowless query."""
        queries = _mixed_planning_batch()
        broker = QueryBroker()
        outcomes = broker.run_batch(queries)
        *planned, windowless = outcomes
        assert [o.status for o in planned] == ["ok"] * len(planned)
        for outcome in planned:
            assert outcome.plan == broker.explain(outcome.query)
        assert {o.plan.overridden for o in planned} == {False, True}
        assert len({o.algorithm for o in planned}) >= 3
        assert windowless.status == "failed" and windowless.plan is None
        assert isinstance(windowless.error, InvalidInput)
        with pytest.raises(InvalidInput):
            broker.explain(windowless.query)

    def test_a_batch_makes_one_prediction_per_planning_group(self, monkeypatch):
        """A batch of one configuration is one cost-model evaluation, not one
        per query; a mixed batch is one per (config, probe radius,
        ``bucket_queries``, ``grid_k``) group."""
        calls = []
        predict = planner.predict_algorithm_costs

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return predict(*args, **kwargs)

        monkeypatch.setattr(planner, "predict_algorithm_costs", counted)
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        algorithms = (None, "upjoin", "srjoin", "mobijoin")
        same_configuration = [
            JoinQuery(
                r,
                s,
                spec,
                algorithm=algorithms[i % 4],
                buffer_size=BUFFER + i,
                window=Rect(0.0, 0.0, 0.5 + i / 32, 0.5 + i / 32),
            )
            for i in range(16)
        ]
        QueryBroker().run_batch(same_configuration)
        assert calls == [(16, 4)]
        calls.clear()
        QueryBroker().run_batch(_mixed_planning_batch())
        assert calls == [(4, 4), (1, 4), (1, 4), (1, 4), (1, 4), (1, 4)]

    @pytest.mark.parametrize("grid_k", [2, 3, 5])
    def test_fixedgrid_is_priced_at_the_grid_it_runs(self, grid_k):
        """``fixedgrid`` runs one FIXED_GRID x FIXED_GRID level whatever
        ``grid_k`` says (``grid_k`` is MobiJoin's), so that is its price."""
        from repro.core.costmodel import CostModel
        from repro.core.naive import FIXED_GRID

        spec, window, buffer = JoinSpec.distance(0.002), Rect(0.0, 0.0, 0.3, 0.3), 100
        plan = select_algorithm(
            spec, window, 20000, 20000, config=NetworkConfig(), buffer_size=buffer,
            params=AlgorithmParameters(grid_k=grid_k),
        )
        model = CostModel(NetworkConfig(), epsilon=0.002)
        assert plan.predicted["fixedgrid"] == model.c4_estimate(
            window, 20000, 20000, buffer, k=FIXED_GRID
        )
        assert FIXED_GRID == 4 and plan.algorithm == "naive"


class TestBrokerDeterminism:
    def test_repeated_batches_identical(self):
        r, s = _datasets()
        spec = JoinSpec.distance(0.03)
        queries = [
            JoinQuery(r, s, spec, algorithm=name, buffer_size=BUFFER)
            for name in ("upjoin", "srjoin", "mobijoin")
        ]
        first = QueryBroker(cache=False).run_batch(queries)
        second = QueryBroker(cache=False).run_batch(queries)
        for a, b in zip(first, second):
            assert a.result.sorted_pairs() == b.result.sorted_pairs()
            assert a.result.total_bytes == b.result.total_bytes
            assert _trace_tuples(a.result) == _trace_tuples(b.result)

    def test_submission_order_independent_per_query(self):
        """Shuffled submission: every query still measures the same thing."""
        r1, s1 = _datasets()
        r2, s2 = _other_datasets()
        base = [
            JoinQuery(r1, s1, JoinSpec.distance(0.03), algorithm="upjoin", buffer_size=64),
            JoinQuery(r2, s2, JoinSpec.distance(0.02), algorithm="srjoin", buffer_size=96),
            JoinQuery(r1, s1, JoinSpec.intersection(), algorithm="mobijoin", buffer_size=128),
            JoinQuery(r2, s2, JoinSpec.intersection(), algorithm="upjoin", buffer_size=96),
        ]
        reference: Dict[int, Tuple] = {}
        for outcome in QueryBroker(cache=False).run_batch(base):
            reference[id(outcome.query)] = (
                outcome.result.sorted_pairs(),
                outcome.result.total_bytes,
                outcome.result.bytes_r,
                outcome.result.bytes_s,
                _trace_tuples(outcome.result),
            )
        for order_seed in (3, 4):
            shuffled = list(base)
            random.Random(order_seed).shuffle(shuffled)
            for outcome in QueryBroker(cache=False).run_batch(shuffled):
                key = id(outcome.query)
                assert (
                    outcome.result.sorted_pairs(),
                    outcome.result.total_bytes,
                    outcome.result.bytes_r,
                    outcome.result.bytes_s,
                    _trace_tuples(outcome.result),
                ) == reference[key]


class TestBatchJoinEntry:
    def test_broker_xor_kwargs(self):
        """A pre-built broker plus *any* broker argument is refused --
        ``cache=``, whose default is not ``None``, and an explicit
        ``tracer=None`` included -- and a broker passed alone serves the
        batch."""
        from repro.api import batch_join

        broker = QueryBroker(cache=False)
        for kwargs in (
            {"config": NetworkConfig()},
            {"cache": False},
            {"tracer": None},
            {"cache": False, "metrics": None},
        ):
            with pytest.raises(InvalidInput, match="pre-built broker"):
                batch_join([], broker=broker, **kwargs)
        assert broker.stats.queries_submitted == 0
        r, s = _datasets()
        query = JoinQuery(r, s, JoinSpec.distance(0.03), algorithm="upjoin", buffer_size=BUFFER)
        (outcome,) = batch_join([query], broker=broker)
        assert outcome.status == "ok" and broker.stats.queries_submitted == 1
