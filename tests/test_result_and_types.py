"""Tests for JoinSpec finalisation and JoinResult."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.join_types import JoinKind, JoinSpec
from repro.core.result import JoinResult, TraceEvent
from repro.errors import InvalidInput
from repro.geometry.rect import Rect


class TestJoinSpec:
    def test_factories(self):
        assert JoinSpec.intersection().kind is JoinKind.INTERSECTION
        assert JoinSpec.distance(0.5).epsilon == 0.5
        iceberg = JoinSpec.iceberg(0.1, 3)
        assert iceberg.is_semi_join and iceberg.min_matches == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            JoinSpec(kind=JoinKind.DISTANCE, epsilon=0.0)
        with pytest.raises(ValueError):
            JoinSpec(kind=JoinKind.INTERSECTION, epsilon=0.1)
        with pytest.raises(ValueError):
            JoinSpec(kind=JoinKind.DISTANCE, epsilon=0.1, min_matches=2)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -0.1])
    def test_unusable_epsilon_is_typed(self, epsilon):
        # nan slipped through the ``epsilon <= 0`` check and joined to nothing.
        for build in (JoinSpec.distance, lambda e: JoinSpec.iceberg(e, 2)):
            with pytest.raises(InvalidInput, match="epsilon"):
                build(epsilon)

    def test_predicates(self):
        assert JoinSpec.intersection().predicate().probe_radius() == 0.0
        assert JoinSpec.distance(0.25).predicate().probe_radius() == 0.25

    def test_finalise_deduplicates_pairs(self):
        spec = JoinSpec.distance(0.1)
        answer = spec.finalise([(1, 2), (1, 2), (3, 4)])
        assert answer.pairs.dtype == np.int64
        assert answer.pairs.tolist() == [[1, 2], [3, 4]]
        assert answer.objects == []

    def test_finalise_iceberg_counts_distinct_partners(self):
        spec = JoinSpec.iceberg(0.1, 2)
        pairs = [(1, 10), (1, 11), (1, 11), (2, 10), (3, 10), (3, 11), (3, 12)]
        answer = spec.finalise(pairs)
        assert answer.objects == [1, 3]

    @pytest.mark.parametrize(
        "bad",
        [
            dict(kind=JoinKind.DISTANCE, epsilon=0.0),
            dict(kind=JoinKind.ICEBERG_SEMI, epsilon=0.0, min_matches=2),
            dict(kind=JoinKind.INTERSECTION, epsilon=0.1),
            dict(kind=JoinKind.ICEBERG_SEMI, epsilon=0.1, min_matches=0),
            dict(kind=JoinKind.DISTANCE, epsilon=0.1, min_matches=2),
        ],
    )
    def test_every_rejected_spec_is_typed(self, bad):
        # Four of these raised a bare ValueError until PR 22.
        with pytest.raises(InvalidInput):
            JoinSpec(**bad)

    def test_describe(self):
        assert "iceberg" in JoinSpec.iceberg(0.2, 5).describe()
        assert "eps=0.2" in JoinSpec.distance(0.2).describe()


class TestJoinResult:
    def _result(self) -> JoinResult:
        return JoinResult(
            algorithm="upjoin",
            spec=JoinSpec.distance(0.1),
            pairs={(1, 2), (3, 4)},
            total_bytes=1234,
            bytes_r=1000,
            bytes_s=234,
            total_cost=1234.0,
            trace=[TraceEvent(0, Rect(0, 0, 1, 1), "start", "upjoin", 10, 20)],
        )

    def test_counts_and_sorting(self):
        result = self._result()
        assert result.num_pairs == 2
        assert result.sorted_pairs() == [(1, 2), (3, 4)]
        assert result.matches_pairs({(1, 2), (3, 4)})
        assert not result.matches_pairs({(1, 2)})

    def test_summary_mentions_key_numbers(self):
        text = self._result().summary()
        assert "1234" in text and "upjoin" in text

    def test_trace_formatting(self):
        result = self._result()
        assert "start" in result.format_trace()
        assert result.format_trace(max_events=0) == ""


# ---------------------------------------------------------------------- #
# finalise / _assemble on pair blocks == the set-based form they replaced
# ---------------------------------------------------------------------- #


def _finalise_by_sets(spec: JoinSpec, pairs):
    """``JoinSpec.finalise`` as it was until PR 22: a set, a dict, two sorts."""
    unique_pairs = set(pairs)
    if not spec.is_semi_join:
        return sorted(unique_pairs), []
    per_r = {}
    for r_oid, _ in unique_pairs:
        per_r[r_oid] = per_r.get(r_oid, 0) + 1
    return sorted(unique_pairs), sorted(
        oid for oid, cnt in per_r.items() if cnt >= spec.min_matches
    )


pair_lists = st.lists(
    st.tuples(st.integers(-3, 12), st.integers(0, 9)), min_size=0, max_size=120
)


class TestPairBlocks:
    @given(pair_lists, st.integers(min_value=1, max_value=6))
    @settings(max_examples=80)
    def test_finalise_equals_the_set_based_form(self, pairs, min_matches):
        # A narrow id range: most rows are duplicates.
        block = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        for spec in (JoinSpec.distance(0.1), JoinSpec.iceberg(0.1, min_matches)):
            want_pairs, want_objects = _finalise_by_sets(spec, pairs)
            for given_as in (block, pairs, iter(pairs)):
                answer = spec.finalise(given_as)
                assert list(map(tuple, answer.pairs.tolist())) == want_pairs
                assert answer.objects == want_objects
                assert all(type(oid) is int for oid in answer.objects)

    def test_iceberg_threshold_is_inclusive(self):
        block = np.array([(1, 1), (1, 2), (2, 1), (2, 1), (3, 7)], dtype=np.int64)
        assert JoinSpec.iceberg(0.1, 2).finalise(block).objects == [1]
        assert JoinSpec.iceberg(0.1, 1).finalise(block).objects == [1, 2, 3]
        assert JoinSpec.iceberg(0.1, 3).finalise(block).objects == []

    @given(st.lists(pair_lists, min_size=0, max_size=6), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_assemble_builds_the_public_set_once_from_blocks(self, runs, iceberg):
        from repro.core.naive import NaiveDownloadJoin
        from repro.datasets.synthetic import uniform
        from repro.device.pda import MobileDevice
        from repro.index.pairs import PairBlocks
        from repro.server.remote import ServerPair
        from repro.server.server import SpatialServer

        spec = JoinSpec.iceberg(0.1, 2) if iceberg else JoinSpec.distance(0.1)
        servers = ServerPair.connect(
            SpatialServer(uniform(n=5, seed=1), name="R"),
            SpatialServer(uniform(n=5, seed=2), name="S"),
        )
        algo = NaiveDownloadJoin(MobileDevice(servers, buffer_size=10), spec)
        # Blocks arrive as kernel arrays, operator results and (oracles) tuples.
        for k, pairs in enumerate(runs):
            if k % 3 == 0:
                algo._pairs.extend(np.array(pairs, dtype=np.int64).reshape(-1, 2))
            elif k % 3 == 1:
                inner = PairBlocks()
                inner.extend(pairs)
                algo._pairs.extend(inner)
            else:
                for pair in pairs:
                    algo._pairs.add(pair)
        everything = [pair for pairs in runs for pair in pairs]
        assert list(algo._pairs) == everything and len(algo._pairs) == len(everything)
        result = algo._assemble(Rect(0, 0, 1, 1))
        want_pairs, want_objects = _finalise_by_sets(spec, everything)
        assert type(result.pairs) is set and result.pairs == set(want_pairs)
        assert all(type(a) is int and type(b) is int for a, b in result.pairs)
        assert result.objects == want_objects
        assert result.sorted_pairs() == want_pairs
