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
# the lazy trace: a read-only Sequence[TraceEvent] built on read
# ---------------------------------------------------------------------- #


def _traced_session():
    from repro.api import AdHocJoinSession
    from repro.datasets.synthetic import clustered

    return AdHocJoinSession(
        clustered(n=3000, clusters=16, seed=3, name="R"),
        clustered(n=3000, clusters=16, seed=4, name="S"),
        buffer_size=100,
    )


@pytest.fixture(scope="module", params=["upjoin", "mobijoin", "fixedgrid"])
def traced(request):
    return _traced_session().run(algorithm=request.param, epsilon=0.004)


@pytest.fixture
def built(monkeypatch):
    """Counts the ``TraceEvent`` objects built while the test runs."""
    seen = [0]
    init = TraceEvent.__init__

    def counted(self, *args, **kwargs):
        seen[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceEvent, "__init__", counted)
    return seen


class TestLazyTrace:
    def test_equals_a_list_of_events_both_ways(self, traced):
        events = list(traced.trace)
        assert len(events) > 15 and all(type(event) is TraceEvent for event in events)
        assert traced.trace == events and events == traced.trace
        assert not traced.trace != events
        assert traced.trace != events[:-1] and events[1:] != traced.trace
        assert traced.trace != tuple(events)  # a list, not any sequence

    def test_index_slice_and_len(self, traced, built):
        n = len(traced.trace)
        assert built[0] == 0  # len builds nothing
        events = list(traced.trace)
        assert [traced.trace[k] for k in range(n)] == events
        assert [traced.trace[k] for k in range(-n, 0)] == events
        for cut in (slice(3, 11), slice(None, None, -3), slice(-5, None), slice(n + 4, None)):
            assert traced.trace[cut] == events[cut]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                traced.trace[bad]
        assert events[7] in traced.trace and traced.trace.index(events[7]) == events.index(events[7])

    def test_format_trace_builds_only_what_it_prints(self, traced, built):
        text = traced.format_trace(max_events=15)
        assert built[0] == 15
        assert text == "\n".join(event.format() for event in list(traced.trace)[:15])
        assert traced.format_trace() == "\n".join(event.format() for event in traced.trace)

    def test_pickle_round_trip(self, traced):
        import pickle

        again = pickle.loads(pickle.dumps(traced))
        assert again.trace == traced.trace and again == traced

    def test_frozen_result_stays_lazy_and_read_only(self, traced):
        import copy
        import operator

        from repro.core.result import Trace
        from repro.service.cache import freeze_result

        frozen = freeze_result(copy.copy(traced))
        assert type(frozen.trace) is Trace and frozen.trace is traced.trace
        for mutate in (
            lambda t: t.pop(),
            lambda t: t.append(t[0]),
            lambda t: t.clear(),
            lambda t: operator.setitem(t, 0, t[1]),
        ):
            with pytest.raises(TypeError):
                mutate(frozen.trace)
        assert frozen.trace == list(traced.trace)

    def test_a_kept_result_pins_no_device(self):
        """The trace holds arrays, strings and numbers only: a session's
        history of results must not keep 32 algorithm / table / device
        stacks alive."""
        import gc
        import weakref

        session = _traced_session()
        results = [session.run(algorithm=name, epsilon=0.004) for name in ("upjoin", "mobijoin")]
        device = weakref.ref(session.device)
        del session
        gc.collect()
        assert device() is None
        assert all(len(result.trace) > 20 for result in results)
        assert all(len(list(result.trace)) == len(result.trace) for result in results)


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
        assert not result.pairs.block.flags.writeable and result.pairs == set(want_pairs)
        assert all(type(a) is int and type(b) is int for a, b in result.pairs)
        assert result.objects == want_objects
        assert result.sorted_pairs() == want_pairs


# ---------------------------------------------------------------------- #
# JoinResult.pairs: a read-only set view over the sorted distinct block
# ---------------------------------------------------------------------- #


def _view(pairs):
    from repro.index.pairs import PairSet

    return PairSet(pairs)


class TestPairSetView:
    PAIRS = {(1, 2), (1, 5), (3, 4), (-7, 2**62), (2**40, -(2**62))}

    def test_equals_set_and_frozenset_both_ways(self):
        view = _view(self.PAIRS)
        for other in (set(self.PAIRS), frozenset(self.PAIRS)):
            assert view == other and other == view
            assert not view != other and not other != view
            smaller = type(other)(list(self.PAIRS)[1:])
            assert view != smaller and smaller != view
            assert not view == smaller and not smaller == view
        assert view == _view(list(self.PAIRS) * 3) and view != _view([(1, 2)])
        assert view != sorted(self.PAIRS)  # a set, not any collection

    def test_set_operators_with_a_set_on_either_side(self):
        view, other = _view(self.PAIRS), {(1, 2), (9, 9), (3, 4)}
        want = set(self.PAIRS)
        assert view - other == want - other and other - view == other - want
        assert view & other == want & other and other & view == other & want
        assert view | other == want | other and other | view == other | want
        assert view ^ other == want ^ other and view.isdisjoint({(0, 0)})
        assert frozenset(view) == frozenset(want) and set(view) == want
        assert view <= want | other and view < want | other and not view < want

    def test_len_iteration_and_membership(self):
        view = _view(list(self.PAIRS) + [(1, 2)])
        assert len(view) == len(self.PAIRS) and view.block.shape == (len(self.PAIRS), 2)
        assert list(view) == sorted(self.PAIRS)
        assert all(type(a) is int and type(b) is int for a, b in view)
        for pair in self.PAIRS:
            assert pair in view and np.array(pair) in view
        for absent in [(1, 3), (2**62, -7), (-(2**63), 0), (2**70, 1), (1,), (1, 2, 3), "ab", 5, (1.5, 2)]:
            assert absent not in view
        assert (1, 2) not in _view([]) and len(_view([])) == 0 and list(_view([])) == []

    def test_membership_on_a_block_spread_over_int64(self):
        """Oids spread over all of ``int64``: the dedupe key ranks them."""
        from repro.index.pairs import row_key

        rng = np.random.default_rng(3)
        block = rng.integers(-(2**63), 2**63 - 1, size=(300, 2), dtype=np.int64)
        view = _view(block)
        _, radix = row_key((block[:, 0], block[:, 1]))
        assert all(isinstance(origin, np.ndarray) for _, origin in radix)
        assert all(pair in view for pair in map(tuple, block.tolist()))
        assert (int(block[0, 0]), int(block[1, 1])) not in view
        assert (int(block[0, 0]) + 1, int(block[0, 1])) not in view
        assert (2**70, int(block[0, 1])) not in view and (-(2**70), 0) not in view

    def test_read_only_unhashable_and_pickles(self):
        import pickle

        view = _view(self.PAIRS)
        with pytest.raises(AttributeError):
            view.add((0, 0))
        with pytest.raises(AttributeError):
            view.discard((1, 2))
        with pytest.raises(ValueError):
            view.block[0, 0] = 99
        with pytest.raises(TypeError):
            hash(view)
        again = pickle.loads(pickle.dumps(view))
        assert again == view and again == set(self.PAIRS) and (3, 4) in again
        assert not again.block.flags.writeable

    def test_result_turns_any_pairs_into_the_view(self):
        from repro.index.pairs import PairSet

        result = JoinResult(algorithm="x", spec=JoinSpec.distance(0.1), pairs=[(3, 4), (1, 2), (3, 4)])
        assert type(result.pairs) is PairSet and result.pairs.block.tolist() == [[1, 2], [3, 4]]
        assert result.sorted_pairs() == [(1, 2), (3, 4)] and result.num_pairs == 2
        assert result.matches_pairs({(1, 2), (3, 4)}) and result.matches_pairs([(3, 4), (1, 2)])
        assert not result.matches_pairs({(1, 2)})
        assert type(JoinResult(algorithm="x", spec=JoinSpec.distance(0.1)).pairs) is PairSet

    def test_a_cached_result_keeps_its_view(self):
        from repro.service.cache import ResultCache

        result = _traced_session().run(algorithm="upjoin", epsilon=0.004)
        view = result.pairs
        cache = ResultCache()
        stored = cache.put(("k",), result)
        assert stored is result and cache.get(("k",)) is result
        assert result.pairs is view  # no frozenset copy
        with pytest.raises(AttributeError):
            stored.pairs.add((-1, -1))

    def test_a_kept_result_holds_fewer_blocks_than_pairs(self):
        """A 20k x 20k answer is one array, not a tuple per pair: the
        allocations a kept result retains are independent of its size (a
        ``set`` of tuples retained about three per pair)."""
        import gc
        import sys

        from repro.api import AdHocJoinSession
        from repro.datasets.synthetic import clustered

        session = AdHocJoinSession(
            clustered(n=20000, clusters=128, seed=1, name="R"),
            clustered(n=20000, clusters=128, seed=2, name="S"),
            buffer_size=100,
        )
        session.run(algorithm="upjoin", epsilon=0.005)  # builds and pages
        gc.collect()
        before = sys.getallocatedblocks()
        result = session.run(algorithm="upjoin", epsilon=0.005)
        gc.collect()
        retained = sys.getallocatedblocks() - before
        assert len(result.pairs) > 20000 and retained < len(result.pairs)
