"""The array-native leaf data path: index rows -> payloads -> join kernel.

Three contracts:

* :func:`grid_hash_join` is the one-item case of
  :func:`grid_hash_join_batch`, and both equal the scalar plane-sweep oracle
  -- list order included -- whatever the item's size, shape and neighbours
  in the batch (``tests/test_cell_join.py`` has the hostile geometry);
* the payload rows the batch endpoints return are the dataset's MBRs at the
  returned oids, on plain, sharded and replicated servers;
* :meth:`SpatialDataset.rename` shares its source's arrays and the public
  constructor still validates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.dataset import SpatialDataset
from repro.datasets.synthetic import clustered
from repro.errors import InvalidInput
from repro.geometry.point import Point
from repro.geometry.predicates import IntersectionPredicate, WithinDistancePredicate
from repro.geometry.rect import Rect
from repro.index.hash_join import JoinBatch, grid_hash_join, grid_hash_join_batch
from repro.network.channel import Channel
from repro.network.config import NetworkConfig
from repro.server import ShardedSpatialServer
from repro.server.remote import RemoteServer, ServerPair
from repro.server.server import SpatialServer

from tests.oracles import scalar_endpoints
from tests.oracles.operators_scalar import pairwise_within_distance
from tests.oracles.plane_sweep_scalar import plane_sweep_pairs_scalar

PREDICATES = [IntersectionPredicate(), WithinDistancePredicate(0.03)]


# ---------------------------------------------------------------------- #
# (a) one kernel: scalar entry == one-item batch == oracle
# ---------------------------------------------------------------------- #


def _side(n: int, seed: int, kind: str = "boxes"):
    """``(mbrs, oids)`` of ``n`` objects; oids are never ``arange``."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.0, 1.0, size=(n, 2))
    if kind == "points":  # zero-area
        hi = lo.copy()
    elif kind == "wide":  # a few boxes spanning most of the space
        hi = lo + rng.uniform(0.0, 0.02, size=(n, 2))
        hi[::7] = lo[::7] + 0.6
    elif kind == "coincident":  # many objects on very few distinct places
        lo = lo[rng.integers(0, max(1, n // 10), size=n)]
        hi = lo.copy()
    else:
        hi = lo + rng.uniform(0.0, 0.03, size=(n, 2))
    oids = rng.permutation(10 * n + 5)[:n].astype(np.int64) * 3 + 1
    return np.hstack([lo, hi]), oids


def _oracle(item, predicate):
    a_mbrs, a_oids, b_mbrs, b_oids = item
    return sorted(
        {
            (int(a_oids[i]), int(b_oids[j]))
            for i, j in plane_sweep_pairs_scalar(a_mbrs, b_mbrs, predicate)
        }
    )


def _per_item(result):
    """``grid_hash_join_batch``'s ``(pairs, starts)`` block as one pair list per item."""
    pairs, starts = result
    assert pairs.dtype == np.int64 and pairs.ndim == 2 and pairs.shape[1] == 2
    assert starts[0] == 0 and starts[-1] == pairs.shape[0]
    rows = list(map(tuple, pairs.tolist()))
    return [rows[lo:hi] for lo, hi in zip(starts.tolist(), starts.tolist()[1:])]


def _item(na: int, nb: int, seed: int, kind: str = "boxes"):
    return (*_side(na, seed, kind), *_side(nb, seed + 1000, kind))


def _straddling_batch():
    """Items of 127, 128 and 129 objects (the old kernel's grid-free
    threshold), an empty side, wide boxes, points, coincident points and
    duplicate geometry."""
    empty = (np.empty((0, 4)), np.empty(0, dtype=np.int64))
    a_dup, a_dup_oids = _side(40, 7)
    return [
        _item(63, 64, 1),
        _item(64, 64, 2),
        _item(65, 64, 3),
        (*_side(30, 4), *empty),
        (*empty, *_side(30, 5)),
        _item(300, 250, 6, "wide"),
        _item(90, 90, 8, "points"),
        _item(200, 200, 9, "coincident"),
        # Duplicate geometry: both sides hold the very same boxes.
        (a_dup, a_dup_oids, a_dup.copy(), a_dup_oids + 1),
        _item(1, 1, 10),
    ]


@pytest.mark.parametrize("predicate", PREDICATES, ids=["intersects", "within"])
def test_scalar_entry_is_the_one_item_batch_is_the_oracle(predicate):
    batch = _straddling_batch()
    together = _per_item(grid_hash_join_batch(batch, predicate))
    assert len(together) == len(batch)
    for item, from_batch in zip(batch, together):
        expected = _oracle(item, predicate)
        assert grid_hash_join(*item, predicate) == expected
        assert _per_item(grid_hash_join_batch([item], predicate)) == [expected]
        assert from_batch == expected
    assert any(together) and not all(together)


@pytest.mark.parametrize("predicate", PREDICATES, ids=["intersects", "within"])
def test_csr_form_equals_item_form(predicate):
    batch = _straddling_batch()
    csr = JoinBatch.from_items(batch)
    assert csr.a_bounds.tolist()[:4] == [0, 63, 127, 192]
    assert _per_item(grid_hash_join_batch(csr, predicate)) == _per_item(
        grid_hash_join_batch(batch, predicate)
    )


def test_empty_batch_and_all_dead_items():
    predicate = IntersectionPredicate()
    assert _per_item(grid_hash_join_batch([], predicate)) == []
    empty = (np.empty((0, 4)), np.empty(0, dtype=np.int64))
    assert _per_item(grid_hash_join_batch([(*empty, *_side(5, 1))], predicate)) == [[]]


def test_items_of_one_batch_are_independent():
    """A wide item beside a larger and a smaller one: each item's answer is
    the one it has alone, whatever grid its neighbours get."""
    predicate = WithinDistancePredicate(0.03)
    batch = [_item(40, 40, 11, "wide"), _item(150, 150, 12), _item(20, 30, 13)]
    expected = [_oracle(item, predicate) for item in batch]
    assert expected[0]
    assert _per_item(grid_hash_join_batch(batch, predicate)) == expected
    for item, want in zip(batch, expected):
        assert _per_item(grid_hash_join_batch([item], predicate)) == [want]


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=140),
            st.integers(min_value=0, max_value=140),
            st.sampled_from(["boxes", "points", "wide", "coincident"]),
        ),
        min_size=1,
        max_size=5,
    ),
    st.integers(min_value=0, max_value=5000),
    st.sampled_from([0.0, 0.01, 0.08]),
)
@settings(max_examples=25, deadline=None)
def test_property_batch_equals_oracle(shapes, seed, eps):
    predicate = WithinDistancePredicate(eps) if eps > 0 else IntersectionPredicate()
    batch = [_item(na, nb, seed + k, kind) for k, (na, nb, kind) in enumerate(shapes)]
    assert _per_item(grid_hash_join_batch(batch, predicate)) == [
        _oracle(item, predicate) for item in batch
    ]


def _hostile_oids(rng, n: int, mode: str) -> np.ndarray:
    """``n`` distinct oids nowhere near ``arange``."""
    if mode == "near+2**62":
        return 2**62 + rng.permutation(50 * n + 7)[:n].astype(np.int64) * 11
    if mode == "near-2**62":
        return -(2**62) - rng.permutation(50 * n + 7)[:n].astype(np.int64) * 13
    if mode == "negative":
        return -rng.permutation(10 * n + 3)[:n].astype(np.int64) - 1
    # Over all of int64: the spans' product is far above 2**63.
    return np.unique(rng.integers(-(2**63), 2**63 - 1, size=2 * n, dtype=np.int64))[:n]


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=140),
            st.integers(min_value=0, max_value=140),
            st.sampled_from(["boxes", "coincident", "wide"]),
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=0, max_value=5000),
    st.sampled_from(["near+2**62", "near-2**62", "negative", "spread"]),
    st.sampled_from([0.0, 0.03]),
)
@settings(max_examples=25, deadline=None)
def test_property_batch_equals_oracle_at_hostile_oids(shapes, seed, mode, eps):
    """The kernel's one-key dedupe at oids where the key needs large minima
    (near +-2**62) or dense ranks (spread over ``int64``): still the scalar
    oracle's pairs, list order included."""
    rng = np.random.default_rng(seed)
    predicate = WithinDistancePredicate(eps) if eps > 0 else IntersectionPredicate()
    batch = []
    for k, (na, nb, kind) in enumerate(shapes):
        a_mbrs, _, b_mbrs, _ = _item(na, nb, seed + k, kind)
        batch.append((a_mbrs, _hostile_oids(rng, na, mode), b_mbrs, _hostile_oids(rng, nb, mode)))
    assert _per_item(grid_hash_join_batch(batch, predicate)) == [
        _oracle(item, predicate) for item in batch
    ]


def _oid_columns(rng, rows: int, mode: str) -> np.ndarray:
    """A ``(rows, 2)`` pair block with many repeats."""
    if mode == "dense":
        return rng.integers(0, 12, size=(rows, 2))
    if mode == "near+2**62":
        return 2**62 + rng.integers(-40, 40, size=(rows, 2))
    if mode == "near-2**62":
        return -(2**62) + rng.integers(-40, 40, size=(rows, 2))
    if mode == "both-ends":
        return rng.choice(np.array([-(2**62), -5, 0, 7, 2**62 - 1]), size=(rows, 2))
    values = rng.integers(-(2**63), 2**63 - 1, size=max(1, rows // 3), dtype=np.int64)
    return rng.choice(values, size=(rows, 2))


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=400),
    st.sampled_from(["dense", "near+2**62", "near-2**62", "both-ends", "spread"]),
)
@settings(max_examples=120, deadline=None)
def test_property_unique_pairs_equals_the_lexsort_oracle(seed, rows, mode):
    from repro.index.pairs import unique_pairs, unique_rows
    from tests.oracles.pairs_lexsort import unique_pairs as oracle_pairs
    from tests.oracles.pairs_lexsort import unique_triples

    rng = np.random.default_rng(seed)
    block = _oid_columns(rng, rows, mode).astype(np.int64)
    got = unique_pairs(block)
    assert got.dtype == np.int64 and got.shape[1] == 2
    assert np.array_equal(got, oracle_pairs(block))
    owner = np.sort(rng.integers(0, 5, size=rows))
    for got_col, want_col in zip(
        unique_rows(owner, block[:, 0], block[:, 1]),
        unique_triples(owner, block[:, 0], block[:, 1]),
    ):
        assert got_col.dtype == np.int64 and np.array_equal(got_col, want_col)


def test_unique_pairs_on_empty_and_all_duplicate_blocks():
    from repro.index.pairs import unique_pairs

    empty = unique_pairs(np.empty((0, 2), np.int64))
    assert empty.shape == (0, 2) and empty.dtype == np.int64
    for row in ([3, 4], [-(2**62), 2**62], [2**63 - 1, -(2**63)]):
        block = np.array([row] * 50, dtype=np.int64)
        assert unique_pairs(block).tolist() == [row]


@pytest.mark.parametrize(
    "span_b, ranked",
    [(2**32 - 1, False), (2**32, True), (2**32 + 1, True)],
    ids=["just-below", "at", "just-above"],
)
def test_unique_pairs_across_the_key_limit(span_b, ranked):
    """Spans of ``2**31`` x ``span_b``: a product just below ``2**63`` is
    keyed by minima, at or above it by dense ranks -- the same answer."""
    from repro.index.pairs import row_key, unique_pairs
    from tests.oracles.pairs_lexsort import unique_pairs as oracle_pairs

    rng = np.random.default_rng(span_b)
    low_a, low_b = -(2**40), 2**61
    corners = np.array([[low_a, low_b], [low_a + 2**31 - 1, low_b + span_b - 1]])
    inner = np.column_stack(
        (low_a + rng.integers(0, 2**31, 500), low_b + rng.integers(0, span_b, 500))
    )
    block = np.vstack([inner, corners, inner[:100], corners]).astype(np.int64)
    _, radix = row_key((block[:, 0], block[:, 1]))
    assert [isinstance(origin, np.ndarray) for _, origin in radix] == [ranked, ranked]
    assert np.array_equal(unique_pairs(block), oracle_pairs(block))


def test_a_key_that_ranks_cannot_fit_raises(monkeypatch):
    """With the limit lowered to 64: 7 x 7 spans are keyed by minima, sparse
    columns by ranks, and three columns of 10 distinct values each raise
    instead of colliding."""
    import repro.index.pairs as pairs
    from tests.oracles.pairs_lexsort import unique_triples

    monkeypatch.setattr(pairs, "_KEY_LIMIT", 64)
    small = np.array([[0, 6], [6, 0], [3, 3], [0, 6]], dtype=np.int64)
    assert pairs.row_key((small[:, 0], small[:, 1]))[1] == [(7, 0), (7, 0)]
    sparse = np.array([[0, 90], [80, 0], [3, 3], [80, 0]], dtype=np.int64)
    assert [span for span, _ in pairs.row_key((sparse[:, 0], sparse[:, 1]))[1]] == [3, 3]
    assert pairs.unique_pairs(sparse).tolist() == [[0, 90], [3, 3], [80, 0]]
    column = np.arange(10, dtype=np.int64) * 1000
    with pytest.raises(OverflowError):
        pairs.unique_rows(column, column[::-1].copy(), column)
    owner, five = np.zeros(10, np.int64), column % 5000
    got = pairs.unique_rows(owner, five, five[::-1].copy())
    want = unique_triples(owner, five, five[::-1].copy())
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_chunks_do_not_change_the_answer(monkeypatch):
    """The candidates pushed through the mask a few dozen at a time."""
    import repro.index.hash_join as hash_join
    from repro.index.budget import TRANSIENT_BUDGET, chunk_rows

    predicate = WithinDistancePredicate(0.03)
    batch = _straddling_batch()
    expected = _per_item(grid_hash_join_batch(batch, predicate))
    monkeypatch.setattr(hash_join, "_CANDIDATE_BYTES", TRANSIENT_BUDGET // 50)
    assert chunk_rows(hash_join._CANDIDATE_BYTES) == 50
    assert _per_item(grid_hash_join_batch(batch, predicate)) == expected


# ---------------------------------------------------------------------- #
# (a') the segmented sweep itself, against the scalar sweep per segment
# ---------------------------------------------------------------------- #

_SCALES = {"tiny": (1e-9,), "unit": (1.0,), "huge": (1e12,), "mixed": (1e-9, 1.0, 1e12)}
_SEGMENT_IDS = {
    "one": [0],
    "few": [0, 1, 2],
    "sparse": [0, 1000, 10**6],
    "many": list(range(2000)),
    "sparse-many": list(range(10**6, 10**6 + 400)),
}


def _lattice_side(rng, n: int, scales, segment_ids):
    """``n`` boxes on a coarse lattice (so equal ``xmin``, coincident points
    and touching extents abound), a third of them zero-width, zero-height or
    both, each at one of ``scales``; and an unsorted segment id per box."""
    scale = rng.choice(scales, size=(n, 1))
    lo = rng.integers(0, 12, size=(n, 2)).astype(float)
    extent = rng.choice([0.0, 0.0, 1.0, 3.0], size=(n, 2))
    mbrs = np.hstack([lo * scale, (lo + extent) * scale])
    return mbrs, rng.choice(segment_ids, size=n)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(sorted(_SCALES)),
    st.sampled_from(sorted(_SEGMENT_IDS)),
    st.sampled_from([None, 0.0, 0.5, 1.0, 2.5]),
    st.integers(min_value=0, max_value=150),
    st.integers(min_value=0, max_value=150),
)
@settings(max_examples=200, deadline=None)
def test_property_segmented_sweep_equals_scalar_sweep_per_segment(
    seed, scale, segment_ids, eps, na, nb
):
    """Equal ``xmin`` on both sides (A leads on ties), zero-width and
    zero-area boxes, coincident points, epsilon 0 and > 0, both predicates,
    coordinates at 1e-9 / 1 / 1e12 and mixed in one call, unsorted and sparse
    segment ids, one to ~2,000 segments, an empty side.  ``mixed`` under ids
    near ``10**6`` is where the composite key has no bits left for the small
    coordinates (its ulp there is ~256): whole segments tie, the candidate
    runs grow, the answer may not change.  The index-pair *set* equals the
    scalar sweep's segment by segment, and no pair is reported twice."""
    from repro.index.plane_sweep import plane_sweep_pair_arrays_segmented

    rng = np.random.default_rng(seed)
    scales = _SCALES[scale]
    if eps is None:
        predicate = IntersectionPredicate()
    else:
        predicate = WithinDistancePredicate(eps * scales[-1] if scale != "mixed" else eps)
    a, a_seg = _lattice_side(rng, na, scales, _SEGMENT_IDS[segment_ids])
    b, b_seg = _lattice_side(rng, nb, scales, _SEGMENT_IDS[segment_ids])
    i_idx, j_idx = plane_sweep_pair_arrays_segmented(a, a_seg, b, b_seg, predicate)
    got = list(zip(i_idx.tolist(), j_idx.tolist()))
    assert len(got) == len(set(got)), "a pair was enumerated twice"
    expected = set()
    for seg in np.intersect1d(a_seg, b_seg).tolist():
        rows_a, rows_b = np.flatnonzero(a_seg == seg), np.flatnonzero(b_seg == seg)
        expected.update(
            (int(rows_a[i]), int(rows_b[j]))
            for i, j in plane_sweep_pairs_scalar(a[rows_a], b[rows_b], predicate)
        )
    assert set(got) == expected


def test_sweep_survives_a_key_with_no_bits_left_for_xmin():
    """1e12-wide extent under segment ids of 10**6: rows a unit apart share a
    key, so every run spans its whole segment neighbourhood -- and the mask
    still returns the scalar sweep's pairs."""
    from repro.index.plane_sweep import plane_sweep_pair_arrays_segmented

    rng = np.random.default_rng(5)
    a, a_seg = _lattice_side(rng, 300, (1.0,), [10**6, 10**6 + 1])
    b, b_seg = _lattice_side(rng, 300, (1.0,), [10**6, 10**6 + 1])
    a[0], b[0] = [1e12, 0.0, 1e12, 0.0], [1e12, 0.0, 1e12, 1.0]  # stretch the extent
    predicate = WithinDistancePredicate(1.0)
    key = (10**6 + 1) * 2.0**40
    assert np.nextafter(key, np.inf) - key > 12  # the lattice is 12 wide
    i_idx, j_idx = plane_sweep_pair_arrays_segmented(a, a_seg, b, b_seg, predicate)
    expected = {
        (int(ra[i]), int(rb[j]))
        for seg in (10**6, 10**6 + 1)
        for ra, rb in [(np.flatnonzero(a_seg == seg), np.flatnonzero(b_seg == seg))]
        for i, j in plane_sweep_pairs_scalar(a[ra], b[rb], predicate)
    }
    assert len(expected) > 1000
    assert sorted(zip(i_idx.tolist(), j_idx.tolist())) == sorted(expected)


# ---------------------------------------------------------------------- #
# (b) payload rows come straight from the index
# ---------------------------------------------------------------------- #


def _published():
    """A dataset whose oids are neither sorted nor dense."""
    base = clustered(n=400, clusters=5, seed=21, std=0.08)
    oids = np.random.default_rng(3).permutation(4000)[:400].astype(np.int64) + 17
    return SpatialDataset(mbrs=base.mbrs, oids=oids, name="P")


def _endpoints(dataset):
    """``(label, endpoint)``: the server proper and every connection kind."""
    plain = SpatialServer(dataset, name="P")
    sharded = ShardedSpatialServer(dataset, name="P", shards=4, scheme="str")
    replicated = ShardedSpatialServer(dataset, name="P", shards=3, replicas=2)
    other = SpatialServer(dataset, name="Q")
    yield "server", plain
    for label, backend in (("plain", plain), ("sharded", sharded), ("replicated", replicated)):
        yield label, ServerPair.connect(backend, other).r


def _assert_rows_are_the_datasets(dataset, mbrs, oids):
    row_of = {int(oid): k for k, oid in enumerate(dataset.oids.tolist())}
    rows = [row_of[int(oid)] for oid in oids.tolist()]
    assert mbrs.shape == (len(rows), 4)
    assert np.array_equal(mbrs, dataset.mbrs[rows])


WINDOWS = [
    Rect(0.0, 0.0, 1.0, 1.0),
    Rect(0.2, 0.2, 0.5, 0.6),
    Rect(0.5, 0.1, 0.9, 0.4),
    Rect(2.0, 2.0, 3.0, 3.0),  # misses everything
    Rect(0.4, 0.4, 0.4, 0.4),
]
CENTERS = [Point(0.3, 0.3), Point(0.7, 0.2), Point(0.5, 0.9), Point(5.0, 5.0)]
RADII = [0.1, 0.25, 0.0, 0.5]


def test_batch_payload_rows_are_dataset_rows():
    dataset = _published()
    brute_windows = [
        sorted(dataset.oids[dataset.window_mask(w)].tolist()) for w in WINDOWS
    ]
    brute_probes = [
        sorted(
            dataset.oids[pairwise_within_distance(dataset.mbrs, np.array([[*c, *c]]), r)[:, 0]]
            .tolist()
        )
        for c, r in zip(CENTERS, RADII)
    ]
    for label, endpoint in _endpoints(dataset):
        mbrs, oids, bounds = endpoint.window_batch_flat(WINDOWS)
        _assert_rows_are_the_datasets(dataset, mbrs, oids)
        got = [sorted(oids[bounds[i] : bounds[i + 1]].tolist()) for i in range(len(WINDOWS))]
        assert got == brute_windows, label

        mbrs, oids, bounds = endpoint.range_batch_flat(CENTERS, RADII)
        _assert_rows_are_the_datasets(dataset, mbrs, oids)
        got = [sorted(oids[bounds[i] : bounds[i + 1]].tolist()) for i in range(len(CENTERS))]
        assert got == brute_probes, label

        mbrs, oids, probes = endpoint.bucket_range(CENTERS, 0.0, RADII)
        _assert_rows_are_the_datasets(dataset, mbrs, oids)
        got = [sorted(oids[probes == i].tolist()) for i in range(len(CENTERS))]
        assert got == brute_probes, label


def test_batch_endpoints_equal_the_scalar_by_oid_path():
    dataset = _published()
    server = SpatialServer(dataset, name="P")
    proxy = RemoteServer((server,), (Channel(NetworkConfig(), name="P"),))
    mbrs, oids, bounds = proxy.window_batch_flat(WINDOWS)
    for i, window in enumerate(WINDOWS):
        one_mbrs, one_oids = scalar_endpoints.window(proxy, window)
        assert np.array_equal(one_oids, oids[bounds[i] : bounds[i + 1]])
        assert np.array_equal(one_mbrs, mbrs[bounds[i] : bounds[i + 1]])
    assert proxy.server_stats()["objects_returned"] == 2 * int(oids.shape[0])


# ---------------------------------------------------------------------- #
# (c) rename shares, the public constructor validates
# ---------------------------------------------------------------------- #


def test_rename_shares_frozen_arrays():
    source = SpatialDataset(
        mbrs=np.array([[0.0, 0.0, 0.1, 0.1], [0.5, 0.5, 0.5, 0.5]]),
        oids=np.array([9, 4]),
        name="before",
        metadata={"seed": 1},
    )
    renamed = source.rename("after")
    assert renamed.name == "after" and source.name == "before"
    assert np.shares_memory(renamed.mbrs, source.mbrs)
    assert np.shares_memory(renamed.oids, source.oids)
    assert not renamed.mbrs.flags.writeable and not renamed.oids.flags.writeable
    assert renamed.metadata == source.metadata
    assert renamed.metadata is not source.metadata
    assert renamed.entries() == source.entries()
    assert len(renamed.rename("again")) == 2


def test_public_constructor_still_validates():
    good = np.array([[0.0, 0.0, 0.1, 0.1], [0.5, 0.5, 0.6, 0.6]])
    with pytest.raises(InvalidInput):
        SpatialDataset(mbrs=np.array([[0.0, 0.0, np.nan, 0.1]]))
    with pytest.raises(ValueError):
        SpatialDataset(mbrs=np.array([[0.5, 0.0, 0.1, 0.1]]))
    with pytest.raises(ValueError):
        SpatialDataset(mbrs=good, oids=np.array([3, 3]))
    with pytest.raises(ValueError):
        SpatialDataset(mbrs=good, oids=np.array([1, 2, 3]))
