"""The array-native leaf data path: index rows -> payloads -> join kernel.

Three contracts:

* :func:`grid_hash_join` is the one-item case of
  :func:`grid_hash_join_batch`, and both equal the scalar plane-sweep oracle
  -- list order included -- whichever way an item goes through the kernel
  (swept whole at up to 128 objects, hashed into a grid above);
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
from repro.server import ShardedSpatialServer
from repro.server.remote import ServerPair
from repro.server.server import SpatialServer

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
    """Items on both sides of the grid-free threshold, and the odd ones."""
    empty = (np.empty((0, 4)), np.empty(0, dtype=np.int64))
    a_dup, a_dup_oids = _side(40, 7)
    return [
        _item(63, 64, 1),  # 127: swept whole
        _item(64, 64, 2),  # 128: swept whole, the last size that is
        _item(65, 64, 3),  # 129: hashed, 3 x 3
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


@pytest.mark.parametrize("cells", [1, 2, 7])
def test_grid_overrides_are_per_item(cells):
    """An explicit grid forces hashing, even below the grid-free threshold,
    and changes no answer; other items of the batch keep their defaults."""
    predicate = WithinDistancePredicate(0.03)
    batch = [_item(40, 40, 11, "wide"), _item(150, 150, 12), _item(20, 30, 13)]
    expected = [_oracle(item, predicate) for item in batch]
    assert expected[0]
    got = grid_hash_join_batch(
        batch,
        predicate,
        grids={0: (Rect(-1.0, -1.0, 2.0, 2.0), cells), 2: (None, cells)},
    )
    assert _per_item(got) == expected
    with pytest.raises(ValueError):
        grid_hash_join(*batch[0], predicate, cells_per_side=0)
    with pytest.raises(ValueError):
        grid_hash_join(*batch[0], predicate, bounds=Rect(0.0, 0.0, 0.0, 1.0))


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


def test_sweep_runs_do_not_change_the_answer(monkeypatch):
    """Many segments pushed through the sweep a few rows at a time."""
    import repro.index.hash_join as hash_join

    predicate = WithinDistancePredicate(0.03)
    batch = _straddling_batch()
    expected = _per_item(grid_hash_join_batch(batch, predicate))
    monkeypatch.setattr(hash_join, "_SWEEP_ROWS", 50)
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
        sorted(dataset.within_distance_of(c, r).oids.tolist())
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
    mbrs, oids, bounds = server.window_batch_flat(WINDOWS)
    for i, window in enumerate(WINDOWS):
        one_mbrs, one_oids = server.window(window)
        assert np.array_equal(one_oids, oids[bounds[i] : bounds[i + 1]])
        assert np.array_equal(one_mbrs, mbrs[bounds[i] : bounds[i + 1]])
    assert server.stats.objects_returned == 2 * int(oids.shape[0])


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
