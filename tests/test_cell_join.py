"""The epsilon-cell join kernel at hostile geometry, and the work it does.

:func:`repro.index.hash_join.grid_hash_join_batch` must return, item by
item, exactly the pairs of the scalar plane sweep
(``tests/oracles/plane_sweep_scalar.py``), sorted and duplicate-free, on
coincident points, zero-width and zero-area boxes, touching boxes at
epsilon 0, epsilon far larger than the item, coordinates from denormals
through 1e-9 to 1e12 (mixed in one item too) and an extent beyond the
float range, squares that underflow,
extended x extended boxes, items with an empty side and many one-row items
beside one 20k-row item.  ``TestCellJoinSortsOnce`` is the deterministic
twin of the kernel's wall-clock claim: one integer ``argsort`` per call,
no float ``argsort``, no ``searchsorted`` and no ``lexsort``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.predicates import IntersectionPredicate, WithinDistancePredicate
from repro.index import budget, hash_join
from repro.index.hash_join import JoinBatch, grid_hash_join_batch

from tests.oracles.plane_sweep_scalar import plane_sweep_pairs_scalar

#: Lattice units per scale; ``denormal`` and ``underflow`` are where the
#: mask's squares lose everything below ``2**-1074``.
_SCALES = {
    "denormal": (2.0**-1070,),
    "underflow": (1e-165,),
    "tiny": (1e-9,),
    "unit": (1.0,),
    "huge": (1e12,),
    "mixed": (1e-9, 1.0, 1e12),
}
_KINDS = ("boxes", "points", "coincident", "wide")


def _side(rng, n: int, scales, kind: str):
    """``n`` boxes on a 12 x 12 lattice at one of ``scales`` each: equal
    edges, touching extents and coincident corners abound."""
    scale = rng.choice(scales, size=(n, 1))
    lo = rng.integers(0, 12, size=(n, 2)).astype(float)
    if kind == "points":
        extent = np.zeros((n, 2))
    elif kind == "coincident":  # a few places, every row on one of them
        lo, extent = lo[rng.integers(0, 3, size=n) % max(n, 1)], np.zeros((n, 2))
    elif kind == "wide":  # extended x extended: many rows across most of the item
        extent = rng.choice([0.0, 1.0, 3.0, 11.0], size=(n, 2))
    else:  # zero-width, zero-height, zero-area and unit boxes
        extent = rng.choice([0.0, 0.0, 1.0, 3.0], size=(n, 2))
    mbrs = np.hstack([lo * scale, (lo + extent) * scale])
    return mbrs, rng.permutation(20 * n + 3)[:n].astype(np.int64) * 7 - 5


def _expected(items, predicate):
    """The scalar sweep's pairs per item, as sorted oid tuples."""
    out = []
    for a_mbrs, a_oids, b_mbrs, b_oids in items:
        out.append(
            sorted(
                {
                    (int(a_oids[i]), int(b_oids[j]))
                    for i, j in plane_sweep_pairs_scalar(a_mbrs, b_mbrs, predicate)
                }
            )
        )
    return out


def _per_item(result):
    pairs, starts = result
    assert pairs.dtype == np.int64 and starts.dtype == np.int64
    assert starts[0] == 0 and starts[-1] == pairs.shape[0]
    rows = list(map(tuple, pairs.tolist()))
    return [rows[lo:hi] for lo, hi in zip(starts.tolist(), starts.tolist()[1:])]


def _predicate(eps_kind: str, scale: float):
    if eps_kind == "intersects":
        return IntersectionPredicate()
    return WithinDistancePredicate(
        {
            "zero": 0.0,
            "half": 0.5 * scale,
            "one": 1.0 * scale,
            "two-and-a-half": 2.5 * scale,
            "far-larger": 1e4 * scale,
            "denormal": 3 * 2.0**-1074,
        }[eps_kind]
    )


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=40),
            st.sampled_from(_KINDS),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(sorted(_SCALES)),
    st.sampled_from(
        ["intersects", "zero", "half", "one", "two-and-a-half", "far-larger", "denormal"]
    ),
)
@settings(max_examples=150, deadline=None)
def test_property_every_item_equals_the_scalar_sweep(shapes, seed, scale, eps_kind):
    rng = np.random.default_rng(seed)
    scales = _SCALES[scale]
    predicate = _predicate(eps_kind, scales[-1] if scale != "mixed" else 1.0)
    items = [
        (*_side(rng, na, scales, kind), *_side(rng, nb, scales, kind)) for na, nb, kind in shapes
    ]
    assert _per_item(grid_hash_join_batch(items, predicate)) == _expected(items, predicate)


def test_touching_boxes_at_epsilon_zero():
    """Shared edges and corners intersect, a gap of one ulp does not."""
    a = np.array([[0.0, 0.0, 1.0, 1.0], [2.0, 2.0, 2.0, 2.0]])
    b = np.array(
        [
            [1.0, 0.0, 2.0, 1.0],  # shares an edge with a[0]
            [1.0, 1.0, 2.0, 2.0],  # shares a corner with both
            [np.nextafter(1.0, 2.0), 0.0, 2.0, 0.5],  # one ulp right of a[0]
            [2.0, 2.0, 2.0, 2.0],  # coincides with a[1]
        ]
    )
    items = [(a, np.arange(2), b, np.arange(4) + 10)]
    for predicate in (IntersectionPredicate(), WithinDistancePredicate(0.0)):
        got = _per_item(grid_hash_join_batch(items, predicate))
        assert got == _expected(items, predicate) == [[(0, 10), (0, 11), (1, 11), (1, 13)]]


def test_squares_that_underflow_accept_gaps_far_above_epsilon():
    """At a denormal epsilon both ``dy * dy`` and ``eps * eps`` round to 0
    (and the x-cuts hold): the mask accepts a gap of 1.5e-162 in y, 3e161
    times epsilon.  Two thousand filler rows spread over 3e-161 would size
    cells four times below that gap; the cell side's absolute floor keeps
    the pair in one neighbourhood."""
    rng = np.random.default_rng(3)
    filler = rng.uniform(0.0, 3e-161, size=(1000, 2))
    a = np.vstack([[[0.0, 0.0, 0.0, 0.0]], np.hstack([filler, filler])])
    b = np.vstack([[[0.0, 1.5e-162, 0.0, 1.5e-162]], np.hstack([filler, filler])[::-1] + 5e-161])
    items = [(a, np.arange(a.shape[0]), b, np.arange(b.shape[0]))]
    predicate = WithinDistancePredicate(5e-324)
    want = _expected(items, predicate)
    assert (0, 0) in want[0]
    assert _per_item(grid_hash_join_batch(items, predicate)) == want


@pytest.mark.parametrize(
    "eps, lo, p, q",
    [
        (0.5970116079232411, -0.7399025522627768, -0.1428909443395357, 0.45412066358370545),
        (0.2813079047275811, -0.9929081713968337, -0.4302923619416716, -0.14898445721409048),
        (0.6944236649249639, -0.8214281218256281, 0.5674192080242996, 1.2618428729492634),
        (0.9059525451099483, -0.983172715319787, 0.8287323749001094, 1.7346849200100576),
    ],
)
def test_a_gap_of_epsilon_where_cells_of_side_epsilon_round_two_apart(eps, lo, p, q):
    """``q - p`` is epsilon to the last bit, so the mask accepts the pair,
    yet ``int((q - lo) / eps) - int((p - lo) / eps) == 2``: cells of side
    exactly epsilon would not be neighbours.  The side's relative margin
    keeps them so.  Copies of the row at ``lo`` let epsilon, not the
    extent, size the cells."""
    assert int((q - lo) / eps) - int((p - lo) / eps) == 2
    a = np.array([[lo, 0.0, lo, 0.0]] * 4 + [[p, 0.0, p, 0.0]])
    b = np.array([[q, 0.0, q, 0.0]])
    items = [(a, np.arange(5), b, np.array([7]))]
    predicate = WithinDistancePredicate(eps)
    assert _expected(items, predicate) == [[(4, 7)]]
    assert _per_item(grid_hash_join_batch(items, predicate)) == [[(4, 7)]]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # the scalar oracle's arithmetic
@pytest.mark.parametrize(
    "predicate",
    [IntersectionPredicate(), WithinDistancePredicate(1.0), WithinDistancePredicate(1e308)],
    ids=["intersects", "within-1", "within-1e308"],
)
def test_an_extent_beyond_the_float_range(predicate):
    """Rows near -1e308 and +1e308 in one item: its extent overflows to
    infinity, and the item is one cell rather than an error."""
    a = np.array([[-1e308, 0.0, -1e308, 0.0], [1e308, -1e308, 1e308, 1e308], [0.0, 0.0, 0.5, 0.5]])
    b = np.array([[1e308, 0.0, 1e308, 0.0], [-1e308, 0.0, -1e308, 1.0], [0.25, 0.25, 2.0, 2.0]])
    items = [(a, np.arange(3), b, np.arange(3) + 10), (a[2:], np.arange(1), b[2:], np.arange(1))]
    want = _expected(items, predicate)
    assert want[0]
    assert _per_item(grid_hash_join_batch(items, predicate)) == want


def test_many_one_row_items_beside_one_large_item():
    """Four hundred one-row items around one 20k-row item of clustered
    points and a few wide boxes: every item's answer is its own."""
    rng = np.random.default_rng(11)
    centres = rng.uniform(0.0, 1.0, size=(40, 2))
    pts = centres[rng.integers(0, 40, size=20000)] + rng.normal(0.0, 0.02, size=(20000, 2))
    big_a = np.hstack([pts[:10000], pts[:10000]])
    big_b = np.hstack([pts[10000:], pts[10000:]])
    big_b[::1000, 2:] += 0.05  # a few extended rows on the B side
    one = rng.uniform(0.0, 1.0, size=(400, 2, 2))
    items = []
    for k in range(400):
        if k == 200:
            items.append((big_a, np.arange(10000), big_b, np.arange(10000) + 10**6))
        a_row = np.hstack([one[k, 0], one[k, 0]])[None]
        near = one[k, 0] + 0.001 if k % 2 else one[k, 1]  # every other one pairs
        b_row = np.hstack([near, near + 0.01])[None]
        items.append((a_row, np.array([k]), b_row, np.array([k + 1])))
    predicate = WithinDistancePredicate(0.002)
    got = _per_item(grid_hash_join_batch(items, predicate))
    want = _expected(items, predicate)
    assert len(want[200]) > 5000 and sum(map(len, want)) >= len(want[200]) + 200
    assert got == want


def test_items_with_an_empty_side_answer_nothing():
    rng = np.random.default_rng(5)
    full, oids = _side(rng, 30, (1.0,), "boxes")
    empty = (np.empty((0, 4)), np.empty(0, dtype=np.int64))
    items = [(full, oids, *empty), (*empty, full, oids), (full, oids, full, oids), (*empty, *empty)]
    predicate = WithinDistancePredicate(1.0)
    got = _per_item(grid_hash_join_batch(items, predicate))
    assert got[0] == got[1] == got[3] == [] and got[2] == _expected(items[2:3], predicate)[0]
    assert _per_item(grid_hash_join_batch(items[:2], IntersectionPredicate())) == [[], []]


class TestCellJoinSortsOnce:
    """One kernel call sorts one integer array per chunk of items the
    transient budget cuts it into, whatever their shape: the B side by cell
    id (an item larger than a chunk sorts once per band of its cell rows;
    none here is).  No float ``argsort``, no ``searchsorted`` and no ``lexsort``
    (the grid-hash-plus-sweep kernel it replaced sorted both sides of every
    bucket by a float key and ran four ``searchsorted`` passes)."""

    @staticmethod
    def _batch(shape: str):
        rng = np.random.default_rng(len(shape))
        if shape == "one-large-item":
            a = np.hstack([rng.random((6000, 2))] * 2)
            a[:, 2:] += 0.001
            return JoinBatch.one(a, np.arange(6000), a + 0.0005, np.arange(6000))
        if shape == "level":
            items = []
            for k in range(400):
                corner = rng.random(2)
                a = np.hstack([corner + rng.random((40, 2)) * 0.01] * 2)
                a[:, 2:] += 0.001
                items.append((a, np.arange(40), a[::-1] + 0.0005, np.arange(40)))
            return JoinBatch.from_items(items)
        lo = rng.random((3000, 2))
        wide = np.hstack([lo, lo + rng.random((3000, 2)) * 0.05])
        return JoinBatch.one(wide, np.arange(3000), wide[::-1].copy(), np.arange(3000))

    @staticmethod
    def _chunks(batch) -> int:
        """The chunks the budget cuts a batch of equal items into: as many
        whole items as its rows hold, at least one."""
        items = batch.a_bounds.shape[0] - 1
        rows = (batch.a_bounds[-1] + batch.b_bounds[-1]) // items
        per_chunk = max(1, budget.chunk_rows(hash_join._ROW_BYTES) // rows)
        return -(-items // per_chunk)

    @pytest.mark.parametrize("shape", ["one-large-item", "level", "extended"])
    @pytest.mark.parametrize("predicate", [IntersectionPredicate(), WithinDistancePredicate(0.002)])
    def test_one_integer_argsort_and_no_search(self, shape, predicate, monkeypatch):
        batch = self._batch(shape)
        chunks = self._chunks(batch)
        # The level's 400 items of 80 rows span several chunks.
        assert (chunks > 1) == (shape == "level")
        calls = defaultdict(int)
        for name in ("argsort", "searchsorted", "lexsort"):
            original = getattr(np, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                kind = "int" if np.asarray(args[0]).dtype.kind in "iu" else "float"
                calls[f"{_name}:{kind}"] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        pairs, _ = grid_hash_join_batch(batch, predicate)
        monkeypatch.undo()
        assert pairs.shape[0] > 0
        assert dict(calls) == {"argsort:int": chunks}
