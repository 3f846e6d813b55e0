"""A forest descent equals its trees' descents; column kernels equal row-wise ones.

``FlatRTree.forest`` lays several trees out as one index and the batch
queries start every row at its own root.  Two contracts are pinned here:

* **forest = per-tree.**  Row ``i`` of a ``roots=`` batch is answered
  exactly as the same row of a batch against its own tree -- count, entry
  rows and entry *order* -- with the entry positions shifted by the tree's
  offset in the forest.  Entry order is wire format: it decides payload
  order, hence pair order, hence traces.
* **columns = rows.**  Without ``roots`` the batch queries return, with
  ``==``, what the row-wise descents of ``tests/oracles/flat_rowwise.py``
  (the package's own until PR 18) return, and the page slots' window test
  and the ``_reaches`` column kernel equal the ``~(a < b)`` row-wise forms
  on the same inputs.
  Inputs are NaN-free by the typed boundary (``as_mbr_array``,
  ``validate_window``, ``window_array``, ``probe_arrays`` and ``JoinSpec``
  reject non-finite values), which is the only case the two forms could
  differ in.
* **pages = arrays** (PR 24).  The page table the batch descents read is
  derived from the nine constructor arrays: every real slot is the child
  box / entry MBR those arrays give (maxima negated), every slot reference
  round-trips to the child id / entry row, everything else is ``nan``
  padding -- and the descents stay ``==`` the row-wise oracle and the
  per-tree loop on windows chosen to sit on slot and page boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AdHocJoinSession
from repro.datasets.synthetic import clustered
from repro.index import flat
from repro.index.flat import FlatRTree
from repro.server.remote import ServerPair

from tests.oracles import flat_rowwise
from tests.test_flat_build import GEOMETRIES, _mbrs

TREE_COUNTS = (1, 2, 16)


def _forest(n_trees: int, geometry: str, fanout: int, seed: int):
    """``n_trees`` trees over overlapping slabs, some of them empty.

    Returns ``(forest, members, twins)``: the trees the forest adopted
    (their entries now slices of it) and separately built, untouched twins
    -- the per-tree oracle.
    """
    rng = np.random.default_rng(seed)
    members, twins = [], []
    for t in range(n_trees):
        n = int(rng.choice([0, 1, fanout, fanout + 1, 70, 300]))
        mbrs = _mbrs(n, geometry, seed + t) * [0.5, 1.0, 0.5, 1.0] + [t * 0.3, 0.0, t * 0.3, 0.0]
        oids = rng.permutation(n).astype(np.int64) + 1000 * t
        members.append(FlatRTree.from_mbr_array(mbrs, oids, fanout))
        twins.append(FlatRTree.from_mbr_array(mbrs, oids, fanout))
    return FlatRTree.forest(members), members, twins


def _windows(n_trees: int, seed: int) -> np.ndarray:
    """Windows hitting no tree, one tree, a few and all of them."""
    rng = np.random.default_rng(seed)
    span = 0.3 * n_trees + 0.5
    lo = rng.random((24, 2)) * [span, 1.0]
    small = np.hstack([lo, lo + rng.random((24, 2)) * 0.2])
    fixed = np.array(
        [
            [-5.0, -5.0, -4.0, -4.0],  # misses everything
            [-1.0, -1.0, span + 1.0, 2.0],  # covers every tree
            [0.0, 0.0, 0.0, 0.0],  # a point at the origin (an empty tree's root box)
            [0.1, 0.2, 0.1, 0.9],  # zero-width
            [0.25, 0.75, 0.25, 0.75],  # the coincident point of tree 0
        ]
    )
    return np.vstack([fixed, small])


def _rows(n_trees: int, n_windows: int, seed: int):
    """``(tree, window)`` rows: every pair once, shuffled."""
    tree, window = np.divmod(np.random.default_rng(seed).permutation(n_trees * n_windows), n_windows)
    return tree, window


def _per_tree_csr(forest, trees, tree_of_row, answers):
    """Per-tree CSR answers (one batch per tree) re-assembled row for row."""
    per_row = [None] * tree_of_row.shape[0]
    for t, (rows_of_t, (bounds, ent)) in answers.items():
        shifted = ent + forest.ent_start[forest.roots[t]]
        for j, row in enumerate(rows_of_t.tolist()):
            per_row[row] = shifted[bounds[j] : bounds[j + 1]]
    return per_row


@settings(max_examples=40, deadline=None)
@given(
    n_trees=st.sampled_from(TREE_COUNTS),
    geometry=st.sampled_from(GEOMETRIES),
    fanout=st.sampled_from((4, 16)),
    seed=st.integers(0, 2**16),
)
def test_forest_descent_equals_per_tree_loop(n_trees, geometry, fanout, seed):
    forest, members, trees = _forest(n_trees, geometry, fanout, seed)
    wins = _windows(n_trees, seed)
    tree_of_row, window_of_row = _rows(n_trees, wins.shape[0], seed)
    row_wins = wins[window_of_row]
    roots = forest.roots[tree_of_row]
    assert forest.size == sum(t.size for t in trees)

    counts = forest.count_batch(row_wins, roots)
    bounds, ent = forest.window_batch_flat(row_wins, roots)
    pts = row_wins[:, :2]
    radii = (row_wins[:, 2] - row_wins[:, 0]) * 0.5
    r_bounds, r_ent = forest.range_batch_flat(pts, radii, roots)

    want_window, want_range = {}, {}
    for t, tree in enumerate(trees):
        mine = np.flatnonzero(tree_of_row == t)
        assert counts[mine].tolist() == tree.count_batch(row_wins[mine]).tolist()
        want_window[t] = (mine, tree.window_batch_flat(row_wins[mine]))
        adopted = members[t].window_batch_flat(row_wins[mine])  # a member still answers alone
        assert all(np.array_equal(a, b) for a, b in zip(adopted, want_window[t][1]))
        want_range[t] = (mine, tree.range_batch_flat(pts[mine], radii[mine]))
    for got_bounds, got_ent, want in (
        (bounds, ent, want_window),
        (r_bounds, r_ent, want_range),
    ):
        per_row = _per_tree_csr(forest, trees, tree_of_row, want)
        for row, expected in enumerate(per_row):
            got = got_ent[got_bounds[row] : got_bounds[row + 1]]
            assert got.tolist() == expected.tolist(), row  # entry order included
    # The payload a forest row gathers is the payload its tree gathers.
    mbrs, oids = forest.entries_at(ent)
    for t, (mine, (t_bounds, t_ent)) in want_window.items():
        t_mbrs, t_oids = trees[t].entries_at(t_ent)
        for j, row in enumerate(mine.tolist()):
            got, want = slice(bounds[row], bounds[row + 1]), slice(t_bounds[j], t_bounds[j + 1])
            assert np.array_equal(mbrs[got], t_mbrs[want])
            assert np.array_equal(oids[got], t_oids[want])


def test_forest_members_are_slices_of_the_forest():
    forest, members, twins = _forest(16, "rects", 8, seed=3)
    for t, (tree, twin) in enumerate(zip(members, twins)):
        assert np.array_equal(tree.entry_mbrs, twin.entry_mbrs)
        lo = forest.ent_start[forest.roots[t]]
        assert np.shares_memory(tree.entry_cols, forest.entry_cols) or tree.size == 0
        assert np.array_equal(tree.entry_mbrs, forest.entry_mbrs[lo : lo + tree.size])
        assert np.array_equal(tree.entry_oids, forest.entry_oids[lo : lo + tree.size])
    assert forest.boxes.base is forest.node_cols  # (n, 4) views, nothing held twice
    assert forest.entry_mbrs.base is forest.entry_cols
    assert FlatRTree.from_mbr_array(np.zeros((0, 4))).roots.tolist() == [0]


@settings(max_examples=60, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    fanout=st.sampled_from((4, 8, 16)),
    n=st.sampled_from([0, 1, 16, 17, 257, 900]),
    seed=st.integers(0, 2**16),
)
def test_without_roots_equals_the_rowwise_descents(geometry, fanout, n, seed):
    tree = FlatRTree.from_mbr_array(_mbrs(n, geometry, seed), max_entries=fanout)
    wins = _windows(1, seed)
    assert tree.count_batch(wins).tolist() == flat_rowwise.count_batch(tree, wins).tolist()
    for got, want in (
        (tree.window_batch_flat(wins), flat_rowwise.window_batch_flat(tree, wins)),
        (
            tree.range_batch_flat(wins[:, :2], wins[:, 2] - wins[:, 0]),
            flat_rowwise.range_batch_flat(tree, wins[:, :2], wins[:, 2] - wins[:, 0]),
        ),
    ):
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()


@settings(max_examples=100, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    k=st.integers(0, 200),
    seed=st.integers(0, 2**16),
)
def test_column_kernels_equal_the_rowwise_forms(geometry, k, seed):
    # NaN-free inputs: the typed boundary rejects non-finite coordinates,
    # windows and radii before any index sees them.
    rng = np.random.default_rng(seed)
    boxes = _mbrs(k, geometry, seed)
    wins = _mbrs(k, "wide" if seed % 2 else geometry, seed + 1)
    if k:  # touching edges and identical rows: the closed-interval cases
        wins[0] = boxes[0]
        wins[-1, :2] = boxes[-1, 2:]
    pts, radii = wins[:, :2], rng.random(k) * 0.3 * (seed % 3)
    box_cols = np.ascontiguousarray(boxes.T)
    # A window's page test: box ``k`` as the one slot of page ``k``, row ``k``'s window.
    met, _ = flat._window_tests(wins)
    slots = (box_cols * flat._SIGN[:, None])[:, :, None]
    assert np.array_equal(met(slots, np.arange(k))[:, 0], flat_rowwise.meets(boxes, wins))
    assert np.array_equal(
        flat._reaches(box_cols, np.ascontiguousarray(pts.T), radii),
        flat_rowwise.reaches(boxes, pts, radii),
    )


@pytest.mark.parametrize("n_trees", TREE_COUNTS)
def test_empty_forest_and_empty_batches(n_trees):
    forest = FlatRTree.forest([FlatRTree.from_mbr_array(np.zeros((0, 4))) for _ in range(n_trees)])
    wins = _windows(n_trees, 0)
    roots = forest.roots[np.arange(wins.shape[0]) % n_trees]
    assert forest.count_batch(wins, roots).tolist() == [0] * wins.shape[0]
    assert forest.window_batch_flat(wins, roots)[1].shape == (0,)
    assert forest.range_batch_flat(wins[:, :2], wins[:, 2], roots)[0].tolist() == [0] * (wins.shape[0] + 1)
    full, _, _ = _forest(n_trees, "rects", 8, seed=1)
    none = np.zeros((0, 4))
    assert full.count_batch(none, full.roots[:0]).shape == (0,)
    assert full.window_batch_flat(none, full.roots[:0])[0].tolist() == [0]


# ---------------------------------------------------------------------- #
# the page table (PR 24)
# ---------------------------------------------------------------------- #

SCALES = (1e-9, 1.0, 1e12)
FLOAT_MAX = np.finfo(np.float64).max


def _page_sizes(fanout: int):
    """Tree sizes with partly filled last pages at every level."""
    return [0, 1, fanout, fanout + 1, fanout * fanout + 1, 70, 300]


def _assert_pages_equal_arrays(index: FlatRTree) -> None:
    pages, base = index._page_table()
    n_nodes = index.is_leaf.shape[0]
    # No page for a root: a descent starts by opening the root node itself.
    assert pages.dtype == np.float64 and pages.shape[:2] == (4, n_nodes) and base.shape == (n_nodes,)
    for v in range(n_nodes):
        if index.is_leaf[v]:
            below = np.arange(index.ent_start[v], index.ent_end[v])
            boxes, refs = index.entry_mbrs[below], base[v] + np.arange(below.shape[0])
        else:
            below = index.child_ids[index.child_start[v] : index.child_end[v]]
            boxes, refs = index.boxes[below], index.child_ids[base[v] : base[v] + below.shape[0]]
        width = below.shape[0]
        assert refs.tolist() == below.tolist(), v  # child ids / entry rows round-trip
        assert np.array_equal(pages[:, v, :width], (boxes * [1.0, 1.0, -1.0, -1.0]).T), v
        assert np.isnan(pages[:, v, width:]).all(), v  # padding can match nothing


@settings(max_examples=40, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    fanout=st.sampled_from((4, 8, 16)),
    n_trees=st.sampled_from(TREE_COUNTS),
    seed=st.integers(0, 2**16),
)
def test_page_table_equals_the_nine_arrays(geometry, fanout, n_trees, seed):
    rng = np.random.default_rng(seed)
    sizes = rng.choice(_page_sizes(fanout), n_trees).tolist()  # unequal heights, empty trees
    if n_trees == 1 and seed % 4 == 0:
        sizes = [5000 + seed % 17]
    trees = [
        FlatRTree.from_mbr_array(_mbrs(n, geometry, seed + t), max_entries=fanout)
        for t, n in enumerate(sizes)
    ]
    for tree in trees:
        _assert_pages_equal_arrays(tree)
    forest = FlatRTree.forest(trees)
    _assert_pages_equal_arrays(forest)
    assert forest._page_table()[0].shape[2] == max(t._page_table()[0].shape[2] for t in trees)


def _boundary_windows(mbrs: np.ndarray, tree: FlatRTree, seed: int) -> np.ndarray:
    """Windows on the comparisons' edges: equal to a box, touching one from
    each side, degenerate at a corner, around the last real slot of every
    partly filled leaf page, the largest finite window, and far misses."""
    rng = np.random.default_rng(seed)
    last = tree.ent_end[tree.is_leaf & (tree.ent_end > tree.ent_start)] - 1
    picked = np.concatenate([last[:12], rng.integers(0, mbrs.shape[0], 12)])
    boxes = np.vstack([tree.entry_mbrs[picked], tree.boxes[rng.integers(0, tree.boxes.shape[0], 6)]])
    x0, y0, x1, y1 = boxes.T
    span = (mbrs[:, 2:].max(axis=0) - mbrs[:, :2].min(axis=0)).max() + 1.0
    return np.vstack(
        [
            boxes,  # equals a box exactly: met and covered
            np.column_stack([x1, y1, x1 + span, y1 + span]),  # touches its upper corner
            np.column_stack([x0 - span, y0 - span, x0, y0]),  # ... and its lower one
            np.column_stack([x0, y0, x0, y0]),  # zero area, on a corner
            np.column_stack([x0, y0 - span, x0, y1 + span]),  # zero width, through an edge
            np.column_stack([np.nextafter(x1, np.inf), y0, x1 + span, y1]),  # one ulp off: misses
            [[-FLOAT_MAX, -FLOAT_MAX, FLOAT_MAX, FLOAT_MAX], [FLOAT_MAX, FLOAT_MAX, FLOAT_MAX, FLOAT_MAX]],
        ]
    )


@settings(max_examples=60, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    fanout=st.sampled_from((4, 8, 16)),
    scale=st.sampled_from(SCALES),
    n_trees=st.sampled_from((1, 3)),
    seed=st.integers(0, 2**16),
)
def test_descents_on_slot_and_page_boundaries(geometry, fanout, scale, n_trees, seed):
    rng = np.random.default_rng(seed)
    sizes = [int(n) for n in rng.choice(_page_sizes(fanout)[1:], n_trees)]
    data = [_mbrs(n, geometry, seed + t) * scale + t * 0.3 * scale for t, n in enumerate(sizes)]
    twins = [FlatRTree.from_mbr_array(mbrs, max_entries=fanout) for mbrs in data]
    wins = np.vstack([_boundary_windows(mbrs, twin, seed) for mbrs, twin in zip(data, twins)])
    # Probes at the windows' corners (the largest-float rows would overflow
    # a distance): radius 0, the exact gap to the far corner, and half of it.
    sane = np.where(np.abs(wins) == FLOAT_MAX, 0.0, wins)
    pts = sane[:, :2]
    radii = np.hypot(sane[:, 2] - sane[:, 0], sane[:, 3] - sane[:, 1]) * (np.arange(wins.shape[0]) % 3) / 2
    for tree in twins:  # no ``roots``: the row-wise oracle
        assert tree.count_batch(wins).tolist() == flat_rowwise.count_batch(tree, wins).tolist()
        for got, want in (
            (tree.window_batch_flat(wins), flat_rowwise.window_batch_flat(tree, wins)),
            (tree.range_batch_flat(pts, radii), flat_rowwise.range_batch_flat(tree, pts, radii)),
        ):
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tolist() == want[1].tolist()  # entry order included
    if n_trees == 1:
        return
    # ``roots``: every (tree, window) row of one forest descent is its tree's answer.
    forest = FlatRTree.forest([FlatRTree.from_mbr_array(m, max_entries=fanout) for m in data])
    tree_of_row, window_of_row = _rows(n_trees, wins.shape[0], seed)
    row_wins, roots = wins[window_of_row], forest.roots[tree_of_row]
    counts = forest.count_batch(row_wins, roots)
    answers = {
        "window": forest.window_batch_flat(row_wins, roots),
        "range": forest.range_batch_flat(pts[window_of_row], radii[window_of_row], roots),
    }
    want = {"window": {}, "range": {}}
    for t, tree in enumerate(twins):
        mine = np.flatnonzero(tree_of_row == t)
        assert counts[mine].tolist() == tree.count_batch(row_wins[mine]).tolist()
        want["window"][t] = (mine, tree.window_batch_flat(row_wins[mine]))
        want["range"][t] = (mine, tree.range_batch_flat(pts[window_of_row][mine], radii[window_of_row][mine]))
    for kind, (got_bounds, got_ent) in answers.items():
        for row, expected in enumerate(_per_tree_csr(forest, twins, tree_of_row, want[kind])):
            assert got_ent[got_bounds[row] : got_bounds[row + 1]].tolist() == expected.tolist(), (kind, row)


def test_pages_exist_once_per_index_that_answers_batches():
    """A fleet pays for one page table -- the forest's -- however it is
    sharded, replicated, primed, connected to or queried; shard trees never
    build one.  Priming builds it before the first query, which then reads it."""
    r = clustered(n=3000, clusters=8, seed=5, std=0.05, name="R")
    s = clustered(n=3000, clusters=8, seed=6, std=0.05, name="S")
    session = AdHocJoinSession(
        r, s, buffer_size=100, indexed=False, shards_r=4, shards_s=4, shard_scheme="str", replicas=2
    )
    fleets = (session.server_r, session.server_s)
    for fleet in fleets:
        fleet.prime_snapshot()
    primed = [fleet.forest._pages for fleet in fleets]
    assert all(table is not None for table in primed)
    for fleet in fleets:
        assert all(replica.index.flat._pages is None for replica in fleet.breaker_units())
    found = {session.run(algorithm, epsilon=0.01).num_pairs for algorithm in ("upjoin", "srjoin", "mobijoin")}
    assert len(found) == 1 and found.pop() > 0
    for fleet, table in zip(fleets, primed):
        assert fleet.forest._pages is table  # the primed table answered the runs
        assert fleet.forest._page_table() is table  # built once
        proxy = ServerPair.connect(fleet, fleet).r
        proxy.count_batch([fleet.dataset.bounds()])
        assert proxy.backing_server.forest._pages is table
        for replica in fleet.breaker_units():
            assert replica.index.flat._pages is None
            assert replica.replica_view("x").index.flat is replica.index.flat


def test_priming_a_plain_server_builds_the_table_its_queries_read():
    r = clustered(n=3000, clusters=8, seed=5, std=0.05, name="R")
    s = clustered(n=3000, clusters=8, seed=6, std=0.05, name="S")
    session = AdHocJoinSession(r, s, buffer_size=100)
    trees = [server.index.flat for server in (session.server_r, session.server_s)]
    for server in (session.server_r, session.server_s):
        server.prime_snapshot()
    primed = [tree._pages for tree in trees]
    assert all(table is not None for table in primed)
    assert session.run("upjoin", epsilon=0.01).num_pairs > 0
    assert all(tree._pages is table for tree, table in zip(trees, primed))


def test_page_table_costs_one_copy_of_the_entries():
    data = clustered(n=20000, clusters=128, seed=41000)
    tree = FlatRTree.from_mbr_array(data.mbrs, max_entries=16)
    pages, base = tree._page_table()
    inner = np.count_nonzero(~tree.is_leaf) * pages[:, 0].nbytes  # no root page
    assert pages.shape[1] == tree.is_leaf.shape[0]
    assert pages.nbytes + base.nbytes <= 1.1 * tree.entry_cols.nbytes + inner
