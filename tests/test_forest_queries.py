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
        node = slice(forest.roots[t], forest.roots[t] + tree.is_leaf.shape[0])
        assert np.shares_memory(tree.pages, forest.pages)  # a view: one table per forest
        assert tree.pages.shape == forest.pages[:, node].shape
        assert np.array_equal(tree.pages, forest.pages[:, node], equal_nan=True)
        assert np.shares_memory(tree.entry_oids, forest.entry_oids) or tree.size == 0
        assert np.array_equal(tree.entry_mbrs, forest.entry_mbrs[lo : lo + tree.size])
        assert np.array_equal(tree.entry_oids, forest.entry_oids[lo : lo + tree.size])
    assert forest.boxes.base is forest.node_cols  # (n, 4) views, nothing held twice
    assert not forest.pages.flags.writeable and not forest.entry_oids.flags.writeable
    assert not hasattr(forest, "entry_cols")  # the page table is the entries' store
    assert FlatRTree.from_mbr_array(np.zeros((0, 4))).roots.tolist() == [0]


#: Coordinates whose bits a careless round trip loses: signed zeros,
#: denormals and the extremes of the finite range.
HOSTILE = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e308, 1e308, np.finfo(float).max])


@settings(max_examples=80, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES + ("hostile",)),
    fanout=st.sampled_from((4, 16)),
    n=st.sampled_from([0, 1, 4, 17, 300]),
    n_trees=st.sampled_from((1, 3)),
    seed=st.integers(0, 2**16),
)
def test_entries_at_gives_back_the_constructor_entries_bit_for_bit(
    geometry, fanout, n, n_trees, seed
):
    """``entries_at(rows)`` is ``entry_cols.take(rows, axis=1).T`` of the block
    the constructor was given -- compared as ``int64`` bits, so ``-0.0``
    against ``0.0`` fails -- with the same ``(k, 4)`` column-contiguous
    layout and dtype, for a tree and for the forest that adopts it."""
    rng = np.random.default_rng(seed)
    trees, given_cols = [], []
    for t in range(n_trees):
        if geometry == "hostile":
            mbrs = np.sort(rng.choice(HOSTILE, (n, 2, 2)), axis=1).reshape(n, 4)  # lo <= hi
        else:
            mbrs = _mbrs(n, geometry, seed + t)
        with np.errstate(over="ignore"):  # centres of +-1e308 boxes: inf, and sorted as such
            built = FlatRTree.from_mbr_array(mbrs, max_entries=fanout)
        cols = np.ascontiguousarray(mbrs[built.entry_oids].T)  # oids are rows: entry order
        tree = FlatRTree(
            node_cols=built.node_cols,
            is_leaf=built.is_leaf,
            entry_cols=cols,
            entry_oids=built.entry_oids,
            ent_start=built.ent_start,
            ent_end=built.ent_end,
            child_start=built.child_start,
            child_end=built.child_end,
            child_ids=built.child_ids,
        )
        trees.append(tree)
        given_cols.append(cols)
    rows = [rng.integers(0, n, 2 * n) if n else np.zeros(0, dtype=np.intp) for _ in trees]
    rows = [np.concatenate([r, np.arange(n)]) for r in rows]  # every entry, and repeats
    for tree, cols, r in zip(trees, given_cols, rows):
        got, oids = tree.entries_at(r)
        want = cols.take(r, axis=1).T
        assert got.dtype == want.dtype and got.shape == want.shape == (r.shape[0], 4)
        assert got.flags.f_contiguous and got.T.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(oids, tree.entry_oids.take(r))
        assert np.array_equal(tree.entry_mbrs.view(np.int64), cols.T.view(np.int64))
    forest = FlatRTree.forest(trees)
    for t, (tree, cols, r) in enumerate(zip(trees, given_cols, rows)):
        lo = forest.ent_start[forest.roots[t]]
        want = cols.take(r, axis=1).T
        for got in (forest.entries_at(r + lo)[0], tree.entries_at(r)[0]):  # tree: a forest view now
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


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


def _assert_pages_equal_arrays(index: FlatRTree, entries: np.ndarray) -> None:
    """``index.pages`` against the node arrays and ``entries``, the ``(size, 4)``
    entry MBRs the index was built from."""
    pages = index.pages
    n_nodes = index.is_leaf.shape[0]
    # No page for a root: a descent starts by opening the root node itself.
    assert pages.dtype == np.float64 and pages.shape[:2] == (4, n_nodes)
    for v in range(n_nodes):
        if index.is_leaf[v]:
            below = np.arange(index.ent_start[v], index.ent_end[v])
            boxes = entries[below]
            assert np.array_equal(index.entries_at(below)[0], boxes), v  # entry rows round-trip
        else:
            below = index.child_ids[index.child_start[v] : index.child_end[v]]
            boxes = index.boxes[below]
        width = below.shape[0]
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
    data = [_mbrs(n, geometry, seed + t) for t, n in enumerate(sizes)]
    trees = [FlatRTree.from_mbr_array(mbrs, max_entries=fanout) for mbrs in data]
    entries = [mbrs[tree.entry_oids] for mbrs, tree in zip(data, trees)]  # oids are rows
    for tree, mine in zip(trees, entries):
        _assert_pages_equal_arrays(tree, mine)
    widths = [tree.pages.shape[2] for tree in trees]
    forest = FlatRTree.forest(trees)
    _assert_pages_equal_arrays(forest, np.concatenate(entries))
    assert forest.pages.shape[2] == max(widths)  # back to back, padded to the widest page


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


def _tables_opened(monkeypatch, run):
    """``run()``'s result and the page table every ``_open`` call of it read."""
    opened = []
    original = flat.FlatRTree._open

    def spy(self, nodes):
        opened.append(self.pages)
        return original(self, nodes)

    monkeypatch.setattr(flat.FlatRTree, "_open", spy)
    result = run()
    monkeypatch.undo()
    return result, opened


def test_pages_exist_once_per_index_that_answers_batches(monkeypatch):
    """A fleet pays for one page table -- the forest's -- however it is
    sharded, replicated, primed, connected to or queried: every shard tree's
    table is a read-only view of it, and every descent opens it."""
    r = clustered(n=3000, clusters=8, seed=5, std=0.05, name="R")
    s = clustered(n=3000, clusters=8, seed=6, std=0.05, name="S")
    session = AdHocJoinSession(
        r, s, buffer_size=100, shards_r=4, shards_s=4, shard_scheme="str", replicas=2
    )
    fleets = (session.server_r, session.server_s)
    built = [fleet.forest.pages for fleet in fleets]
    for fleet in fleets:
        fleet.prime_snapshot()  # builds nothing: the table came with the forest
    assert all(fleet.forest.pages is table for fleet, table in zip(fleets, built))
    for fleet, table in zip(fleets, built):
        for replica in fleet.breaker_units():
            assert replica.index.pages.base is table  # a view, not a table of its own
            assert not replica.index.pages.flags.writeable
    algorithms = ("upjoin", "srjoin", "mobijoin")
    found, opened = _tables_opened(
        monkeypatch, lambda: {session.run(name, epsilon=0.01).num_pairs for name in algorithms}
    )
    assert len(found) == 1 and found.pop() > 0
    assert opened and all(any(pages is table for table in built) for pages in opened)
    for fleet, table in zip(fleets, built):
        assert fleet.forest.pages is table  # the table built with the forest answered the runs
        proxy = ServerPair.connect(fleet, fleet).r
        proxy.count_batch([fleet.dataset.bounds()])
        assert proxy.backing_server.forest.pages is table
        for replica in fleet.breaker_units():
            assert replica.index.pages.base is table
            assert replica.replica_view("x").index is replica.index


def test_a_plain_server_builds_the_table_its_queries_read_with_its_index(monkeypatch):
    r = clustered(n=3000, clusters=8, seed=5, std=0.05, name="R")
    s = clustered(n=3000, clusters=8, seed=6, std=0.05, name="S")
    session = AdHocJoinSession(r, s, buffer_size=100)
    trees = [server.index for server in (session.server_r, session.server_s)]
    built = [tree.pages for tree in trees]
    assert all(table.shape[:2] == (4, tree.is_leaf.shape[0]) for table, tree in zip(built, trees))
    for server in (session.server_r, session.server_s):
        server.prime_snapshot()  # builds nothing
    assert all(tree.pages is table for tree, table in zip(trees, built))
    result, opened = _tables_opened(monkeypatch, lambda: session.run("upjoin", epsilon=0.01))
    assert result.num_pairs > 0
    assert opened and all(any(pages is table for table in built) for pages in opened)
    assert all(tree.pages is table for tree, table in zip(trees, built))


def test_page_table_costs_one_copy_of_the_entries():
    data = clustered(n=20000, clusters=128, seed=41000)
    tree = FlatRTree.from_mbr_array(data.mbrs, max_entries=16)
    pages = tree.pages
    inner = np.count_nonzero(~tree.is_leaf) * pages[:, 0].nbytes  # no root page
    entries = data.mbrs.nbytes  # one (size, 4) float64 block
    assert pages.shape[1] == tree.is_leaf.shape[0]
    assert pages.nbytes <= 1.1 * entries + inner
    # ... and the table is that one copy: no other array is as large as the entries.
    assert not hasattr(tree, "entry_cols")
    arrays = {name: value for name, value in vars(tree).items() if isinstance(value, np.ndarray)}
    by_size = [name for name, value in arrays.items() if value.size >= tree.size]
    assert sorted(by_size) == ["entry_oids", "pages"]


def _node_arrays(tree) -> int:
    """Bytes of the arrays sized by the nodes of ``tree`` (a ``FlatRTree``)."""
    held = [value for name, value in vars(tree).items() if name not in ("pages", "entry_oids")]
    held += list(tree._blocks)
    return sum(value.nbytes for value in held if isinstance(value, np.ndarray))


def test_a_built_server_holds_its_pages_oids_and_node_arrays_only():
    """A plain server over 20k points keeps the page table, the oids and
    node-sized arrays -- nothing the size of a second entry block (32 B per
    object, 0.61 MiB here), and no copy of the dataset."""
    import gc
    import tracemalloc

    from repro.server.server import SpatialServer

    data = clustered(n=20000, clusters=128, seed=41000)
    SpatialServer(clustered(n=500, seed=1), name="warm")  # imports, caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        server = SpatialServer(data, name="R")
        server.prime_snapshot()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tree = server.index
    allowed = tree.pages.nbytes + tree.entry_oids.nbytes + _node_arrays(tree)
    assert held <= allowed + 16 * 1024, (held, allowed)  # the slack: the Python objects
