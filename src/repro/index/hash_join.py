"""The in-memory join kernel: one epsilon-cell neighbourhood join.

Every leaf window ends in HBSJ: the PDA downloads ``Rw`` and ``Sw`` and
joins them in memory.  :func:`grid_hash_join_batch` joins all the windows
(*items*) of a frontier level in one pass, with no Python loop over items:

* each item gets its own grid of square cells of side
  ``max(eps * (1 + 2**-20) + 2**-500, extent / sqrt(rows / _PER_CELL))``
  over the union MBR of its two sides (``extent`` the longer of its width
  and height), with empty cells around it; the grids of all items share
  one global cell numbering, row-major, item after item;
* a row sits in every cell its own MBR covers (a point in one);
* the B side is sorted once by cell id (one integer ``argsort``) into a
  dense cell -> run table (``bincount`` + ``cumsum``);
* an A row reads, for every cell row of its footprint grown by one cell,
  the one contiguous run of B cells from one left of its first cell to one
  right of its last: a point reads the three runs of its 3 x 3
  neighbourhood;
* the candidates go through the exact mask in chunks of about
  ``chunk_rows(_CANDIDATE_BYTES)``, and
  :func:`~repro.index.pairs.unique_rows` sorts the accepted pairs by
  ``(item, a_oid, b_oid)`` and drops the repeats a B row covering several
  cells of one neighbourhood produced.

All of this runs a chunk of items at a time, so the working set follows the
transient budget (:mod:`repro.index.budget`), not the batch: about even
chunks of whole items, as many as the budget holds rows of.  Items share
nothing, so the chunks' pairs, one after the other, are the whole batch's.

An item larger than that is a chunk of its own, joined in *bands* of its
own grid's cell rows, each through a cell table of its own.  An A row
belongs to the band of its lowest cell row; a band takes the B rows whose
cell rows meet its A rows' cell rows grown by one, and its table holds
just those rows, ``low`` (one below its first) to ``high`` (one above its
A rows' top), each B row's cells clipped to them.  A cell row weighs its A
rows and the B rows that meet it grown by one, and the bands are about even
cuts of those weights, each within the budget.  Every band keeps the whole
item's cell side and origin, so a row's cells are the ones the item's one
table would give it.

The mask is the plane sweep's (``tests/oracles/plane_sweep_scalar.py``):
``dx <= 0 and dy <= 0`` without epsilon, else ``dx * dx + dy * dy <= eps *
eps`` and both x-cuts ``b.xmin <= a.xmax + eps``, ``a.xmin <= b.xmax +
eps``, ``dx`` / ``dy`` the two boxes' separations per axis.

Exactness.  Whenever the mask accepts ``(a, b)``, some cell of ``a`` and
some cell of ``b`` are at most one apart on each axis, so ``b`` is in a run
``a`` reads.  Per axis:

* *overlap*: the extents share a coordinate, and the cell index
  ``int((x - lo) / side)`` composes monotone rounded operations, so that
  coordinate's cell is in both rows' cell ranges.  The difference of two
  doubles is zero only when they are equal (gradual underflow), so without
  epsilon the mask accepts nothing else, at every scale.
* *gap* ``g > 0``: the mask holds ``fl(g)**2 <= eps**2`` up to rounding --
  relative ``2**-53`` per operation where the squares are normal, absolute
  ``2**-1075`` where they underflow -- so ``g <= eps * (1 + 2**-51) +
  2**-536``.  For a tiny epsilon that second term is all of it (and ``eps
  * (1 + 2**-20)`` rounds back to ``eps`` when epsilon is denormal): the
  absolute ``2**-500`` in the side covers it; from ``2**-480`` up the
  relative margin does.  Either way ``side > g * (1 + 2**-22)``.  So the
  two cell coordinates are less than ``1 - 2**-23`` apart before
  rounding, and rounding moves each by at most ``2**-52`` times the item's
  cell count (``<= 2 * sqrt(rows) + 1``), at any coordinate scale: the
  floors differ by at most one.

The top cell row and column of an item are those of its MBR's ``xmax`` /
``ymax``, by the very expression that places rows, so no row leaves its
grid, and the empty cells around it keep every read inside the item.

Bands change none of this.  An A row reads cell rows one below its first
to one above its last, all within its band's ``low..high``; every B row
with a cell there meets those rows, so the band took it, and the cells
clipping keeps are exactly its cells in those rows, laid out as in the
item's table (its ids shifted by one constant).  So an A row reads in its
band the very runs it would read in the item's one table, and each A row
is in one band: no new margin, and the pairs of the bands, one after the
other, are the item's.

Hence the output is the mask's pair set, item by item, sorted and
duplicate-free (``tests/test_cell_join.py``), at any budget
(``tests/test_transient_budget.py``).  :func:`grid_hash_join` is the
one-item case.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from repro.geometry.predicates import JoinPredicate, WithinDistancePredicate
from repro.geometry.rect_array import expand_index_ranges
from repro.index.budget import chunk_rows, cuts
from repro.index.pairs import unique_rows

__all__ = ["JoinBatch", "grid_hash_join", "grid_hash_join_batch"]

#: Rows (both sides) an item's cells hold on average, when its extent and
#: not epsilon sizes them.
_PER_CELL = 0.25
#: Working bytes per row of a join item, both sides: its cells, the B cell
#: table and an A row's runs (against the transient budget).
_ROW_BYTES = 208
#: Working bytes per candidate pair of a mask evaluation (against the
#: transient budget; whole runs: one run of more candidates is a chunk of
#: its own).
_CANDIDATE_BYTES = 128
#: The cell side's margins over epsilon: relative, and absolute for the
#: squares that underflow (see the module docstring).
_MARGIN = 2.0**-20
_FLOOR = 2.0**-500

JoinItem = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class JoinBatch(NamedTuple):
    """Many join items in CSR form, the shape ``window_batch_flat`` answers in.

    Item ``k`` joins rows ``a_bounds[k]:a_bounds[k+1]`` of the A side with
    rows ``b_bounds[k]:b_bounds[k+1]`` of the B side.
    """

    a_mbrs: np.ndarray
    a_oids: np.ndarray
    a_bounds: np.ndarray
    b_mbrs: np.ndarray
    b_oids: np.ndarray
    b_bounds: np.ndarray

    @classmethod
    def one(cls, a_mbrs, a_oids, b_mbrs, b_oids) -> "JoinBatch":
        """A batch of one item, its arrays taken as they are."""
        return cls(
            a_mbrs, a_oids, np.array([0, a_mbrs.shape[0]]),
            b_mbrs, b_oids, np.array([0, b_mbrs.shape[0]]),
        )

    @classmethod
    def from_items(cls, items: Sequence[JoinItem]) -> "JoinBatch":
        """Concatenate ``(a_mbrs, a_oids, b_mbrs, b_oids)`` tuples."""

        def side(mbrs: List[np.ndarray], oids: List[np.ndarray]):
            return (
                np.vstack([np.empty((0, 4)), *mbrs]),
                np.concatenate([np.empty(0, np.int64), *(np.asarray(o, np.int64) for o in oids)]),
                np.cumsum([0] + [m.shape[0] for m in mbrs]),
            )

        return cls(
            *side([it[0] for it in items], [it[1] for it in items]),
            *side([it[2] for it in items], [it[3] for it in items]),
        )


def grid_hash_join(
    a_mbrs: np.ndarray,
    a_oids: np.ndarray,
    b_mbrs: np.ndarray,
    b_oids: np.ndarray,
    predicate: JoinPredicate,
) -> List[Tuple[int, int]]:
    """Join two in-memory ``(N, 4)`` MBR arrays and their parallel oids
    under an intersection or epsilon-distance predicate: the sorted,
    duplicate-free ``(a_oid, b_oid)`` pairs."""
    pairs, _ = grid_hash_join_batch(JoinBatch.one(a_mbrs, a_oids, b_mbrs, b_oids), predicate)
    return list(map(tuple, pairs.tolist()))


def grid_hash_join_batch(
    items: Union[JoinBatch, Sequence[JoinItem]],
    predicate: JoinPredicate,
) -> Tuple[np.ndarray, np.ndarray]:
    """Join many independent windows; the pairs of all of them as one block.

    ``items`` is a :class:`JoinBatch` or a sequence of ``(a_mbrs, a_oids,
    b_mbrs, b_oids)`` tuples.  Returns ``(pairs, starts)``: a ``(k, 2)``
    ``int64`` block of ``(a_oid, b_oid)`` rows, item after item, each item's
    rows sorted and duplicate-free, item ``i`` owning rows
    ``starts[i]:starts[i + 1]``.

    The items are joined a chunk at a time (module docstring).
    """
    batch = items if isinstance(items, JoinBatch) else JoinBatch.from_items(items)
    n_items = batch.a_bounds.shape[0] - 1
    eps = predicate.probe_radius() if isinstance(predicate, WithinDistancePredicate) else 0.0
    a_bounds, b_bounds, limit = batch.a_bounds, batch.b_bounds, chunk_rows(_ROW_BYTES)
    # A batch that fits is one chunk: one comparison of its row count,
    # before the per-item sizes ``cuts`` needs are computed.
    if a_bounds[-1] - a_bounds[0] + b_bounds[-1] - b_bounds[0] <= limit:
        at = [0, n_items]
    else:
        at = cuts(np.diff(a_bounds) + np.diff(b_bounds), limit)
    parts = [_join_items(batch, lo, hi, eps) for lo, hi in zip(at, at[1:])]
    owner, a_oid, b_oid = map(_joined, zip(*parts))
    starts = np.zeros(n_items + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n_items), out=starts[1:])
    return np.column_stack((a_oid, b_oid)), starts


def _join_items(batch: JoinBatch, lo: int, hi: int, eps: float) -> List[np.ndarray]:
    """Items ``lo:hi`` of the batch: their accepted ``(item, a_oid, b_oid)``
    rows, sorted and duplicate-free."""
    a_bounds, b_bounds = batch.a_bounds[lo : hi + 1], batch.b_bounds[lo : hi + 1]
    live = (np.diff(a_bounds) > 0) & (np.diff(b_bounds) > 0)
    a, a_oids, n_a = _live_rows(batch.a_mbrs, batch.a_oids, a_bounds, live)
    b, b_oids, n_b = _live_rows(batch.b_mbrs, batch.b_oids, b_bounds, live)
    i_idx, j_idx = _cell_join(a, n_a, b, n_b, eps)
    owner = np.repeat(lo + live.nonzero()[0], n_a)[i_idx]
    a_oid, b_oid = a_oids[i_idx], b_oids[j_idx]
    del a, b, i_idx, j_idx

    # Sort by (item, a_oid, b_oid) and drop the repeats: one integer-key
    # sort of the triples.
    return unique_rows(owner, a_oid, b_oid)


def _live_rows(
    mbrs: np.ndarray, oids: np.ndarray, bounds: np.ndarray, live: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One side's rows of the ``live`` items: ``(4, n)`` coordinate columns
    (contiguous, as the batch endpoints' payloads already are), oids and
    rows per item."""
    counts = np.diff(bounds)
    rows = slice(bounds[0], bounds[-1])
    mbrs, oids = mbrs[rows], np.asarray(oids, dtype=np.int64)[rows]
    if not live.all():
        keep = np.repeat(live, counts)
        mbrs, oids, counts = mbrs[keep], oids[keep], counts[live]
    return np.ascontiguousarray(mbrs.T), oids, counts


def _cell_join(
    a: np.ndarray, n_a: np.ndarray, b: np.ndarray, n_b: np.ndarray, eps: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``(i, j)`` of A column ``i`` and B column ``j`` of one item that
    the mask accepts, each at least once.

    ``a`` / ``b`` are ``(4, n)`` coordinate columns holding the items' rows
    back to back, ``n_a`` / ``n_b`` the rows per item (none empty).  Items
    that fit the budget share one cell table; a larger one (always alone,
    :func:`~repro.index.budget.cuts`) is joined in bands of its cell rows.
    """
    if n_a.shape[0] == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    # Per item: the union MBR of both sides, the cell side and the cells per
    # axis (the highest is the cell of the MBR's top edge).
    first_a, first_b = np.cumsum(n_a) - n_a, np.cumsum(n_b) - n_b
    lo = np.minimum(
        np.minimum.reduceat(a[:2], first_a, axis=1), np.minimum.reduceat(b[:2], first_b, axis=1)
    )
    hi = np.maximum(
        np.maximum.reduceat(a[2:], first_a, axis=1), np.maximum.reduceat(b[2:], first_b, axis=1)
    )
    # An extent beyond the float range makes the side infinite: the item is
    # one cell (``fmax`` turns the ``inf / inf`` of its rows into 0).
    with np.errstate(over="ignore", invalid="ignore"):
        extent = hi - lo
        side = np.maximum(
            eps * (1.0 + _MARGIN) + _FLOOR, extent.max(axis=0) / np.sqrt((n_a + n_b) / _PER_CELL)
        )
        nx, ny = np.fmax(extent / side, 0.0).astype(np.intp) + 1
    limit = chunk_rows(_ROW_BYTES)
    if a.shape[1] + b.shape[1] <= limit:
        return _table_join(a, n_a, b, n_b, (lo, side, nx, ny), eps)
    return _band_join(a, b, (lo, side, nx, ny), eps, limit)


def _band_join(a, b, grid, eps: float, limit: int) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_cell_join` of one item of more than ``limit`` rows, in bands
    of its cell rows (``grid`` its ``(lo, side, nx, ny)``, kept in every
    band).

    An A row joins in the band of its lowest cell row, against the B rows
    that meet the band's A rows' cell rows grown by one: all it reads.  A
    cell row weighs what a band of that row alone holds -- the A rows that
    start in it and the B rows that meet it grown by one -- and the bands
    cut the rows at about even shares of those weights, no share above
    ``limit``.  Neighbouring rows share B rows, so a band holds no more than
    its weight, bar the B rows that its A rows reaching above its last row
    read there.
    """
    lo, side = grid[:2]
    ny = int(grid[3][0])
    y_a = _cell_rows(a[1], lo[1], side)
    y_b0, y_b1 = _cell_rows(b[1], lo[1], side), _cell_rows(b[3], lo[1], side)
    # How many B rows, grown by one, meet each cell row (entry k: row
    # k - 1), then the weights' running sum.
    meet = np.bincount(y_b0, minlength=ny + 3) - np.bincount(y_b1 + 3, minlength=ny + 3)
    end = np.cumsum(np.bincount(y_a, minlength=ny) + np.cumsum(meet)[1:-2])
    share = -(-end[-1] // -(-end[-1] // limit))
    at = [0, *(np.flatnonzero(np.diff((end - 1) // share)) + 1).tolist(), ny]
    del meet, end
    i_parts, j_parts = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for row_lo, row_hi in zip(at, at[1:]):
        a_at = np.flatnonzero((y_a >= row_lo) & (y_a < row_hi))
        if a_at.shape[0] == 0:
            continue
        band_a = a.take(a_at, axis=1)
        # Its reads: one row below its first and one above its A rows' top
        # (the highest ``ymax``'s, as the cell row is monotone in ``y``).
        rows = (row_lo - 1, int(_cell_rows(band_a[3].max(), lo[1], side)[0]) + 1)
        b_at = np.flatnonzero((y_b1 >= rows[0]) & (y_b0 <= rows[1]))
        if b_at.shape[0] == 0:
            continue
        i_idx, j_idx = _table_join(
            band_a, np.array(a_at.shape), b.take(b_at, axis=1), np.array(b_at.shape), grid, eps, rows
        )
        i_parts.append(a_at.take(i_idx))
        j_parts.append(b_at.take(j_idx))
    return np.concatenate(i_parts), np.concatenate(j_parts)


def _cell_rows(y: np.ndarray, lo: np.ndarray, side: np.ndarray) -> np.ndarray:
    """The cell rows of coordinates ``y`` of one item: the expression
    :func:`_table_join` places rows by, operation for operation."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = y - lo
        y /= side
        np.fmax(y, 0.0, out=y)
    return y.astype(np.intp)


def _table_join(a, n_a, b, n_b, grid, eps: float, rows=None) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_cell_join` through one cell table: the B rows sorted into it
    by cell id, the A rows reading it.

    ``grid`` is ``(lo, side, nx, ny)`` per item.  The table holds each
    item's cell rows with an empty row below and above, or, given ``rows =
    (low, high)`` for a band of one item, only cell rows ``low..high``: the
    B rows' cells beyond them go.
    """
    # Cell ``(x, y)`` of an item is ``base + (y - low) * (nx + 1) + x``,
    # ``low`` its table's lowest cell row, and one empty cell lies between
    # two rows -- to the right of one, the left of the next -- so every
    # neighbour an A row reads is inside its item's table.
    lo, side, nx, ny = grid
    low, height = (-1, ny + 2) if rows is None else (rows[0], rows[1] - rows[0] + 1)
    stride = nx + 1
    end = np.cumsum(stride * height)
    base = end - stride * height + 1  # and cell 0 is empty, left of the first row
    corner = np.concatenate([a, b], axis=1)
    lo = np.vstack([lo, lo])
    if n_a.shape[0] == 1:  # one item: its grid broadcasts over its rows
        stride = np.full(corner.shape[1], stride[0])
    else:  # each row takes its item's
        items = np.arange(n_a.shape[0])
        item = np.concatenate([np.repeat(items, n_a), np.repeat(items, n_b)])
        lo, side, stride, base = lo.take(item, axis=1), side.take(item), stride.take(item), base.take(item)
        del item
    with np.errstate(over="ignore", invalid="ignore"):
        # Both sides' rows at once: the cells of each row's low and high
        # corner, its item's row stride and the id of its first cell.
        corner -= lo
        corner /= side
        np.fmax(corner, 0.0, out=corner)
    x0, y0, x1, y1 = corner.astype(np.intp)
    split = a.shape[1]
    if rows is not None:  # the band's B rows meet rows low..high
        np.maximum(y0[split:], low, out=y0[split:])
        np.minimum(y1[split:], rows[1], out=y1[split:])
    cells = (x0, y0, x1, y1, stride, base + (y0 - low) * stride + x0)
    del lo, side, base, corner, x0, y0, x1, y1, stride

    # B: every cell a row covers, sorted by id into a cell -> run table.
    x0, y0, x1, y1, stride, cell = (v[split:] for v in cells)
    wide = x1 - x0 + 1
    covered = wide * (y1 - y0 + 1)
    b_rows = np.arange(covered.shape[0])
    if covered.shape[0] != covered.sum():  # some row covers more than one cell
        b_rows, rank = expand_index_ranges(np.zeros_like(covered), covered)
        wide = wide.take(b_rows)
        cell = cell.take(b_rows) + rank // wide * stride.take(b_rows) + rank % wide
    order = np.argsort(cell)  # the table's one sort
    b_rows = b_rows.take(order)
    b_cells = b.take(b_rows, axis=1)  # the rows of every cell, cell after cell
    run = np.zeros(end[-1] + 2, dtype=np.intp)
    np.cumsum(np.bincount(cell, minlength=run.shape[0] - 1), out=run[1:])
    del x0, y0, x1, y1, stride, cell, wide, covered, order

    # A: its cell arrays go as soon as its runs are found.
    cells = [v[:split] for v in cells]
    i_idx, j_idx = _read_runs(a, cells, run, b_cells, eps)
    return i_idx, b_rows.take(j_idx)


def _read_runs(a, cells: list, run, b_cells, eps: float) -> Tuple[np.ndarray, np.ndarray]:
    """The accepted ``(i, j)`` of A rows ``a`` (placed at ``cells``) and
    slots ``j`` of the cell table ``b_cells``: per cell row of an A row's
    footprint grown by one cell, one run of B cells, from one left of its
    first cell to one right of its last.  ``cells`` is emptied, so the cell
    arrays go once the runs are found."""
    x0, y0, x1, y1, stride, first = cells
    cells.clear()
    if np.array_equal(y0, y1):  # one cell tall: the three runs of 3 x 3 cells
        reader = np.repeat(np.arange(y0.shape[0]), 3)
        left = ((first - 1)[:, None] + np.array([-1, 0, 1]) * stride[:, None]).ravel()
    else:
        reader, k = expand_index_ranges(np.zeros_like(y0), y1 - y0 + 3)
        left = first.take(reader) + (k - 1) * stride.take(reader) - 1
    run_lo = run.take(left)
    count = run.take(left + (x1 - x0 + 3).take(reader)) - run_lo
    del x0, x1, y0, y1, stride, first, left

    # The candidates, run by run: candidate ``t`` of a run reads B slot
    # ``t + shift`` of its run.  Chunks hold whole runs.
    end = np.cumsum(count)
    shift = run_lo - end + count
    limit = chunk_rows(_CANDIDATE_BYTES)
    at = [0, end.shape[0]]
    if end[-1] > limit:
        at[1:1] = (np.flatnonzero(np.diff(end // limit)) + 1).tolist()
    i_parts, j_parts = [], []
    for start, stop in zip(at, at[1:]):
        take = count[start:stop]
        i_idx = np.repeat(reader[start:stop], take)
        slot = np.repeat(shift[start:stop], take)
        slot += np.arange(end[start] - take[0], end[stop - 1])
        keep = _mask(a.take(i_idx, axis=1), b_cells.take(slot, axis=1), eps)
        i_parts.append(i_idx[keep])
        j_parts.append(slot[keep])
    return _joined(i_parts), _joined(j_parts)


def _joined(parts: List[np.ndarray]) -> np.ndarray:
    """The chunks' arrays one after the other (one chunk as it is)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _mask(a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """The plane sweep's exact test between parallel ``(4, k)`` columns;
    ``d`` holds the separations ``(dx, dy)`` of each pair."""
    with np.errstate(over="ignore"):  # a separation beyond the float range is inf
        d = np.maximum(np.maximum(a[:2] - b[2:], 0.0), b[:2] - a[2:])
        if eps > 0.0:
            d *= d
            mask = d[0] + d[1] <= eps * eps
            mask &= b[0] <= a[2] + eps
            mask &= a[0] <= b[2] + eps
            return mask
    # Touching or overlapping extents: the x-cut is the predicate's own.
    return (d <= 0.0).all(axis=0)
