"""The row-wise batch descents ``FlatRTree`` shipped until PR 18.

Frozen as the oracle of the column kernels: the same level-synchronous
traversal, but every step fancy-indexes ``(n, 4)`` row arrays
(``tree.boxes[nodes]``, ``tree.entry_mbrs[ent]``) and compares their
strided columns with the ``~(a < b)`` form.  One tree, every row from
node 0.  The functions take any :class:`~repro.index.flat.FlatRTree`.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.rect_array import expand_index_ranges


def meets(boxes: np.ndarray, wins: np.ndarray) -> np.ndarray:
    """``(k, 4)`` boxes against ``(k, 4)`` windows, row by row."""
    return ~(
        (boxes[:, 2] < wins[:, 0])
        | (wins[:, 2] < boxes[:, 0])
        | (boxes[:, 3] < wins[:, 1])
        | (wins[:, 3] < boxes[:, 1])
    )


def reaches(boxes: np.ndarray, pts: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """``(k, 4)`` boxes within ``radii`` of their ``(k, 2)`` points, row by row."""
    dx = np.maximum(np.maximum(boxes[:, 0] - pts[:, 0], 0.0), pts[:, 0] - boxes[:, 2])
    dy = np.maximum(np.maximum(boxes[:, 1] - pts[:, 1], 0.0), pts[:, 1] - boxes[:, 3])
    return np.hypot(dx, dy) <= radii


def _frontier(tree, wins):
    boxes = np.ascontiguousarray(tree.boxes)
    nodes = np.zeros(wins.shape[0], dtype=np.intp)
    qids = np.arange(wins.shape[0], dtype=np.intp)
    while nodes.shape[0]:
        nb, wb = boxes[nodes], wins[qids]
        inter = meets(nb, wb)
        nodes, qids, nb, wb = nodes[inter], qids[inter], nb[inter], wb[inter]
        if nodes.shape[0] == 0:
            return
        contained = (
            (wb[:, 0] <= nb[:, 0])
            & (wb[:, 1] <= nb[:, 1])
            & (nb[:, 2] <= wb[:, 2])
            & (nb[:, 3] <= wb[:, 3])
        )
        partial_nodes, partial_qids = nodes[~contained], qids[~contained]
        leaf = tree.is_leaf[partial_nodes]
        yield qids[contained], nodes[contained], partial_nodes[leaf], partial_qids[leaf]
        in_nodes, in_qids = partial_nodes[~leaf], partial_qids[~leaf]
        row, kid = expand_index_ranges(tree.child_start[in_nodes], tree.child_end[in_nodes])
        nodes, qids = tree.child_ids[kid], in_qids[row]


def _flatten(q_chunks, e_chunks, n_queries):
    if not q_chunks:
        return np.zeros(n_queries + 1, dtype=np.intp), np.empty(0, dtype=np.intp)
    q, e = np.concatenate(q_chunks), np.concatenate(e_chunks)
    order = np.argsort(q, kind="stable")
    return np.searchsorted(q[order], np.arange(n_queries + 1)), e[order]


def count_batch(tree, wins):
    out = np.zeros(wins.shape[0], dtype=np.int64)
    entry_mbrs = np.ascontiguousarray(tree.entry_mbrs)
    for qids, contained_node, part_nodes, part_qids in _frontier(tree, wins):
        np.add.at(out, qids, tree.ent_end[contained_node] - tree.ent_start[contained_node])
        row, ent = expand_index_ranges(tree.ent_start[part_nodes], tree.ent_end[part_nodes])
        hit = meets(entry_mbrs[ent], wins[part_qids[row]])
        np.add.at(out, part_qids[row[hit]], 1)
    return out


def window_batch_flat(tree, wins):
    entry_mbrs = np.ascontiguousarray(tree.entry_mbrs)
    q_chunks, e_chunks = [], []
    for qids, contained_node, part_nodes, part_qids in _frontier(tree, wins):
        row, ent = expand_index_ranges(tree.ent_start[contained_node], tree.ent_end[contained_node])
        q_chunks.append(qids[row])
        e_chunks.append(ent)
        row, ent = expand_index_ranges(tree.ent_start[part_nodes], tree.ent_end[part_nodes])
        hit = meets(entry_mbrs[ent], wins[part_qids[row]])
        q_chunks.append(part_qids[row[hit]])
        e_chunks.append(ent[hit])
    return _flatten(q_chunks, e_chunks, wins.shape[0])


def range_batch_flat(tree, pts, radii):
    boxes = np.ascontiguousarray(tree.boxes)
    entry_mbrs = np.ascontiguousarray(tree.entry_mbrs)
    q_chunks, e_chunks = [], []
    nodes = np.zeros(pts.shape[0], dtype=np.intp)
    qids = np.arange(pts.shape[0], dtype=np.intp)
    while nodes.shape[0]:
        keep = reaches(boxes[nodes], pts[qids], radii[qids])
        nodes, qids = nodes[keep], qids[keep]
        leaf = tree.is_leaf[nodes]
        row, ent = expand_index_ranges(tree.ent_start[nodes[leaf]], tree.ent_end[nodes[leaf]])
        q = qids[leaf][row]
        hit = reaches(entry_mbrs[ent], pts[q], radii[q])
        q_chunks.append(q[hit])
        e_chunks.append(ent[hit])
        row, kid = expand_index_ranges(tree.child_start[nodes[~leaf]], tree.child_end[nodes[~leaf]])
        nodes, qids = tree.child_ids[kid], qids[~leaf][row]
    return _flatten(q_chunks, e_chunks, pts.shape[0])
