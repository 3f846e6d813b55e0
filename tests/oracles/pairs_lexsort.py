"""The ``lexsort`` dedupes ``repro.index.pairs`` / ``repro.index.hash_join`` shipped at c645f5d.

Oracle of :func:`repro.index.pairs.unique_rows` and :func:`~repro.index.
pairs.unique_pairs` (one integer-key sort): :func:`unique_pairs` is the
two-key ``lexsort`` + adjacent difference ``JoinSpec.finalise`` ran, and
:func:`unique_triples` the three-key form ``grid_hash_join_batch`` ran over
``(item, a_oid, b_oid)``.  Verbatim in behaviour; ``tests/test_leaf_pipeline.py``
holds the shipped key sort ``array_equal`` to them, hostile oids included.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["unique_pairs", "unique_triples"]


def unique_pairs(block: np.ndarray) -> np.ndarray:
    """The distinct rows of a pair block, sorted: lexsort + adjacent difference."""
    order = np.lexsort((block[:, 1], block[:, 0]))
    block = block[order]
    fresh = np.ones(block.shape[0], dtype=bool)
    fresh[1:] = (block[1:] != block[:-1]).any(axis=1)
    return block[fresh]


def unique_triples(
    owner: np.ndarray, a_oid: np.ndarray, b_oid: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's dedupe: sort by ``(owner, a_oid, b_oid)``, drop equal neighbours."""
    order = np.lexsort((b_oid, a_oid, owner))
    owner, a_oid, b_oid = owner[order], a_oid[order], b_oid[order]
    fresh = np.ones(order.shape[0], dtype=bool)
    fresh[1:] = (
        (owner[1:] != owner[:-1]) | (a_oid[1:] != a_oid[:-1]) | (b_oid[1:] != b_oid[:-1])
    )
    return owner[fresh], a_oid[fresh], b_oid[fresh]
