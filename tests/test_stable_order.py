"""``_stable_order`` is ``np.argsort(kind="stable")``, exactly, on hostile keys.

The STR bulk load orders its centres and its preorder with it
(``index/flat.py``), so any difference -- one tied pair swapped -- moves
tiles, node order, payload order and every golden trace.  Held here against
numpy's own stable sort (and, with a ``then`` tiebreak, against ``lexsort``)
on heavy ties, extreme integers, signed zeros, infinities and NaNs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.index.flat import _stable_order

_SIZES = st.integers(0, 300)


def _assert_stable(keys: np.ndarray) -> None:
    got = _stable_order(keys)
    want = np.argsort(keys, kind="stable")
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(hnp.arrays(np.int64, _SIZES, elements=st.integers(-4, 4)))
def test_int_keys_with_heavy_ties(keys):
    _assert_stable(keys)


@settings(max_examples=150, deadline=None)
@given(
    hnp.arrays(
        np.int64,
        _SIZES,
        elements=st.sampled_from([-(2**62), 2**62, 2**62 - 1, 2**63 - 1, -(2**63), 0, 5]),
    )
)
def test_int_keys_near_the_int64_limits(keys):
    _assert_stable(keys)


_FLOATS = st.sampled_from([0.0, -0.0, 1.5, -1.5, 2.0**-1074, np.inf, -np.inf, np.nan]) | st.floats(
    allow_nan=True, allow_infinity=True
)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, _SIZES, elements=_FLOATS))
def test_float_keys_with_ties_signed_zeros_infinities_and_nans(keys):
    _assert_stable(keys)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, _SIZES, elements=st.floats(-1.0, 1.0, width=16)))
def test_float_keys_on_a_coarse_grid(keys):
    _assert_stable(keys)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.bool_, _SIZES))
def test_bool_keys(keys):
    _assert_stable(keys)


def test_empty_and_single():
    for dtype in (np.int64, np.float64, np.bool_):
        _assert_stable(np.empty(0, dtype=dtype))
        _assert_stable(np.ones(1, dtype=dtype))
    _assert_stable(np.array([np.nan]))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        hnp.arrays(np.float64, _SIZES, elements=_FLOATS),
        hnp.arrays(np.int64, _SIZES, elements=st.integers(-3, 3)),
    ),
    st.randoms(use_true_random=False),
)
def test_then_breaks_ties_by_a_permutation(keys, random):
    then = np.arange(keys.shape[0])
    random.shuffle(then)
    assert np.array_equal(_stable_order(keys, then=then), np.lexsort((then, keys)))
