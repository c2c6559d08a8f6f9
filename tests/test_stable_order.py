"""`engine._stable_order`, the stable argsort behind every semijoin, fold
and cover index.

Keys below 2^16 are radix-sorted as uint16; larger ones are packed with
their positions and sorted by value while `max(keys) * n` stays below
2^62; past that it falls back to numpy's stable argsort.  Every route must
give exactly `argsort(kind="stable")`: ties in input order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diverse_cq.engine import _stable_order


def _same_as_argsort(keys: np.ndarray) -> None:
    got = _stable_order(keys)
    assert got.tolist() == keys.argsort(kind="stable").tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=300), st.sampled_from([1, 2 ** 16, 10 ** 9]))
def test_ties_keep_input_order(small, scale):
    # few distinct keys, so most of them tie, below and above 16 bits
    _same_as_argsort(np.array(small, dtype=np.int64) * scale)


@pytest.mark.parametrize("n, top", [(18_800, 4 * 10 ** 5), (200_000, 10 ** 6),
                                    (1000, 2 ** 62 // 1000 - 1)])
def test_packed_keys_sort_like_argsort(n, top):
    keys = np.random.default_rng(n).integers(0, top, n)
    keys[::7] = keys[0]  # ties
    assert int(keys.max()) * n < 2 ** 62  # the packed route
    _same_as_argsort(keys)


def test_empty_keys():
    assert _stable_order(np.zeros(0, dtype=np.int64)).tolist() == []


def test_keys_too_large_to_pack_fall_back_to_argsort():
    n = 1000
    keys = np.random.default_rng(1).integers(2 ** 62 // n, 2 ** 62, n)
    keys[1::3] = keys[0]
    assert int(keys.max()) * n >= 2 ** 62  # packing would overflow
    _same_as_argsort(keys)
