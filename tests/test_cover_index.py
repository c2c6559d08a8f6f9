"""The cover index of every discrete greedy round against a set-based oracle.

`_CoverIndex` keeps (point id, owner) pairs sorted by point, each pair's
integer weight over one common scale, and which points are covered.  The
oracle keeps the same state as a dict of holder sets and a set of covered
ids, and recomputes every answer from them: the pairs a `cover` newly
takes away and each owner's total of uncovered weight.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diverse_cq.optimize import _CoverIndex

IDS = st.integers(0, 12)  # the index holds some of these ids, never all
OWNERS = 6

# A count measure, small fractions with coprime denominators, and weights
# whose scaled sum passes 2^62, which takes the exact-int (object) path.
KINDS = {
    "count": None,
    "fraction": st.builds(Fraction, st.integers(0, 9), st.sampled_from((1, 2, 3, 7))),
    "huge": st.builds(Fraction, st.integers(2 ** 61, 2 ** 64), st.sampled_from((1, 3))),
}


def point(pid):
    return ("p", pid)


def points(pids):
    return [point(pid) for pid in pids.tolist()]


@st.composite
def cases(draw):
    pairs = sorted(draw(st.sets(st.tuples(IDS, st.integers(0, OWNERS - 1)), max_size=30)))
    kind = draw(st.sampled_from(sorted(KINDS)))
    weights = None if kind == "count" else {
        point(pid): draw(KINDS[kind]) for pid in {pid for pid, _ in pairs}}
    # Each cover asks for distinct ids, held or not, covered before or not.
    covers = draw(st.lists(st.lists(IDS, unique=True, max_size=6), max_size=6))
    return pairs, weights, covers


@settings(max_examples=300, deadline=None)
@given(cases(), st.randoms(use_true_random=False))
def test_index_matches_a_set_oracle(case, rng):
    pairs, weights, covers = case
    rng.shuffle(pairs)  # the index sorts the pairs by point itself
    reads, batches = [], []

    def weight_of(p):
        reads.append(p)
        return weights[p]

    def batch(pids):
        batches.append(pids.tolist())
        return points(pids)

    index = _CoverIndex(np.array([pid for pid, _ in pairs], dtype=np.int64),
                        np.array([owner for _, owner in pairs], dtype=np.int64),
                        None if weights is None else weight_of, batch)
    holders: dict = {}
    for pid, owner in pairs:
        holders.setdefault(pid, set()).add(owner)
    if weights is None:
        scale, scaled = 1, dict.fromkeys(holders, 1)
        assert index.weight is None and index.dtype is np.int64
    else:
        assert sorted(reads) == sorted(map(point, holders))  # one read per held point
        assert batches == [sorted(holders)]  # all points in one call
        scale = math.lcm(*(weights[point(pid)].denominator for pid in holders))
        scaled = {pid: int(weights[point(pid)] * scale) for pid in holders}
        assert index.dtype is (object if sum(scaled.values()) >= 2 ** 62 else np.int64)
        assert index.weight.dtype == np.dtype(index.dtype)
    assert index.scale == scale
    assert sorted(index.owners.tolist()) == sorted(owner for _, owner in pairs)

    def totals():
        return [sum(scaled[pid] for pid, owners in holders.items()
                    if owner in owners and pid not in covered) for owner in range(OWNERS)]

    covered: set = set()
    assert index.totals(OWNERS).tolist() == totals()
    for ids in covers:
        fresh = [pid for pid in ids if pid in holders and pid not in covered]
        want = sorted((owner, scaled[pid]) for pid in fresh for owner in holders[pid])
        owners, got = index.cover(np.array(ids, dtype=np.int64))
        got = [1] * len(owners) if got is None else got.tolist()
        assert sorted(zip(owners.tolist(), got)) == want
        covered.update(fresh)
        assert index.totals(OWNERS).tolist() == totals()
    owners, got = index.cover(np.array(sorted(covered), dtype=np.int64))
    assert len(owners) == 0 and (got is None or len(got) == 0)  # covered twice: no change
    assert index.totals(OWNERS).tolist() == totals()
    index.uncover()
    covered.clear()
    assert index.totals(OWNERS).tolist() == totals()


def test_an_empty_index_covers_nothing():
    index = _CoverIndex(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                        lambda p: Fraction(1, 3), points)
    owners, weights = index.cover(np.array([0, 5], dtype=np.int64))
    assert owners.tolist() == [] and weights.tolist() == []
    assert index.totals(3).tolist() == [0, 0, 0]
