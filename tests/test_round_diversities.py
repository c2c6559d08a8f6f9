"""One greedy round of the Euclidean ball volume, scored in one pass.

`EuclideanBallVolume.round_diversities(picks, candidates)` must return
the floats of `[v.diversity(picks + [t]) for t in candidates]`, and of
`test_volume`'s broadcast estimator, bit for bit, and raise the errors
`diversity` raises.  Greedy, `greedy_combined`'s naive engine and
`cqnext_naive` run it; a non-discrete volume without it is scored one
candidate at a time and must select the same answers.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diverse_cq import (ContinuousBallSet, EuclideanBallVolume, InputError, cqnext_naive,
                        enumerate_answers, greedy_combined, greedy_diversify, parse_cq)

from conftest import db_of, mk
from test_volume import _broadcast_estimate


def point(*coords):
    return mk("P", *map(str, coords))


def check_round(v, picks, candidates):
    got = v.round_diversities(picks, candidates)
    assert got == [v.diversity(picks + [t]) for t in candidates]
    if v.center(candidates[0])[1:]:  # the broadcast samples; one dimension is swept exactly
        assert got == [_broadcast_estimate(ContinuousBallSet(
            tuple(map(v.center, picks + [t])), v.radius), v.samples, v.seed).value
            for t in candidates]


@st.composite
def rounds(draw):
    """A round on a coarse grid, so that candidates fall inside and outside
    the picks' box, share boxes, repeat a pick, or meet no picks at all;
    picks may repeat a center."""
    dim = draw(st.sampled_from([1, 2, 3, 8, 9]))
    coord = st.integers(-8, 8).map(lambda x: x / 2)
    grid = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=10, unique=True))
    picks = draw(st.lists(st.sampled_from(grid), max_size=4))
    candidates = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=10, unique=True))
    v = EuclideanBallVolume(draw(st.floats(0.1, 4)), samples=draw(st.integers(1, 4000)),
                            seed=draw(st.integers(0, 3)))
    return v, [point(*c) for c in picks], [point(*c) for c in candidates]


@settings(max_examples=120, deadline=None)
@given(rounds())
@example((EuclideanBallVolume(1.5, samples=3000, seed=1),  # inside and outside the picks' box
          [point(0, 0), point(4, 4), point(0, 0)],
          [point(1, 1), point(0, 0), point(2, 3), point(6, 1), point(-3, 2)]))
@example((EuclideanBallVolume(2.0, samples=3000), [],  # no picks, eight and nine terms
          [point(*[x] * 8) for x in (0, 1, 3)]))
@example((EuclideanBallVolume(2.0, samples=3000, seed=2), [point(*[1] * 9)],
          [point(*[x] * 9) for x in (0, 1, 3)]))
def test_a_round_gives_each_candidates_diversity(case):
    check_round(*case)


@pytest.mark.parametrize("dim", [2, 9])
def test_a_round_over_several_batches_gives_each_candidates_diversity(dim):
    # 2**18 + 1000 samples take two unsorted batches, each drawn once per round
    rng = random.Random(dim)
    spot = lambda: point(*(rng.randint(0, 6) for _ in range(dim)))  # noqa: E731
    v = EuclideanBallVolume(2.5, samples=(1 << 18) + 1000, seed=1)
    check_round(v, [spot(), spot()], [spot() for _ in range(3)])


@pytest.mark.parametrize("picks,candidates", [
    ([point(0, 0)], [point(1, 1), point("1e308", "1e308")]),  # the second box overflows
    ([point(0, 0)], [point(1, 1), mk("P", "a", "1")]),  # text is no center
    ([point(0, 0)], [point(1, 1), point(1, 1, 1)]),  # mixed dimensions
    ([], [mk("P")]),  # a nullary answer has no coordinates
])
def test_a_round_raises_what_diversity_raises(picks, candidates):
    v = EuclideanBallVolume(1.0, samples=500)
    with pytest.raises(InputError) as want:
        [v.diversity(picks + [t]) for t in candidates]
    with pytest.raises(InputError) as got:
        v.round_diversities(picks, candidates)
    assert str(got.value) == str(want.value)


def test_an_empty_round_scores_nothing():
    assert EuclideanBallVolume(1.0).round_diversities([point(0, 0)], []) == []


class _DiversityOnly:
    """A non-discrete volume with only `name`, `is_discrete` and
    `diversity`, as the benchmark's traced Euclidean volume has."""

    is_discrete = False

    def __init__(self, inner):
        self.name = inner.name
        self.inner = inner
        self.calls = 0

    def diversity(self, s):
        self.calls += 1
        return self.inner.diversity(s)


def test_a_volume_without_a_round_scorer_selects_the_same():
    rng = random.Random(5)
    facts = sorted({point(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(14)})
    db = db_of({"P": 2}, facts)
    q = parse_cq("Q(x,y) <- P(x,y).")
    answers = enumerate_answers(q, db).answers
    ball = EuclideanBallVolume(2.0, samples=3000, seed=2)
    stand_in = _DiversityOnly(ball)

    res = greedy_diversify(answers, 4, stand_in)
    assert stand_in.calls == sum(range(len(answers) - 3, len(answers) + 1))  # one per candidate
    assert res == greedy_diversify(answers, 4, ball)
    assert res.total == ball.diversity(res.selected)

    combined = greedy_combined(q, db, 4, volume=stand_in, engine="naive")
    assert combined == greedy_combined(q, db, 4, volume=ball, engine="naive")
    assert (combined.selected, combined.gains, combined.total) == (
        res.selected, res.gains, res.total)

    for selected in ([], list(res.selected[:2]), [res.selected[0]] * 2):
        assert cqnext_naive(q, db, selected, stand_in) == cqnext_naive(q, db, selected, ball)
