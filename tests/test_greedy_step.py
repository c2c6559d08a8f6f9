"""The array greedy step against the frozenset greedy it replaced.

`frozenset_greedy` is the materialized greedy as it ran on balls of
frozensets: each round recomputes every remaining candidate's gain as the
integer measure of its ball minus the covered set, plain greedy taking the
first maximum in answer order and lazy greedy popping a heap of stale
gains.  `greedy_diversify` now scores rows of point ids and lowers gains
through a point -> candidates index; both must give the same selection,
gains and total, round for round.
"""

import heapq
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diverse_cq import (Fact, VolumeAssignment, WeightedMeasure, CountMeasure, elem_volume,
                        elem_weighted, enumerate_answers, greedy_diversify, intern, pos_volume,
                        parse_cq, pos_weighted, provenance_volume)
from diverse_cq.optimize import _greedy, _make_result
from diverse_cq.volume import scaled_weights

from conftest import db_of, mk
from test_engine import NOT_FREE_CONNEX, projected_instances


def frozenset_greedy(answers, k, v, lazy=False):
    """Materialized greedy over frozenset balls, smallest answer on ties."""
    items = sorted(set(answers))
    m = min(k, len(items))
    if m <= 0:
        return _make_result((), ())
    balls = [v.ball(t) for t in items]
    covered: set = set()
    remaining = list(range(len(items)))
    if v.measure.kind == "count":
        scale = 1

        def gain(i):
            return len(balls[i] - covered)
    else:
        weight, scale = scaled_weights(v.measure.weight_of, set().union(*balls))

        def gain(i):
            return sum(map(weight.__getitem__, balls[i] - covered))
    if lazy:
        heap = [(-gain(i), i, 0) for i in remaining]
        heapq.heapify(heap)

        def best(picks):
            while heap:
                neg, i, stamp = heapq.heappop(heap)
                if stamp == len(picks):
                    return i, -neg
                heapq.heappush(heap, (-gain(i), i, len(picks)))
            return None
    else:
        def best(picks):
            i = max(remaining, key=gain)
            return i, gain(i)

    def commit(i):
        covered.update(balls[i])
        remaining.remove(i)

    picks, gains = _greedy(m, best, commit)
    return _make_result([items[i] for i in picks], [Fraction(g, scale) for g in gains])


VALUES = st.one_of(st.sampled_from("abc"), st.integers(0, 3).map(str))


@st.composite
def answer_sets(draw):
    """Facts of mixed arity, nullary ones included, so some balls are empty."""
    rows = draw(st.lists(st.lists(VALUES, max_size=3), max_size=10))
    return [Fact("T", [intern(x) for x in row]) for row in rows]


# Zero weights, coprime denominators, and numerators whose lcm-scaled sum
# passes 2^63, which takes the exact-int path.
WEIGHTS = st.one_of(st.builds(Fraction, st.integers(0, 9), st.sampled_from((1, 2, 3, 7))),
                    st.builds(Fraction, st.integers(2 ** 62, 2 ** 64), st.sampled_from((1, 3))))


def _weighted(draw, points, make):
    weights = draw(st.dictionaries(points, WEIGHTS))
    return make(weights, draw(WEIGHTS))


@st.composite
def value_volumes(draw):
    name = draw(st.sampled_from(("pos", "elem", "pos-w", "elem-w", "sets", "sets-w")))
    facts = draw(answer_sets())
    values = VALUES.map(intern)
    if name == "pos":
        v = pos_volume()
    elif name == "elem":
        v = elem_volume()
    elif name == "pos-w":
        v = _weighted(draw, st.tuples(values, st.integers(1, 3)), pos_weighted)
    elif name == "elem-w":
        v = _weighted(draw, values, elem_weighted)
    else:
        # Arbitrary balls over a few points, empty ones included.
        balls = {t: frozenset(draw(st.lists(st.integers(0, 5), max_size=4))) for t in facts}
        measure = (CountMeasure() if name == "sets" else
                   WeightedMeasure(draw(st.dictionaries(st.integers(0, 5), WEIGHTS)),
                                   draw(WEIGHTS)))
        v = VolumeAssignment(name, balls.__getitem__, measure)
    return facts, v, draw(st.integers(0, 6))


def _agrees(answers, v, k):
    for lazy in (False, True):
        want = frozenset_greedy(answers, k, v, lazy=lazy)
        got = greedy_diversify(answers, k, v, lazy=lazy)
        assert got == want, lazy
        assert all(isinstance(g, Fraction) for g in got.gains)


@settings(max_examples=300, deadline=None)
@given(value_volumes())
@example(([Fact("T", ()), Fact("T", [intern("a")])], pos_volume(), 2))
@example(([Fact("T", [intern("a")]), Fact("T", [intern("b")])],
          elem_weighted({intern("a"): Fraction(2 ** 63, 3)}, Fraction(2 ** 62)), 2))
def test_array_step_matches_frozenset_greedy(case):
    _agrees(*case)


@settings(max_examples=150, deadline=None)
@given(projected_instances(), st.integers(0, 6), st.data())
@example(NOT_FREE_CONNEX, 3, None)
def test_array_step_matches_frozenset_greedy_on_provenance(case, k, data):
    q, db = case
    answers = enumerate_answers(q, db).ordered()
    base = provenance_volume(q, db)
    _agrees(answers, base, k)
    facts = db.all_facts()
    weights = ({} if data is None or not facts else
               data.draw(st.dictionaries(st.sampled_from(facts), WEIGHTS)))
    default = Fraction(1) if data is None else data.draw(WEIGHTS)
    weighted = VolumeAssignment("provenance", base.ball_fn, WeightedMeasure(weights, default),
                                universe=base.universe)
    _agrees(answers, weighted, k)


# A free-connex head over R with S and T hanging below it, so provenance
# balls share subtree folds and several answers tie.
HANGING = (parse_cq("Q(x,y) <- R(x,y), S(y,z), T(z,w)."),
           db_of({"R": 2, "S": 2, "T": 2},
                 [mk("R", "a", "b"), mk("R", "a", "c"), mk("R", "b", "b"), mk("R", "c", "c"),
                  mk("R", "d", "b"), mk("R", "e", "d"), mk("S", "b", "1"), mk("S", "b", "2"),
                  mk("S", "c", "2"), mk("S", "c", "3"), mk("S", "d", "1"), mk("T", "1", "x"),
                  mk("T", "2", "x"), mk("T", "2", "y"), mk("T", "3", "z")]))


def _raise(*args):
    raise AssertionError("lazy greedy touched the heap")


@pytest.mark.parametrize("name,weights", [
    ("elem", None), ("pos", None), ("provenance", None),
    *((name, weights) for name in ("elem-w", "pos-w", "provenance")
      for weights in ("fraction", "past-2^62", "unit"))])
def test_lazy_greedy_runs_the_argmax_step_without_a_heap(name, weights):
    """`lazy=True` never touches a heap and picks what plain greedy and
    the frozenset oracle's heap pick, for k = 1, 3 and above the answer
    count; `weights` None keeps the volume's count measure."""
    q, db = HANGING
    answers = enumerate_answers(q, db).answers
    ordered = sorted(answers)
    base = {"elem": elem_volume, "pos": pos_volume, "elem-w": elem_volume,
            "pos-w": pos_volume}.get(name, lambda: provenance_volume(q, db))()
    if weights is not None:
        points = sorted(set().union(*map(base.ball, ordered)), key=repr)
        weight = {"fraction": lambda i: Fraction(i % 4 + 1, (1, 3, 7)[i % 3]),
                  "past-2^62": lambda i: Fraction(2 ** 62 + i, 1 + i % 2),
                  "unit": lambda i: Fraction(1)}[weights]
        base = VolumeAssignment(name, base.ball_fn,
                                WeightedMeasure({p: weight(i) for i, p in enumerate(points)},
                                                Fraction(1)),
                                universe=base.universe)
    for k in (1, 3, len(ordered) + 2):
        with mock.patch.multiple(heapq, heapify=_raise, heappop=_raise, heapreplace=_raise):
            got = greedy_diversify(answers, k, base, lazy=True)
        assert got == greedy_diversify(answers, k, base)
        assert got == frozenset_greedy(ordered, k, base, lazy=True)
        assert len(got.selected) == min(k, len(ordered))
