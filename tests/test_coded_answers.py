"""The coded answer set of an acyclic body against the backtracking oracle.

`enumerate_answers` keeps an acyclic body's answers as head codes, a
`CodedAnswers`: `len` and `in` read the codes, iteration decodes every
answer once in value order, and keeps them with their frozenset, which
answers `in` from then on, and the set equals and hashes like the
frozenset of its answers.  On random bodies (free-connex or not, with
self-joins, repeated variables, Boolean and empty heads, and empty
results) it must hold the backtracking join's answers, and greedy over
it must pick what greedy over the decoded, sorted answers picks, under
every built-in discrete volume.
"""

import itertools
import random
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from diverse_cq import (CountMeasure, Database, EuclideanBallVolume, Fact, VolumeAssignment,
                        WeightedMeasure, brute_force_diversify, cqnext_naive, elem_volume,
                        elem_weighted, enumerate_answers, greedy_by_objective, greedy_diversify,
                        intern, parse_cq, pos_volume, pos_weighted, provenance_volume)
from diverse_cq import engine
from diverse_cq.engine import CodedAnswers

from conftest import db_of, mk
from test_engine import NOT_FREE_CONNEX, oracle_answers, projected_instances

EMPTY_RESULT = (parse_cq("Q(x) <- R(x,y), S(y)."),
                db_of({"R": 2, "S": 1}, [mk("R", "a", "b"), mk("S", "a")]))
BOOLEAN = (parse_cq("Q() <- R(x,y), R(y,y)."),
           db_of({"R": 2}, [mk("R", "a", "b"), mk("R", "b", "b")]))
REPEATED_HEAD = (parse_cq("Q(y,x,y) <- R(x,y), R(y,z)."),
                 db_of({"R": 2}, [mk("R", "a", "b"), mk("R", "b", "a"), mk("R", "b", "c")]))


def probes(q, db, want):
    """Answers, as `Fact`s and plain pairs, and tuples that are none: held
    values in other combinations, a value no fact holds, the wrong width,
    another relation, and values given as a list."""
    width = len(q.head_vars)
    stranger = intern("zz")
    held = list(itertools.islice(itertools.product(db.values, repeat=width), 40))
    ordered = sorted(want)
    return [*ordered, *((t.relation, t.values) for t in ordered),
            *(Fact(q.head_name, values) for values in held),
            Fact(q.head_name, (stranger,) * width),
            *(Fact(q.head_name, (*t.values, stranger)) for t in ordered[:2]),
            *(Fact(q.head_name, t.values[1:]) for t in ordered[:2] if width),
            *(Fact("Other", t.values) for t in ordered[:2]),
            *((t.relation, list(t.values)) for t in ordered[:2])]


@settings(max_examples=200, deadline=None)
@given(projected_instances())
@example(NOT_FREE_CONNEX)
@example(EMPTY_RESULT)
@example(BOOLEAN)
@example(REPEATED_HEAD)
def test_coded_answers_are_the_backtracking_answers(case):
    q, db = case
    got = enumerate_answers(q, db)
    coded = got.answers
    want = oracle_answers(q, db)
    assert isinstance(coded, CodedAnswers)
    assert len(coded) == len(got) == len(want)
    for t in probes(q, db, want):
        hashable = isinstance(t[1], tuple)
        assert (t in coded) is (hashable and t in want), t
    assert coded._answers is None  # `len` and `in` decoded no answer
    assert coded == want and want == coded
    assert hash(coded) == hash(want)
    assert list(coded) == got.ordered() == sorted(want)
    assert coded.rows(got.ordered()).tolist() == list(range(len(want)))


@settings(max_examples=100, deadline=None)
@given(projected_instances())
@example(NOT_FREE_CONNEX)
@example(EMPTY_RESULT)
@example(BOOLEAN)
@example(REPEATED_HEAD)
def test_an_iterated_coded_set_answers_in_without_a_search(case):
    q, db = case
    coded = enumerate_answers(q, db).answers
    want = oracle_answers(q, db)
    assert list(coded) == sorted(want)  # decodes every answer, once
    with mock.patch.object(Database, "find_row", side_effect=AssertionError("searched")):
        for t in probes(q, db, want):
            hashable = isinstance(t[1], tuple)
            assert (t in coded) is (hashable and t in want), t
    assert coded == want and hash(coded) == hash(want)
    # the provenance volume's universe, with some balls decoded, reads the same
    v = provenance_volume(q, db)
    for t in sorted(want)[:2]:
        v.ball(t)
    for t in probes(q, db, want):
        assert (t in v.universe) is (isinstance(t[1], tuple) and t in want), t


def volumes(q, db, rng):
    """Every built-in discrete volume, the provenance volume under the
    count measure, small Fraction weights and weights past 2^62."""
    facts = db.facts()
    prov = provenance_volume(q, db)

    def provenance(weights):
        return VolumeAssignment("provenance", prov.ball_fn, WeightedMeasure(weights),
                                universe=prov.universe)

    values = list(db.values)
    return {
        "provenance": prov,
        "provenance-fraction": provenance(
            {f: Fraction(rng.randint(0, 6), rng.choice((1, 2, 3))) for f in facts}),
        "provenance-huge": provenance(
            {f: Fraction(rng.randint(2 ** 61, 2 ** 64), rng.choice((1, 3))) for f in facts}),
        "pos": pos_volume(),
        "pos-w": pos_weighted({(v, i): Fraction(rng.randint(0, 4), rng.choice((1, 2)))
                               for v in values for i in (1, 2, 3)}),
        "elem": elem_volume(),
        "elem-w": elem_weighted({v: Fraction(rng.randint(0, 4), 3) for v in values}),
    }


@settings(max_examples=100, deadline=None)
@given(projected_instances(), st.integers(0, 6), st.randoms(use_true_random=False))
@example(NOT_FREE_CONNEX, 3, random.Random(0))
@example(EMPTY_RESULT, 2, random.Random(0))
@example(BOOLEAN, 2, random.Random(0))
@example(REPEATED_HEAD, 3, random.Random(0))
def test_greedy_over_the_coded_set_picks_what_greedy_over_facts_picks(case, k, rng):
    q, db = case
    got = enumerate_answers(q, db)
    for name, v in volumes(q, db, rng).items():
        for lazy in (False, True):
            want = greedy_diversify(got.ordered(), k, v, lazy=lazy)
            assert greedy_diversify(got.answers, k, v, lazy=lazy) == want, (name, lazy)
            if name.startswith("provenance"):  # the same volume over frozenset balls
                plain = VolumeAssignment(v.name, v.ball, v.measure)
                assert greedy_diversify(got.ordered(), k, plain, lazy=lazy) == want


def test_provenance_greedy_decodes_only_its_picks(monkeypatch):
    q, db = NOT_FREE_CONNEX
    got = enumerate_answers(q, db)
    v = provenance_volume(q, db)
    decoded = []
    decode = CodedAnswers.decode

    def counting(self, rows):
        decoded.append(len(rows))
        return decode(self, rows)

    monkeypatch.setattr(CodedAnswers, "decode", counting)
    res = greedy_diversify(got.answers, 2, v)
    monkeypatch.undo()
    assert decoded == [2] and len(res.selected) == 2  # one decode, of the picks
    assert got.answers._answers is None and v.universe._answers is None
    assert res == greedy_diversify(got.ordered(), 2, VolumeAssignment(
        "provenance", v.ball, CountMeasure()))


@settings(max_examples=100, deadline=None)
@given(projected_instances())
@example(NOT_FREE_CONNEX)
@example(REPEATED_HEAD)
def test_answers_of_another_database_are_found_by_their_values(case):
    # The same facts plus one holding a value that sorts first: every code
    # shifts, so the answers' codes mean other values in the second database.
    q, db = case
    first = q.atoms[0].relation
    facts = [*db.facts(), mk(first, *["0"] * db.schema.arity(first))]
    other = db_of(db.schema.arities, facts)
    got = enumerate_answers(q, db)
    balls = provenance_volume(q, other).ball_fn
    assert balls.rows(got.answers).tolist() == balls.rows(got.ordered()).tolist()
    assert (balls.rows(got.answers) >= 0).all()  # answers are monotone in the facts
    v = provenance_volume(q, other)
    for lazy in (False, True):
        assert greedy_diversify(got.answers, 3, v, lazy=lazy) == \
            greedy_diversify(got.ordered(), 3, v, lazy=lazy)


def test_set_function_entry_points_take_a_coded_set_in_its_own_order():
    q, db = REPEATED_HEAD
    coded = enumerate_answers(q, db).answers
    ordered = sorted(oracle_answers(q, db))
    v = pos_volume()
    want = (brute_force_diversify(ordered, 2, v), greedy_by_objective(ordered, 2, v.diversity))
    # an iterable that is no set, repeats included, is deduplicated first
    assert brute_force_diversify(iter(ordered * 2), 2, v) == want[0]
    assert greedy_by_objective(iter(ordered * 2), 2, v.diversity) == want[1]
    points = parse_cq("Q(x,y) <- P(x,y).")
    spots = db_of({"P": 2}, [mk("P", "1", "2"), mk("P", "3", "1"), mk("P", "2", "2")])
    ball = EuclideanBallVolume(1.5, samples=500)
    nearest = cqnext_naive(points, spots, [], ball)
    with mock.patch.object(engine, "fact_key", side_effect=AssertionError("sorted")):
        assert (brute_force_diversify(coded, 2, v), greedy_by_objective(coded, 2, v.diversity)) \
            == want
        assert cqnext_naive(points, spots, [], ball) == nearest
