"""The naive next-answer oracle and engine against their references.

`naive_best` is the materializing step as it ran before every
materialized path shared `greedy_diversify`'s array step: each call
recomputes the covered region of the selection and the exact marginal of
every answer, in answer order, and keeps the first maximum.
`cqnext_naive` must return the same (answer, gain) for any selection,
repeated answers, zero-gain answers and tuples that are not answers
included.  `greedy_combined(engine="naive")` must pick what
`greedy_diversify` picks, truncated at its first zero gain.  Weights are
small integers, mostly 1, so ties are common.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverse_cq import (ConjunctiveQuery, UniverseError, VolumeAssignment, WeightedMeasure,
                        cqnext_naive, elem_volume, elem_weighted, enumerate_answers,
                        greedy_combined, greedy_diversify, intern, parse_cq, pos_volume,
                        pos_weighted, provenance_volume)

from conftest import (DOMAIN, TRIANGLE, db_of, mk, random_database, random_free_connex_instance,
                      random_tree_query)

VOLUMES = ("pos", "pos-w", "elem", "elem-w", "provenance", "provenance-w")


def naive_best(answers, v, selected):
    """Argmax of the marginal gain over `answers` given the balls of
    `selected`; the first answer wins ties, None when there is none."""
    covered = v.covered(selected)
    best = None
    for t in answers:
        gain = v.marginal_given_covered(covered, t)
        if best is None or gain > best[1]:
            best = (t, gain)
    return best


def _weight(rng):
    return Fraction(rng.choice((1, 1, 1, 0, 2)))


def make_volume(name, q, db, rng):
    """A volume of the named kind; weighted ones carry small integer weights."""
    values = [intern(x) for x in DOMAIN]
    if name == "pos":
        return pos_volume()
    if name == "elem":
        return elem_volume()
    if name == "pos-w":
        return pos_weighted({(x, p): _weight(rng) for x in values for p in (1, 2, 3)
                             if rng.random() < 0.5}, Fraction(1))
    if name == "elem-w":
        return elem_weighted({x: _weight(rng) for x in values if rng.random() < 0.5},
                             Fraction(1))
    base = provenance_volume(q, db)
    if name == "provenance":
        return base
    weights = {f: _weight(rng) for f in db.all_facts() if rng.random() < 0.5}
    return VolumeAssignment("provenance", base.ball_fn, WeightedMeasure(weights, Fraction(1)),
                            universe=base.universe)


def make_instance(rng):
    """A full tree query, a projection of one, or the triangle, with a
    random database; self-joins allowed in the full queries."""
    shape = rng.randrange(4)
    if shape == 0:
        q, db, _ = random_free_connex_instance(rng)
        return q, db
    if shape == 1:
        q = parse_cq(TRIANGLE)
        rels = {a.relation: a.arity for a in q.atoms}
        return q, random_database(rng, rels, density=0.8)
    q, rels = random_tree_query(rng, allow_self_join=shape == 2)
    if shape == 3:
        names = sorted({v.name for a in q.atoms for v in a.source_vars})
        head = rng.sample(names, rng.randint(0, len(names)))
        q = ConjunctiveQuery.build(
            "Q", head, [(a.relation, [v.name for v in a.source_vars]) for a in q.atoms])
    return q, random_database(rng, rels)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(VOLUMES), st.data())
def test_cqnext_naive_matches_the_reference_scan(seed, name, data):
    rng = random.Random(seed)
    q, db = make_instance(rng)
    v = make_volume(name, q, db, rng)
    answers = enumerate_answers(q, db).ordered()
    selected = data.draw(st.lists(st.sampled_from(answers), max_size=4)) if answers else []
    if selected and data.draw(st.booleans()):
        selected.append(data.draw(st.sampled_from(selected)))  # a repeated answer
    covered = v.covered(selected)
    spent = [t for t in answers if v.marginal_given_covered(covered, t) == 0]
    if spent and data.draw(st.booleans()):
        selected.append(data.draw(st.sampled_from(spent)))  # a zero-gain answer
    if not name.startswith("provenance"):
        # Facts that are not answers: body facts, and head-shaped tuples.
        others = db.all_facts() + [mk(q.head_name, *rng.choices(DOMAIN, k=len(q.head_vars)))]
        selected += data.draw(st.lists(st.sampled_from(others), max_size=3))
        rng.shuffle(selected)
    assert cqnext_naive(q, db, selected, v) == naive_best(answers, v, selected)


def test_cqnext_naive_keeps_its_contract_on_selections():
    db = db_of({"R": 2}, [mk("R", "a", "b"), mk("R", "b", "a"), mk("R", "c", "c")])
    q = parse_cq("Q(x,y) <- R(x,y).")
    ab, ba, cc = (mk("Q", *p) for p in (("a", "b"), ("b", "a"), ("c", "c")))
    # Every ball covered: the argmax still ranges over all answers, picked
    # ones included, and the smallest answer wins the tie at 0.
    assert cqnext_naive(q, db, [ab, cc, ab], elem_volume()) == (ab, 0)
    # A non-answer's ball counts as covered.
    assert cqnext_naive(q, db, [mk("S", "a", "b", "c")], elem_volume()) == (ab, 0)
    assert cqnext_naive(q, db, [mk("S", "a")], pos_volume()) == (ba, 2)
    prov = provenance_volume(q, db)
    assert cqnext_naive(q, db, [ab, ab], prov) == (ba, 1)
    with pytest.raises(UniverseError):
        cqnext_naive(q, db, [mk("Q", "a", "a")], prov)
    empty = db_of({"R": 2}, [])
    assert cqnext_naive(q, empty, [ab], elem_volume()) is None
    assert cqnext_naive(q, empty, [], provenance_volume(q, empty)) is None


def test_naive_engine_is_greedy_truncated_at_the_first_zero_gain():
    rng = random.Random(19)
    for _ in range(300):
        q, db = make_instance(rng)
        k = rng.randint(1, 6)
        for name in ("default",) + VOLUMES:
            v = None if name == "default" else make_volume(name, q, db, rng)
            got = greedy_combined(q, db, k, volume=v, engine="naive")
            v = provenance_volume(q, db) if v is None else v
            want = greedy_diversify(enumerate_answers(q, db).answers, k, v)
            stop = next((i for i, g in enumerate(want.gains) if g == 0), len(want))
            assert got.selected == want.selected[:stop], (q.to_text(), name)
            assert got.gains == want.gains[:stop], (q.to_text(), name)
            assert got.total == sum(got.gains) and got.engine == "naive"
