"""Multi-attribute conversions against the subset walk.

`multiattribute_from_volume` groups the ground points by the set of
elements whose balls hold them; the weight of a subset A is the measure
of the points whose covering set is exactly A.  `subset_walk_weights` is
the conversion as it ran before that grouping: for every non-empty subset
of the universe, the measure of the region inside all of its balls and
outside every other ball.  Both must give the same weights, and the
weights and the volume built back from them must give the original
diversity.  Universes have at most 10 elements, so the walk stays small.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverse_cq import (MultiAttributeWeights, UniverseError, elem_volume, elem_weighted,
                        enumerate_answers, intern, multiattribute_from_volume, parse_cq,
                        pos_volume, pos_weighted, provenance_volume,
                        volume_from_multiattribute)

from conftest import (DOMAIN, TRIANGLE, mk, random_database, random_fact_set,
                      random_free_connex_instance)

VOLUMES = ("elem", "pos", "elem-w", "pos-w", "provenance", "provenance-cyclic")
MAX_UNIVERSE = 10


def subset_walk_weights(v, universe) -> dict:
    """Weight of every subset with a positive measure, found by walking
    all 2^n subsets of the universe."""
    elements = tuple(universe)
    balls = {x: v.ball(x) for x in elements}
    weights = {}
    for size in range(1, len(elements) + 1):
        for combo in combinations(elements, size):
            region = set(balls[combo[0]])
            for x in combo[1:]:
                region &= balls[x]
            for x in elements:
                if x not in combo:
                    region -= balls[x]
            w = v.measure.of(frozenset(region))
            if w > 0:
                weights[frozenset(combo)] = w
    return weights


def _weight(rng) -> Fraction:
    return Fraction(rng.choice((0, 0, 1, 1, 2, 3)), rng.choice((1, 2, 3)))


def volume_and_universe(name, rng):
    """A volume of the named kind and at most MAX_UNIVERSE elements of its
    universe; weighted volumes carry fractional and zero weights."""
    values = [intern(x) for x in DOMAIN]
    if name.startswith("provenance"):
        if name == "provenance":
            q, db, _ = random_free_connex_instance(rng)
        else:
            q = parse_cq(TRIANGLE)
            db = random_database(rng, {a.relation: a.arity for a in q.atoms}, density=0.8)
        answers = enumerate_answers(q, db).ordered()
        return provenance_volume(q, db), rng.sample(answers, min(MAX_UNIVERSE, len(answers)))
    facts = random_fact_set(rng, rng.randint(1, MAX_UNIVERSE))
    rng.shuffle(facts)
    if name == "elem":
        return elem_volume(), facts
    if name == "pos":
        return pos_volume(), facts
    if name == "elem-w":
        return elem_weighted({x: _weight(rng) for x in values if rng.random() < 0.6},
                             _weight(rng)), facts
    return pos_weighted({(x, p): _weight(rng) for x in values for p in (1, 2, 3)
                         if rng.random() < 0.6}, _weight(rng)), facts


def small_subsets(universe):
    """Every subset of up to 3 elements, and the whole universe."""
    for size in range(1, min(3, len(universe)) + 1):
        yield from combinations(universe, size)
    yield tuple(universe)


@settings(max_examples=240, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(VOLUMES))
def test_grouped_weights_match_the_subset_walk_and_round_trip(seed, name):
    rng = random.Random(seed)
    v, universe = volume_and_universe(name, rng)
    maw = multiattribute_from_volume(v, universe)
    assert maw.universe == tuple(universe)
    assert dict(maw.weights) == subset_walk_weights(v, universe)
    back = volume_from_multiattribute(maw)
    for s in small_subsets(universe):
        assert v.diversity(s) == maw.diversity(s) == back.diversity(s)
    assert dict(multiattribute_from_volume(back, universe).weights) == dict(maw.weights)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_weights_with_zeros_round_trip_through_their_volume(seed):
    rng = random.Random(seed)
    universe = tuple(f"x{i}" for i in range(rng.randint(1, MAX_UNIVERSE)))
    weights = {frozenset(rng.sample(universe, rng.randint(1, len(universe)))): _weight(rng)
               for _ in range(rng.randint(0, 12))}
    maw = MultiAttributeWeights(universe, weights)
    v = volume_from_multiattribute(maw)
    positive = {a: w for a, w in weights.items() if w > 0}
    assert dict(multiattribute_from_volume(v, universe).weights) == positive
    assert subset_walk_weights(v, universe) == positive
    for s in small_subsets(universe):
        assert v.diversity(s) == maw.diversity(s)


def test_an_outsider_raises_the_subset_walks_universe_error():
    q = parse_cq("Q(x) <- R(x,y).")
    db = random_database(random.Random(3), {"R": 2}, density=1.0)
    facts = [mk("R", "a", "b"), mk("R", "b", "c")]
    cases = [(provenance_volume(q, db), enumerate_answers(q, db).ordered() + [mk("Q", "zz")]),
             (volume_from_multiattribute(multiattribute_from_volume(elem_volume(), facts)),
              facts + [mk("R", "c", "d")])]
    for v, universe in cases:
        with pytest.raises(UniverseError) as walk:
            subset_walk_weights(v, universe)
        with pytest.raises(UniverseError) as grouped:
            multiattribute_from_volume(v, universe)
        assert str(grouped.value) == str(walk.value)
