"""Every ranked round's gain against the volume's own marginal.

`greedy_combined` trusts the rankers' dynamic programs: no round
recomputes its gain from the volume.  So on random acyclic instances each
round's gain must equal `volume.marginal_given_covered` of the pick, with
the balls of the earlier picks covered, and no answer may gain more.  The
tropical ranker runs under `pos` and `pos-w`; the provenance ranker runs
under count weights, Fraction weights and weights past 2^62, where its
scores are exact Python ints.  The projected shapes put witness tables
below an atom, above one, and below another table, so the tables' array
lowering and the tops they read from atom edges and from each other are
pinned round by round.
"""

import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from diverse_cq import (VolumeAssignment, WeightedMeasure, enumerate_answers, greedy_combined,
                        intern, parse_cq, pos_volume, pos_weighted, provenance_volume)

from conftest import DOMAIN, db_of, mk, random_database, random_free_connex_instance, \
    random_tree_query

K = 6

# Witness tables: below an atom; on both sides of an atom; below an atom
# below a table root; below a table; and one Boolean table.
PROJECTED = [
    "Q(x,y) <- A(x,y), B(y,z), C(z,w).",
    "Q(x,y) <- A(x,y), B(y,z), C(x,w).",
    "Q(x,y,z) <- A(x,y), B(y,z), C(z,w), D(x,v).",
    "Q(x,y) <- A(x,y,w), B(z,y).",
    "Q() <- A(x,y), B(y,z).",
]
FULL = ["P(a,b,c) <- E(a,b), F(b,c).", "P(a,b,c,d) <- E(a,b), F(b,c), E(c,d)."]


def _weight(rng, kind):
    if kind == "fraction":
        return Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 7)))
    return Fraction(2 ** 65 + rng.randint(0, 2 ** 20), rng.choice((1, 3, 7)))


def _random_db(rng, q, values):
    """Each possible fact of each body relation over `values` values, kept
    by one coin flip."""
    dom = [f"v{i}" for i in range(values)]
    arity = {a.relation: len(a.vars) for a in q.atoms}
    density = rng.uniform(0.2, 0.6)
    return db_of(arity, [mk(r, *t) for r, n in sorted(arity.items())
                         for t in product(dom, repeat=n) if rng.random() < density])


def _check_rounds(q, db, v, engine):
    res = greedy_combined(q, db, K, volume=v, engine=engine)
    assert res.engine == engine
    answers = enumerate_answers(q, db).answers
    covered: frozenset = frozenset()
    for t, gain in zip(res.selected, res.gains):
        assert gain == v.marginal_given_covered(covered, t) > 0
        assert gain == max(v.marginal_given_covered(covered, a) for a in answers)
        covered |= v.ball(t)
    if len(res) < K:  # stopped: no answer adds volume
        assert all(v.marginal_given_covered(covered, a) == 0 for a in answers)
    return res


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10 ** 9), kind=st.sampled_from(["unit", "fraction", "huge"]),
       shape=st.sampled_from(["random", *FULL]))
def test_tropical_gains_equal_the_volume_marginals(seed, kind, shape):
    rng = random.Random(seed)
    if shape == "random":
        q, rels = random_tree_query(rng, allow_self_join=True)
        db, dom = random_database(rng, rels), DOMAIN
    else:
        q = parse_cq(shape)
        db, dom = _random_db(rng, q, 5), [f"v{i}" for i in range(5)]
    v = pos_volume() if kind == "unit" else pos_weighted(
        {(intern(x), pos): _weight(rng, kind) for x in dom
         for pos in range(1, len(q.head_vars) + 1) if rng.random() < 0.7},
        _weight(rng, kind))
    _check_rounds(q, db, v, "tropical")


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 9), kind=st.sampled_from(["count", "fraction", "huge"]),
       shape=st.sampled_from(["random", *PROJECTED]))
def test_provenance_gains_equal_the_volume_marginals(seed, kind, shape):
    rng = random.Random(seed)
    if shape == "random":
        q, db, _ = random_free_connex_instance(rng)
    else:
        q = parse_cq(shape)
        db = _random_db(rng, q, rng.randint(3, 6))
    base = provenance_volume(q, db)
    if kind == "count":
        v = base
    else:
        weights = {f: _weight(rng, kind) for f in db.all_facts() if rng.random() < 0.7}
        v = VolumeAssignment("provenance", base.ball_fn,
                             WeightedMeasure(weights, _weight(rng, kind)), universe=base.universe)
    if base.universe:
        _check_rounds(q, db, v, "provenance")
