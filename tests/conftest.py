"""Shared fixtures: hand-built instances and seeded random generators."""

from fractions import Fraction

import pytest

from diverse_cq import (ConjunctiveQuery, Database, ExplicitMatrixDistance, Fact,
                        Schema, UltraNode, UltrametricTree, free_connex_split, intern,
                        parse_cq)


def mk(rel, *vals):
    return Fact(rel, tuple(intern(v) for v in vals))


def db_of(schema_spec: dict, facts) -> Database:
    return Database.from_facts(Schema(dict(schema_spec)), list(facts))


# Three two-column instances sharing the relation name R.

@pytest.fixture
def d1():
    return db_of({"R": 2}, [mk("R", "a", "a"), mk("R", "a", "b"), mk("R", "b", "a")])


@pytest.fixture
def d2():
    return db_of({"R": 2}, [mk("R", "a", "a"), mk("R", "a", "b"),
                            mk("R", "b", "a"), mk("R", "b", "b")])


@pytest.fixture
def d3():
    return db_of({"R": 2}, [mk("R", "a", "b"), mk("R", "a", "c")])


@pytest.fixture
def q1():
    return parse_cq("Q1(x,y) <- R(x,z), R(z,y).")


# A triangle with a private variable per atom: a cyclic body, so no
# ranker can plan it.

TRIANGLE = "Q(x,y,z) <- R(x,y,a), S(y,z,b), T(z,x,c)."


# Four 5-column tuples: two close pairs far apart under Hamming distance.

@pytest.fixture
def hamming_pairs():
    t1 = mk("R", "a", "b", "c", "d", "e")
    t2 = mk("R", "a", "b", "f", "g", "h")
    t3 = mk("R", "x", "y", "i", "j", "k")
    t4 = mk("R", "x", "y", "l", "m", "n")
    return t1, t2, t3, t4


# Triple-sets with equal pairwise Hamming distances but different spreads.

@pytest.fixture
def triple_sets():
    s1 = [mk("R", "a", "b", "x"), mk("R", "a", "y", "c"), mk("R", "z", "b", "c")]
    s2 = [mk("R", "a", "b", "x"), mk("R", "a", "c", "y"), mk("R", "a", "d", "z")]
    s3 = [mk("R", "b", "a", "x"), mk("R", "c", "a", "y"), mk("R", "d", "a", "z")]
    s4 = [mk("R", "b", "x", "a"), mk("R", "c", "y", "a"), mk("R", "d", "z", "a")]
    return s1, s2, s3, s4


# A four-point metric that satisfies the triangle inequality but is not
# an ultrametric: one tight pair (b,c and b,d at 1), everything else 2.

@pytest.fixture
def four_point():
    return ExplicitMatrixDistance(
        ("a", "b", "c", "d"),
        ((Fraction(0), Fraction(2), Fraction(2), Fraction(2)),
         (Fraction(2), Fraction(0), Fraction(1), Fraction(1)),
         (Fraction(2), Fraction(1), Fraction(0), Fraction(2)),
         (Fraction(2), Fraction(1), Fraction(2), Fraction(0))))


@pytest.fixture
def small_tree():
    # radius 2; a,b at distance 1 from each other, both at 2 from c
    return UltrametricTree(UltraNode(Fraction(0), None, (
        UltraNode(Fraction(1), None, (
            UltraNode(Fraction(1), "a"),
            UltraNode(Fraction(1), "b"))),
        UltraNode(Fraction(2), "c"))))


# ---------------------------------------------------------------------------
# Random instance generators.  All take an explicit rng so tests stay
# reproducible under fixed seeds.


DOMAIN = ["a", "b", "c", "d"]


def random_database(rng, schema_spec: dict, density=0.5) -> Database:
    """Independent coin flip per possible tuple over a small domain."""
    dom = DOMAIN[:rng.randint(2, 3)]
    facts = []
    for rel, arity in schema_spec.items():
        tuples = [[]]
        for _ in range(arity):
            tuples = [t + [v] for t in tuples for v in dom]
        for t in tuples:
            if rng.random() < density:
                facts.append(mk(rel, *t))
    return db_of(schema_spec, facts)


def random_tree_query(rng, max_atoms=3, max_arity=3, allow_self_join=False):
    """Full acyclic query: each atom shares variables with one earlier atom.

    Returns (query, schema_spec).  Reversing construction order gives an
    ear decomposition, so the body hypergraph always has a join tree.
    """
    n_atoms = rng.randint(1, max_atoms)
    rels: dict[str, int] = {}
    body = []
    fresh = 0
    for i in range(n_atoms):
        if allow_self_join and rels and rng.random() < 0.3:
            rel = rng.choice(sorted(rels))
            arity = rels[rel]
        else:
            rel = f"R{i}"
            arity = rng.randint(1, max_arity)
            rels[rel] = arity
        if body:
            donor = body[rng.randrange(len(body))][1]
            pool = sorted(set(donor))
            shared = rng.sample(pool, rng.randint(1, min(arity, len(pool))))
        else:
            shared = []
        names = list(shared)
        while len(names) < arity:
            names.append(f"v{fresh}")
            fresh += 1
        rng.shuffle(names)
        if arity >= 2 and rng.random() < 0.15:
            i0, i1 = rng.sample(range(arity), 2)
            names[i1] = names[i0]
        body.append((rel, names))
    head = sorted({n for _, vs in body for n in vs})
    return ConjunctiveQuery.build("Q", head, body), rels


def random_free_connex_instance(rng):
    """Self-join-free acyclic instance accepted by the free-connex test.

    Rejection-samples projected heads; returns (query, db, schema_spec)
    with at least one answer.
    """
    from diverse_cq import enumerate_answers

    while True:
        q, rels = random_tree_query(rng, allow_self_join=False)
        all_vars = sorted({v.name for a in q.atoms for v in a.source_vars})
        if rng.random() < 0.5 and len(q.atoms) > 1:
            prefix = rng.randint(1, len(q.atoms) - 1)
            head = sorted({v.name for a in q.atoms[:prefix] for v in a.source_vars})
        else:
            head = list(all_vars)
        if rng.random() < 0.3 and len(head) > 1:
            head.remove(rng.choice(head))
        q = ConjunctiveQuery.build("Q", head, [(a.relation,
                                                [v.name for v in a.source_vars])
                                               for a in q.atoms])
        if free_connex_split(q) is None:
            continue
        db = random_database(rng, rels, density=rng.uniform(0.4, 0.8))
        if enumerate_answers(q, db).answers:
            return q, db, rels


def random_ultrametric_tree(rng, max_leaves=12) -> UltrametricTree:
    n = rng.randint(2, max_leaves)
    labels = [f"L{i}" for i in range(n)]

    def grow(lbls, height: Fraction, edge: Fraction) -> UltraNode:
        if len(lbls) == 1:
            if height == 0:
                return UltraNode(edge, lbls[0])
            return UltraNode(edge, None, (UltraNode(height, lbls[0]),))
        groups: list[list[str]] = [[] for _ in range(rng.randint(2, min(4, len(lbls))))]
        for i, lbl in enumerate(lbls):
            groups[i % len(groups)].append(lbl)
        kids = []
        for g in groups:
            den = rng.randint(2, 4)
            sub = height * Fraction(rng.randint(0 if len(g) == 1 else 1, den - 1), den)
            kids.append(grow(g, sub, height - sub))
        return UltraNode(edge, None, tuple(kids))

    radius = Fraction(rng.randint(2, 10), rng.randint(1, 2))
    return UltrametricTree(grow(labels, radius, Fraction(0)))


def random_fact_set(rng, n, arity=3) -> list[Fact]:
    dom = DOMAIN[:rng.randint(2, 4)]
    n = min(n, len(dom) ** arity)
    facts = set()
    while len(facts) < n:
        facts.add(mk("T", *[rng.choice(dom) for _ in range(arity)]))
    return sorted(facts)
