"""`in`, `fact_id`, `fact_ids`, `find_rows` and `fact(i)` against a
decoded `facts()`.

`in` and `fact_id` find a fact's row by one binary search per position
on its relation's code columns, so a probe decodes no fact; `fact_ids`
finds many at once, by one `find_rows` search of packed codes per
relation, and must agree with `fact_id` on every probe, as `find_rows`
must with `find_row`.  `fact(i)` decodes the one
relation it reads.  `ProvenancePlan.provenance_of` finds a witness-table
row by the same search."""

import random
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverse_cq import (Database, Fact, InputError, LoadError, ProvenancePlan, Schema,
                        enumerate_answers, intern, parse_cq)

from conftest import db_of, mk, random_free_connex_instance

SCHEMA = Schema({"R": 1, "S": 2, "T": 3})
HELD = ["a", "b", "c", "1", "2.5"]
CELLS = st.sampled_from(HELD)
STORED = st.one_of(*(st.tuples(st.just(name), st.lists(CELLS, min_size=n, max_size=n))
                     for name, n in SCHEMA.arities.items()))

# Probes: any relation name, the schema's or not, any width, values held
# or not (`zz` and `7` are interned but held by no fact), raw strings,
# and values as a tuple or a list, as a `Fact` or a plain pair.
VALUE = st.one_of(CELLS.map(intern), st.sampled_from(["zz", "7"]).map(intern),
                  st.sampled_from(HELD))
PROBE = st.builds(lambda name, values, make: make(name, values),
                  st.sampled_from(["R", "S", "T", "U"]),
                  st.lists(VALUE, max_size=4),
                  st.sampled_from([lambda n, v: Fact(n, v), lambda n, v: (n, tuple(v)),
                                   lambda n, v: (n, v)]))


@settings(max_examples=150, deadline=None)
@given(st.lists(STORED, max_size=30), st.lists(PROBE, max_size=20))
def test_probes_match_the_decoded_facts(rows, probes):
    relations: dict = {}
    for name, cells in rows:
        relations.setdefault(name, []).append(mk(name, *cells))
    db = Database(SCHEMA, relations)
    facts = Database(SCHEMA, relations).facts()
    stored = [*facts, *(f for f in probes if f in facts)]  # hits as often as misses
    listed = [(f.relation, list(f.values)) for f in facts]  # equal to no fact
    for probe in [*stored, *probes, *listed]:
        want = facts.index(probe) if probe in facts else None
        got = db.fact_id(probe)
        assert got == want and type(got) is type(want)
        assert (probe in db) is (want is not None)
    assert not db._relations  # the probes decoded no fact
    assert db.fact_count() == len(facts)
    for i, f in enumerate(facts):
        assert db.fact(i) == f
    for i in (-1, -len(facts) - 1, len(facts)):
        with pytest.raises(IndexError):
            db.fact(i)


def _one_by_one(db, probes):
    return [-1 if i is None else i for i in map(db.fact_id, probes)]


@settings(max_examples=150, deadline=None)
@given(st.lists(STORED, max_size=30), st.lists(PROBE, max_size=20), st.randoms())
def test_batched_probes_match_one_probe_each(rows, probes, rng):
    relations: dict = {}
    for name, cells in rows:
        relations.setdefault(name, []).append(mk(name, *cells))
    db = Database(SCHEMA, relations)
    facts = Database(SCHEMA, relations).facts()
    batch = [*facts, *probes, *(f for f in probes if f in facts),
             *((f.relation, list(f.values)) for f in facts)]
    rng.shuffle(batch)
    got = db.fact_ids(iter(batch))
    assert got.dtype == np.int64 and got.tolist() == _one_by_one(db, batch)
    assert not db._relations  # the probes decoded no fact
    assert db.fact_ids([]).tolist() == []


def test_batched_probes_of_a_wide_relation_and_an_empty_one():
    # Eight columns over 300 values pack past 2^62, so the keys are re-ranked.
    rng = random.Random(5)
    wide = [mk("W", *(f"w{rng.randrange(300)}" for _ in range(8))) for _ in range(400)]
    db = db_of({"M": 1, "W": 8}, wide)
    probes = [*wide, *(mk("W", *(f"w{rng.randrange(300)}" for _ in range(8))) for _ in range(50)),
              mk("W", *wide[0].values[:7], "zz"), mk("M", "w1")]
    got = db.fact_ids(probes)
    assert got.tolist() == _one_by_one(db, probes)
    assert (got[:400] >= 0).all() and got[-2] == got[-1] == -1
    # An unheld value packed as code -1 would land on S(a,c): b*3 - 1 == a*3 + c.
    db = db_of({"S": 2}, [mk("S", "a", "c"), mk("S", "b", "a")])
    assert db.fact_ids([mk("S", "b", "zz"), mk("S", "a", "c")]).tolist() == [-1, 0]


@settings(max_examples=100, deadline=None)
@given(st.lists(STORED, max_size=30), st.lists(PROBE, max_size=20))
def test_find_rows_matches_one_find_row_each(rows, probes):
    relations: dict = {}
    for name, cells in rows:
        relations.setdefault(name, []).append(mk(name, *cells))
    db = Database(SCHEMA, relations)
    facts = Database(SCHEMA, relations).facts()
    for name, arity in SCHEMA.arities.items():
        asked = [tuple(p[1]) for p in [*facts, *probes] if p[0] == name and len(p[1]) == arity]
        columns = db.codes(name)
        got = db.find_rows(columns, asked)
        want = [-1 if r is None else r for r in (db.find_row(columns, v) for v in asked)]
        assert got.dtype == np.int64 and got.tolist() == want
    assert not db._relations  # the probes decoded no fact


def test_fact_rejects_ids_out_of_range():
    db = db_of({"R": 1, "S": 2}, [mk("R", "a"), mk("S", "b", "c"), mk("S", "c", "d")])
    for i in (-1, -3, 3):
        with pytest.raises(IndexError, match=rf"fact id {i} is not in range\(3\)"):
            db.fact(i)
    assert not db._relations  # rejected before any relation is decoded
    assert db.fact(2) == mk("S", "c", "d")
    empty = db_of({"R": 1}, [])
    with pytest.raises(IndexError):
        empty.fact(0)


def test_database_rejects_undeclared_relations():
    with pytest.raises(LoadError, match=r"facts reference undeclared relations: \['X'\]"):
        Database(Schema({"R": 1}), {"R": [mk("R", "a")], "X": [mk("X", "b")]})
    with pytest.raises(LoadError, match=r"undeclared relations: \['X', 'Y'\]"):
        db_of({"R": 1}, [mk("Y", "a"), mk("R", "a"), mk("X", "b")])


def test_provenance_of_accepts_exactly_the_answers():
    rng = random.Random(2027)
    for _ in range(20):
        q, db, _ = random_free_connex_instance(rng)
        plan = ProvenancePlan(q, db)
        answers = set(enumerate_answers(q, db).answers)
        for values in product(db.values, repeat=len(q.head_vars)):
            t = Fact(q.head_name, values)
            if t in answers:
                assert plan.provenance_of(t)
            else:
                with pytest.raises(InputError, match="not an answer"):
                    plan.provenance_of(t)


def test_provenance_of_rejects_a_wrong_head_shape_and_a_split_repeated_variable():
    plan = ProvenancePlan(parse_cq("Q(x,x) <- R(x,y)."), db_of({"R": 2}, [mk("R", "a", "b")]))
    assert plan.provenance_of(mk("Q", "a", "a")) == {mk("R", "a", "b")}
    with pytest.raises(InputError, match=re.escape("Q(a,b) is not an answer of the query")):
        plan.provenance_of(mk("Q", "a", "b"))
    with pytest.raises(InputError, match=re.escape("Q(a) does not have the query's head shape")):
        plan.provenance_of(mk("Q", "a"))
