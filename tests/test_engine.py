import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diverse_cq import engine
from diverse_cq import (ConjunctiveQuery, Fact, InputError, LimitExceededError, LoadError,
                        enumerate_answers, gyo_join_tree, homomorphisms, iter_answers,
                        parse_cq, provenance_map, provenance_volume)

from diverse_cq.query import _reroot

from conftest import db_of, mk, random_database, random_tree_query


def answers_text(ans):
    return sorted(tuple(v.text() for v in f.values) for f in ans.answers)


def test_two_hop_answers(d1, q1):
    ans = enumerate_answers(q1, d1)
    assert ans.query is q1
    assert answers_text(ans) == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    assert [tuple(v.text() for v in f.values) for f in ans.ordered()][0] == ("a", "a")


def test_empty_database_yields_no_answers(q1):
    db = db_of({"R": 2}, [])
    assert enumerate_answers(q1, db).answers == frozenset()


def test_iter_answers_deduplicates(d1, q1):
    got = list(iter_answers(q1, d1))
    assert len(got) == len(set(got)) == 4


def test_repeated_variable_filters(d1):
    q = parse_cq("Q(x) <- R(x,x).")
    ans = enumerate_answers(q, d1)
    assert answers_text(ans) == [("a",)]


def test_homomorphism_limit():
    db = db_of({"R": 2}, [mk("R", a, b) for a in "abcd" for b in "abcd"])
    q = parse_cq("Q(x,y,z) <- R(x,y), R(y,z).")
    with pytest.raises(LimitExceededError):
        list(homomorphisms(q, db, limit=5))


def oracle_answers(q, db) -> frozenset:
    """Answers by the backtracking join, the semantics oracle."""
    return frozenset(Fact(q.head_name, tuple(b[v] for v in q.head_vars))
                     for b, _ in homomorphisms(q, db))


def test_yannakakis_matches_enumeration_on_random_instances():
    rng = random.Random(97)
    for _ in range(60):
        q, rels = random_tree_query(rng, allow_self_join=True)
        db = random_database(rng, rels)
        assert enumerate_answers(q, db).answers == oracle_answers(q, db), q.to_text()


@st.composite
def projected_instances(draw):
    """Random acyclic bodies (self-joins and repeated variables included)
    with the head projected onto a random list of body variables: empty,
    free-connex or not, with repeats."""
    rng = draw(st.randoms(use_true_random=False))
    full, rels = random_tree_query(rng, max_atoms=4, allow_self_join=True)
    names = sorted({v.name for a in full.atoms for v in a.source_vars})
    head = draw(st.lists(st.sampled_from(names), max_size=len(names) + 1))
    q = ConjunctiveQuery.build(
        "Q", head, [(a.relation, [v.name for v in a.source_vars]) for a in full.atoms])
    return q, random_database(rng, rels, density=draw(st.floats(0.3, 0.8)))


# The smallest head that is not free-connex: the join variable is projected out.
NOT_FREE_CONNEX = (parse_cq("Q(x,z) <- R(x,y), S(y,z)."),
                   db_of({"R": 2, "S": 2},
                         [mk("R", "a", "b"), mk("R", "a", "c"), mk("R", "b", "c"),
                          mk("S", "b", "a"), mk("S", "c", "a"), mk("S", "c", "b")]))


@settings(max_examples=150, deadline=None)
@given(projected_instances())
@example(NOT_FREE_CONNEX)
def test_enumeration_matches_backtracking_on_projected_heads(case):
    q, db = case
    assert enumerate_answers(q, db).answers == oracle_answers(q, db)
    assert set(iter_answers(q, db)) == oracle_answers(q, db)


@settings(max_examples=150, deadline=None)
@given(projected_instances())
@example(NOT_FREE_CONNEX)
def test_yannakakis_agrees_over_every_rerooting(case):
    q, db = case
    parents = gyo_join_tree(q)
    expected = oracle_answers(q, db)
    for root in range(len(parents)):
        got = list(engine._tree_answers(q, _reroot(parents, root), db))
        assert len(got) == len(set(got)) and set(got) == expected


@settings(max_examples=150, deadline=None)
@given(projected_instances())
@example(NOT_FREE_CONNEX)
@example((parse_cq("Q() <- R0(v0), R0(v0), R0(v0)."),
          db_of({"R0": 1}, [mk("R0", "a"), mk("R0", "b")])))
@example((parse_cq("Q(x,z) <- R(x,y), S(z), R(y,y)."),
          db_of({"R": 2, "S": 1}, [mk("R", "a", "b"), mk("R", "b", "b"), mk("R", "c", "a"),
                                   mk("S", "a"), mk("S", "c")])))
def test_provenance_volume_balls_match_exhaustive_map(case):
    q, db = case
    answers = oracle_answers(q, db)
    v = provenance_volume(q, db)
    assert v.universe == answers
    exhaustive = provenance_map(q, db, answers)
    for t in answers:
        assert v.ball(t) == exhaustive[t]


def test_acyclic_query_over_undeclared_relation_is_a_load_error(d1):
    q = parse_cq("Q(x) <- R(x,y), S(y,z).")
    with pytest.raises(LoadError, match="unknown relation 'S'"):
        enumerate_answers(q, d1)
    with pytest.raises(LoadError, match="unknown relation 'S'"):
        provenance_volume(q, d1)


def test_provenance_of_two_hop_answers(d1, q1):
    ans = enumerate_answers(q1, d1)
    prov = provenance_map(q1, d1, ans.answers)
    assert prov[mk("Q1", "a", "a")] == frozenset(
        {mk("R", "a", "a"), mk("R", "a", "b"), mk("R", "b", "a")})
    assert prov[mk("Q1", "b", "b")] == frozenset(
        {mk("R", "b", "a"), mk("R", "a", "b")})


def test_provenance_map_rejects_non_answers(d1, q1):
    with pytest.raises(InputError, match="not an answer"):
        provenance_map(q1, d1, [mk("Q1", "c", "c")])
    for shape in (mk("Q1", "a"), mk("P", "a", "a")):
        with pytest.raises(InputError, match="does not have the query's head shape"):
            provenance_map(q1, d1, [shape])


def test_provenance_respects_extension_limit(d1, q1):
    ans = enumerate_answers(q1, d1)
    with pytest.raises(LimitExceededError):
        provenance_map(q1, d1, ans.answers, limit=2)


def test_provenance_volume_fallback_keeps_the_extension_cap(d1, monkeypatch):
    # A cyclic body has no join tree, so its balls come from provenance_map.
    q = parse_cq("Q(x) <- R(x,y), R(y,z), R(z,x).")
    monkeypatch.setattr(engine, "provenance_map",
                        functools.partial(engine.provenance_map, limit=2))
    with pytest.raises(LimitExceededError):
        provenance_volume(q, d1)


def test_provenance_volume_of_a_cyclic_body_backtracks_once(monkeypatch):
    q = parse_cq("Q(x) <- R(x,y), R(y,z), R(z,x).")
    db = db_of({"R": 2}, [mk("R", "a", "b"), mk("R", "b", "c"), mk("R", "c", "a"),
                          mk("R", "a", "a")])
    answers = enumerate_answers(q, db).answers
    balls = provenance_map(q, db, answers)
    passes = []
    search = engine.homomorphisms

    def counting(*args, **kwargs):
        passes.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(engine, "homomorphisms", counting)
    v = provenance_volume(q, db)
    assert len(passes) == 1
    assert v.universe == answers == {mk("Q", x) for x in "abc"}
    assert {t: v.ball(t) for t in answers} == balls
    assert provenance_map(q, db) == balls


def test_provenance_volume_of_an_acyclic_body_skips_backtracking(d1, q1, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("provenance_map ran on an acyclic body")

    monkeypatch.setattr(engine, "provenance_map", refuse)
    monkeypatch.setattr(engine, "homomorphisms", refuse)
    v = provenance_volume(q1, d1)
    assert v.ball(mk("Q1", "a", "a")) == frozenset(
        {mk("R", "a", "a"), mk("R", "a", "b"), mk("R", "b", "a")})


def test_cyclic_body_over_undeclared_relations_names_the_first_atom():
    # Relations are checked in body order, whatever the hash seed.
    code = ("from diverse_cq import Database, LoadError, Schema, enumerate_answers, parse_cq\n"
            "q = parse_cq('Q(x) <- A(x,y), B(y,z), C(z,x).')\n"
            "try:\n"
            "    enumerate_answers(q, Database.from_facts(Schema({'R': 2}), []))\n"
            "except LoadError as exc:\n"
            "    print(exc)\n")
    src = str(Path(engine.__file__).resolve().parents[1])
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "unknown relation 'A'", seed
