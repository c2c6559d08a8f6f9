"""The provenance volume's balls, factorised into own rows and shared folds.

Over an acyclic body, a skipped subtree's facts depend only on the group
of it that an answer joins.  When every answer joins one group and the
body is self-join-free, `engine._tree_balls` keeps that subtree's fold
once per group, and materialized greedy covers the folds as parts shared
by their answers.  Greedy must pick and gain exactly what a greedy over
`provenance_map`'s frozenset balls does, plain and lazy, under count and
weighted measures, over every answer or a subset; the volume must share
folds on a free-connex projection and none on a self-join body; and its
peak must stay below the per-answer rows it no longer builds.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from diverse_cq import (CountMeasure, Fact, LimitExceededError, VolumeAssignment, engine,
                        enumerate_answers, greedy_diversify, gyo_join_tree, intern, parse_cq,
                        provenance_map, provenance_volume)
from diverse_cq.volume import WeightedMeasure

from conftest import db_of, mk
from test_engine import NOT_FREE_CONNEX, projected_instances

PROJECTED = parse_cq("Q(x,y) <- A(x,y), B(y,z), C(z,w).")  # the materialized-greedy shape


def _measure(db, rng, weighted: bool):
    if not weighted:
        return CountMeasure()
    facts = db.facts()
    weights = {f: Fraction(rng.randint(1, 6), rng.randint(1, 3))
               for f in rng.sample(facts, len(facts) // 2)}
    return WeightedMeasure(weights, Fraction(1, 2))


@settings(max_examples=120, deadline=None)
@given(projected_instances(), st.randoms(use_true_random=False), st.booleans())
@example(NOT_FREE_CONNEX, random.Random(0), True)
@example((parse_cq("Q(x,z) <- R(x,y), S(z), R(y,y)."),
          db_of({"R": 2, "S": 1}, [mk("R", "a", "b"), mk("R", "b", "b"), mk("R", "c", "a"),
                                   mk("S", "a"), mk("S", "c")])), random.Random(1), False)
def test_greedy_over_shared_folds_matches_frozenset_balls(case, rng, weighted):
    q, db = case
    v = provenance_volume(q, db)
    exhaustive = provenance_map(q, db)
    measure = _measure(db, rng, weighted)
    under_test = VolumeAssignment("provenance", v.ball_fn, measure, universe=v.universe)
    reference = VolumeAssignment("reference", exhaustive.__getitem__, measure,
                                 universe=frozenset(exhaustive))
    answers = sorted(exhaustive)
    subset = frozenset(rng.sample(answers, rng.randint(0, len(answers))))
    k = rng.randint(1, len(answers) + 1)
    for pool in (enumerate_answers(q, db).answers, subset):
        for lazy in (False, True):
            got = greedy_diversify(pool, k, under_test, lazy=lazy)
            want = greedy_diversify(frozenset(pool), k, reference, lazy=lazy)
            assert got == want, (q.to_text(), lazy, len(pool))


def _random_db(rels, m: int, nodes: int, seed: int):
    rng = random.Random(seed)
    values = [intern(f"n{i}") for i in range(nodes)]
    facts = [Fact(r, (values[c // nodes], values[c % nodes]))
             for r in rels for c in rng.sample(range(nodes * nodes), m)]
    return db_of({r: 2 for r in rels}, facts)


def _balls(q, db):
    return engine._tree_balls(q, gyo_join_tree(q), db)


def test_a_free_connex_projection_shares_its_hanging_subtree():
    db = _random_db("ABC", 120, 16, 0)
    balls = _balls(PROJECTED, db)
    assert len(balls.shared) == 1  # B and C hang below A, and are folded once per group
    assert len(balls.ids) == balls.heads.shape[1]  # each answer's own row: its one A fact
    assert len(balls.shared[0].group) == balls.heads.shape[1]  # one group per answer
    v = provenance_volume(PROJECTED, db)
    assert {t: v.ball(t) for t in v.universe} == provenance_map(PROJECTED, db)


@pytest.mark.parametrize("text", ["Q(x,y) <- R(x,y), R(y,z), R(z,w).",
                                  "Q(y,z) <- R(x,y), S(y,z), R(z,w)."])
def test_a_self_join_body_shares_no_fold(text):
    q = parse_cq(text)
    db = _random_db("RS", 60, 10, 1)
    w = engine._walk(q, gyo_join_tree(q), db)
    assert set(range(len(q.atoms))) - set(w.walked)  # some subtree is skipped
    balls = _balls(q, db)
    assert balls.shared == ()
    v = provenance_volume(q, db)
    assert {t: v.ball(t) for t in v.universe} == provenance_map(q, db)


def test_an_answer_joining_two_groups_keeps_that_fold_in_its_row():
    # y is projected out, so an answer (x) joins the group of every y it
    # reaches; the subtree below S is not shared then.
    q = parse_cq("Q(x) <- R(x,y), S(y,z).")
    db = db_of({"R": 2, "S": 2}, [mk("R", "a", "b"), mk("R", "a", "c"), mk("R", "b", "c"),
                                  mk("S", "b", "d"), mk("S", "c", "d"), mk("S", "c", "e")])
    balls = _balls(q, db)
    assert balls.shared == ()
    v = provenance_volume(q, db)
    assert {t: v.ball(t) for t in v.universe} == provenance_map(q, db)


def _peak(build):
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_four_path_volume_peaks_below_the_rows_it_replaces():
    q = parse_cq("P(x0,x1) <- E0(x0,x1), E1(x1,x2), E2(x2,x3), E3(x3,x4).")
    # degree 10, as for 20,000 edges per relation on 2,000 nodes
    db = _random_db(["E0", "E1", "E2", "E3"], 600, 60, 2)
    provenance_volume(q, db)  # builds the database's code columns, outside the trace
    v, peak = _peak(lambda: provenance_volume(q, db))
    balls = v.ball_fn
    assert len(balls.balls.shared) == 1
    rows = balls.ptr.nbytes + balls.ids.nbytes  # built on first access, after the trace
    assert peak < rows
    got = greedy_diversify(v.universe, 10, v)
    want = greedy_diversify(v.universe, 10, VolumeAssignment(
        "reference", provenance_map(q, db).__getitem__, CountMeasure()))
    assert got == want


def test_whole_rows_are_built_under_the_witness_pair_cap(monkeypatch):
    db = _random_db("ABC", 120, 16, 3)
    v = provenance_volume(PROJECTED, db)
    rows = len(provenance_volume(PROJECTED, db).ball_fn.ids)
    monkeypatch.setattr(engine, "WITNESS_PAIR_LIMIT", rows - 1)
    with pytest.raises(LimitExceededError, match=f"at least {rows} .* the cap is {rows - 1}$"):
        v.ball_fn.ptr
    greedy_diversify(v.universe, 3, v)  # greedy covers the parts, never the whole rows
