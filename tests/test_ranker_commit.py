"""The rankers' `best()`/`commit(answer)` rounds against their public API.

`greedy_combined` drives a ranking plan through `best()` and
`commit(answer)`, which covers the point ids charged by the rows the
dynamic program picked.  The public `best(covered)` maps a region of
ground points to ids instead.  Both drives must pick the same answers
with the same gains and re-score the same rows, and the ids a commit
covers must decode to exactly the answer's ball under the volume.  A ranked round must
not map facts back to ids or decode a ball, and the ranked and
materialized selections must not import `numpy.ma` (`np.unique` does).
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diverse_cq
from diverse_cq import (Database, ProvenancePlan, TropicalPlan, greedy_combined, intern,
                        pos_volume, pos_weighted, provenance_volume)

from conftest import DOMAIN, random_database, random_free_connex_instance, random_tree_query

ROUNDS = 6


def _weight(rng, kind):
    """A small fraction, or a weight past 2^62 on its own, so that scores
    are exact Python ints."""
    if kind == "fraction":
        return Fraction(rng.randint(0, 12), rng.choice((2, 3, 7)))
    return Fraction(2 ** 65 + rng.randint(0, 2 ** 20), rng.choice((1, 3, 7)))


def _instance(rng, ranker, kind):
    """(plan factory, answer -> ball under the plan's volume) over a
    random instance."""
    if ranker == "tropical":
        q, rels = random_tree_query(rng, allow_self_join=True)
        db = random_database(rng, rels)
        v = pos_volume() if kind == "unit" else pos_weighted(
            {(intern(x), pos): _weight(rng, kind) for x in DOMAIN
             for pos in range(1, len(q.head_vars) + 1) if rng.random() < 0.7},
            _weight(rng, kind))
        return (lambda: TropicalPlan(q, db, v)), v.ball
    q, db, _ = random_free_connex_instance(rng)
    weight_of = None
    if kind != "unit":
        heavy = {f: _weight(rng, kind) for f in db.facts() if rng.random() < 0.7}
        default = _weight(rng, kind)

        def weight_of(f):
            return heavy.get(f, default)

    return (lambda: ProvenancePlan(q, db, weight_of=weight_of)), provenance_volume(q, db).ball


@pytest.mark.parametrize("ranker", ["tropical", "provenance"])
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 9), kind=st.sampled_from(["unit", "fraction", "huge"]))
def test_commit_rounds_match_public_best(ranker, seed, kind):
    make, ball = _instance(random.Random(seed), ranker, kind)
    committed, public = make(), make()
    covered: frozenset = frozenset()
    for _ in range(ROUNDS):
        got = committed.best()
        assert got == public.best(covered)
        if got is None:
            break
        answer = got[0]
        assert set(committed._points(committed._picked_ids())) == ball(answer)
        committed.commit(answer)
        covered |= ball(answer)
        assert committed.rows_rescored == public.rows_rescored
    if kind == "huge" and len(committed._cover.owners):
        assert committed._cover.dtype is object


def test_ranked_rounds_map_no_fact_to_an_id(monkeypatch):
    calls = {"fact_id": 0, "provenance_of": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Database, "fact_id", counted("fact_id", Database.fact_id))
    monkeypatch.setattr(ProvenancePlan, "provenance_of",
                        counted("provenance_of", ProvenancePlan.provenance_of))
    rng = random.Random(2026)
    rounds = 0
    for _ in range(30):
        q, db, _ = random_free_connex_instance(rng)
        res = greedy_combined(q, db, 4, engine="provenance")
        assert res.engine == "provenance"
        rounds += len(res)
    assert rounds > 30 and calls == {"fact_id": 0, "provenance_of": 0}
    # The public API still maps facts, so the counters do see calls.
    plan = ProvenancePlan(q, db)
    plan.best(plan.provenance_of(res.selected[0]))
    assert calls["fact_id"] and calls["provenance_of"] == 1


# Runs both rankers and materialized greedy on a seeded instance and
# prints whether `numpy.ma` was imported.
NUMPY_MA_SCRIPT = """
import random, sys
from diverse_cq import (Database, Fact, elem_volume, enumerate_answers, greedy_combined,
                        greedy_diversify, intern, parse_cq, pos_volume, provenance_volume)
from diverse_cq.relcore import Schema
rng = random.Random(7)
facts = [Fact(r, (intern(f"n{u}"), intern(f"n{v}")))
         for r in "ABC" for u, v in rng.sample([(u, v) for u in range(30) for v in range(30)], 200)]
db = Database.from_facts(Schema({"A": 2, "B": 2, "C": 2}), facts)
path = parse_cq("P(a,b,c,d) <- A(a,b), B(b,c), C(c,d).")
projected = parse_cq("Q(x,y) <- A(x,y), B(y,z), C(z,w).")
assert greedy_combined(path, db, 10, volume=pos_volume(), engine="tropical").engine == "tropical"
assert greedy_combined(projected, db, 10, engine="provenance").engine == "provenance"
answers = enumerate_answers(projected, db).answers
for v in (elem_volume(), provenance_volume(projected, db)):
    for lazy in (False, True):
        greedy_diversify(answers, 10, v, lazy=lazy)
print("numpy.ma" in sys.modules)
"""


def test_selections_do_not_import_numpy_ma():
    src = str(Path(diverse_cq.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NUMPY_MA_SCRIPT],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"
