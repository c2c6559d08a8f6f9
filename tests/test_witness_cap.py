"""The stated cap on witness-table pairs.

`engine._fold` gathers each hanging component's (row, fact) pairs level
by level, for the provenance ranker's witness tables and for the
skipped subtrees of `provenance_volume`'s balls.  It counts each level's
pairs before it allocates them and raises `LimitExceededError` past
`WITNESS_PAIR_LIMIT`, naming the count and the cap; a fold of exactly
the cap's size still runs.
"""

import re

import pytest

from diverse_cq import (LimitExceededError, ProvenancePlan, engine, greedy_combined,
                        parse_cq, provenance_volume)
from diverse_cq.query import free_connex_split

from conftest import db_of, mk

Q = parse_cq("Q(x,y) <- A(x,y), B(y,z), C(z,w).")


def _db():
    return db_of({"A": 2, "B": 2, "C": 2},
                 [mk(r, u, v) for r in "ABC" for u in "abcd" for v in "abcd" if u <= v])


def _table_pairs(db):
    plan = ProvenancePlan(Q, db)
    return sum(len(ids) for _, _, _, ids in plan._tables)


def _refused(limit):
    return pytest.raises(LimitExceededError, match=re.escape(
        f"(row, fact) pairs; the cap is {limit}"))


def test_the_ranker_stops_at_the_cap(monkeypatch):
    db = _db()
    assert len(free_connex_split(Q)[1]) == 1  # one hanging component, B and C
    pairs = _table_pairs(db)
    assert pairs > 10
    monkeypatch.setattr(engine, "WITNESS_PAIR_LIMIT", pairs)
    assert _table_pairs(db) == pairs  # exactly the cap still folds
    monkeypatch.setattr(engine, "WITNESS_PAIR_LIMIT", pairs - 1)
    with _refused(pairs - 1):
        ProvenancePlan(Q, db)
    with pytest.raises(LimitExceededError, match=r"need at least \d+ \(row, fact\) pairs"):
        greedy_combined(Q, db, 3)  # auto reports the error, as the CLI does with exit 2


def test_provenance_balls_stop_at_the_cap(monkeypatch):
    db = _db()
    ball = provenance_volume(Q, db).ball
    monkeypatch.setattr(engine, "WITNESS_PAIR_LIMIT", 3)
    with _refused(3):
        provenance_volume(Q, db)
    monkeypatch.setattr(engine, "WITNESS_PAIR_LIMIT", 10 ** 7)
    again = provenance_volume(Q, db)
    assert {t: again.ball(t) for t in again.universe} == {t: ball(t) for t in again.universe}
