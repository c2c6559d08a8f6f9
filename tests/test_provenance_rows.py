"""The provenance volume's fact-id rows against the exhaustive provenance map.

On an acyclic body the provenance volume keeps every answer's ball as a
row of `Database.facts()` ids, built with array operations over the join
tree.  Decoded, the rows must be `provenance_map`'s balls, answer for
answer, on random bodies: free-connex or not, with self-joins and
repeated variables.  Answers are kept as head codes: `rows` and the
universe's `in` find them without decoding any, and neither does
materialized greedy.  On paths with many walks per answer, the batched
build must also peak below the per-answer frozenset walk it replaced.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings

from diverse_cq import (CountMeasure, Database, Fact, UniverseError, VolumeAssignment, engine,
                        enumerate_answers, greedy_diversify, gyo_join_tree, intern, parse_cq,
                        provenance_map, provenance_volume)
from diverse_cq.volume import ProvenanceBalls

from conftest import db_of, mk
from test_engine import NOT_FREE_CONNEX, projected_instances


@settings(max_examples=200, deadline=None)
@given(projected_instances())
@example(NOT_FREE_CONNEX)
@example((parse_cq("Q(x,z) <- R(x,y), S(z), R(y,y)."),
          db_of({"R": 2, "S": 1}, [mk("R", "a", "b"), mk("R", "b", "b"), mk("R", "c", "a"),
                                   mk("S", "a"), mk("S", "c")])))
def test_fact_id_rows_decode_to_the_provenance_map(case):
    q, db = case
    v = provenance_volume(q, db)
    balls = v.ball_fn
    assert isinstance(balls, ProvenanceBalls)
    exhaustive = provenance_map(q, db)
    assert list(balls) == sorted(exhaustive) == enumerate_answers(q, db).ordered()
    assert v.universe == frozenset(exhaustive)
    facts = db.facts()
    for j, t in enumerate(balls):
        row = balls.ids[balls.ptr[j]:balls.ptr[j + 1]].tolist()
        assert row == sorted(set(row))  # ascending fact ids: fact order, no repeats
        assert frozenset(facts[i] for i in row) == exhaustive[t]
        assert v.ball(t) == exhaustive[t]
        assert v.ball(t) is v.ball(t)  # decoded once, then kept


@settings(max_examples=150, deadline=None)
@given(projected_instances())
@example(NOT_FREE_CONNEX)
def test_rows_find_answers_by_their_codes_and_decode_none(case):
    q, db = case
    v = provenance_volume(q, db)
    balls = v.ball_fn
    ordered = sorted(provenance_map(q, db))
    stranger = intern("zz")  # held by no fact
    misses = [*(Fact("Other", t.values) for t in ordered[:2]),
              *(Fact(q.head_name, (*t.values, stranger)) for t in ordered[:2]),
              Fact(q.head_name, (stranger,) * len(q.head_vars))]
    probes = [*ordered, *((t.relation, t.values) for t in ordered), *misses]
    random.Random(len(probes)).shuffle(probes)
    want = [ordered.index(t) if t in ordered else -1 for t in probes]
    assert balls.rows(probes).tolist() == want
    assert balls.rows([(t.relation, list(t.values)) for t in ordered]).tolist() == \
        [-1] * len(ordered)  # values as a list are no answer
    assert [t in v.universe for t in probes] == [w >= 0 for w in want]
    assert len(v.universe) == len(ordered)
    assert balls._answers is None  # found by code, none decoded
    assert list(v.universe) == ordered


def test_materialized_greedy_decodes_no_answer_of_the_volume():
    q, db = _dense_path(3, 5, "v0,v3")
    exhaustive = provenance_map(q, db)
    for lazy in (False, True):
        v = provenance_volume(q, db)
        got = greedy_diversify(enumerate_answers(q, db).answers, 6, v, lazy=lazy)
        assert v.ball_fn._answers is None
        assert got == greedy_diversify(exhaustive, 6, VolumeAssignment(
            "provenance", exhaustive.__getitem__, CountMeasure()), lazy=lazy)


def test_a_non_answer_raises_the_universe_error(d1, q1):
    v = provenance_volume(q1, d1)
    stranger = mk("Q1", "c", "c")
    with pytest.raises(UniverseError, match=r"^Q1\(c,c\) is outside the universe of the "
                                            r"provenance volume$"):
        v.ball(stranger)
    with pytest.raises(UniverseError, match=r"^Q1\(c,c\) is not an answer of the query$"):
        v.ball_fn(stranger)


def frozenset_balls(q, db) -> dict:
    """Every answer's ball as a frozenset of facts, built the way the
    provenance volume built it before its fact-id rows: a Python walk of
    the join tree that adds each walk's facts, and per skipped subtree the
    frozenset of its group's `_fold` facts, to one set per answer.  The
    memory reference for the array build."""
    w = engine._walk(q, gyo_join_tree(q), db)
    if w is None:
        return {}
    depth = {u: d for d, u in enumerate(w.walked)}
    every = db.facts()
    ids = [db.offset(a.relation) + r for a, r in zip(q.atoms, w.rows)]
    hang = []  # per skipped subtree: its parent's depth, join, and facts per group
    for c, p in enumerate(w.parents):
        if p in depth and c not in depth:
            n = len(w.groups[c].keys)
            ptr, got = engine._fold(c, np.repeat(np.arange(n), np.diff(w.groups[c].starts)),
                                    w.groups[c].rows, n, w.kids, w.groups, w.join, ids)
            got, ptr = list(map(every.__getitem__, got.tolist())), ptr.tolist()
            hang.append((depth[p], w.join[c].tolist(),
                         [frozenset(got[a:b]) for a, b in zip(ptr, ptr[1:])]))
    steps = []  # per walked node: its group segments, facts, join and parent's depth
    for u in w.walked:
        p = w.parents[u]
        steps.append((w.groups[u].rows.tolist(), w.groups[u].starts.tolist(),
                      list(map(db.relation(q.atoms[u].relation).__getitem__, w.rows[u].tolist())),
                      None if p is None else w.join[u].tolist(), depth.get(p)))
    chosen = [None] * len(steps)
    picked = [None] * len(steps)
    lineage: dict = {}

    def walk(d):
        if d < len(steps):
            rows, starts, facts, to, up = steps[d]
            g = 0 if to is None else to[chosen[up]]
            for i in rows[starts[g]:starts[g + 1]]:
                chosen[d], picked[d] = i, facts[i]
                walk(d + 1)
            return
        ans = Fact(q.head_name, tuple(picked[d].values[i] for d, i in w.head))
        lineage.setdefault(ans, set()).update(
            picked, *(table[to[chosen[d]]] for d, to, table in hang))

    walk(0)
    return {t: frozenset(s) for t, s in lineage.items()}


def _dense_path(length: int, d: int, head: str):
    """`length` complete bipartite relations over `d` values joined into a
    path `v0 ... v<length>` whose inner variables are projected out: not
    free-connex, and each of the d^2 answers has d^(length - 1) walks
    that share their facts."""
    rels = "RSTU"[:length]
    facts = [Fact(r, (intern(f"n{i}"), intern(f"n{j}")))
             for r in rels for i in range(d) for j in range(d)]
    body = ", ".join(f"{r}(v{i},v{i + 1})" for i, r in enumerate(rels))
    return parse_cq(f"Q({head}) <- {body}."), db_of({r: 2 for r in rels}, facts)


def _peak(build):
    """What `build()` returns, and the peak of its traced allocations."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _rows_are_ascending(balls) -> bool:
    return all((np.diff(balls.ids[a:b]) > 0).all()
               for a, b in zip(balls.ptr[:-1], balls.ptr[1:]))


def test_duplicate_heavy_balls_are_built_in_batches_below_the_frozenset_peak():
    # 7,776 walks, six per ball fact, give 36 balls of 84 facts each over
    # several batches.  Expanding every walk at once peaks above the
    # frozenset walk here; the batched build stays below it.
    q, db = _dense_path(4, 6, "v0,v4")
    provenance_volume(q, db)  # builds the database's code columns, outside the trace
    v, rows = _peak(lambda: provenance_volume(q, db))
    reference, sets = _peak(lambda: frozenset_balls(q, db))
    assert rows <= sets
    assert _rows_are_ascending(v.ball_fn)
    assert {t: v.ball(t) for t in v.universe} == reference == provenance_map(q, db)


def test_later_batches_insert_answers_in_value_order():
    # The walks start at T's rows, so a batch finds answers (v0, v3) for a
    # few values of v3, and every v0: they sort among those found before.
    q, db = _dense_path(3, 12, "v0,v3")
    v = provenance_volume(q, db)
    balls = v.ball_fn
    exhaustive = provenance_map(q, db)
    assert list(balls) == sorted(exhaustive)
    assert _rows_are_ascending(balls)
    assert {t: v.ball(t) for t in v.universe} == exhaustive


def test_a_decoded_ball_is_in_the_universe_without_a_search(d1, q1, monkeypatch):
    # `VolumeAssignment.ball` asks `in` before every call, so exact mode's
    # many `diversity` calls must not search the codes again for each.
    v = provenance_volume(q1, d1)
    answer = mk("Q1", "a", "a")
    ball = v.ball(answer)
    searches = []
    find_row = Database.find_row

    def counting(self, columns, values):
        searches.append(values)
        return find_row(self, columns, values)

    monkeypatch.setattr(Database, "find_row", counting)
    assert v.ball(answer) is ball and answer in v.universe
    assert searches == []
    assert mk("Q1", "b", "b") in v.universe and len(searches) == 1
