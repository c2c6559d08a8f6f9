"""The batched answer walk against the recursive walk it replaced.

`engine._tree_answers` expands the walks of `engine._walk` as columns of
row ids, a batch at a time.  `recursive_tree_answers` is the per-row
recursive generator it replaced, kept as the order oracle: both must
yield the same answers in the same order, whatever the batch size.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diverse_cq import ConjunctiveQuery, Fact, gyo_join_tree, intern, iter_answers, parse_cq
from diverse_cq import engine
from diverse_cq.query import _reroot

from conftest import db_of, mk, random_database, random_tree_query


def recursive_tree_answers(q, parents, db):
    """Distinct answers of `q` over the join tree `parents`, one walk at a
    time: a recursive preorder walk over per-row `Fact` lists that follows
    each chosen row's joins, row by row at each depth, in group order."""
    w = engine._walk(q, parents, db)
    if w is None:
        return
    depth = {u: d for d, u in enumerate(w.walked)}
    # One step per walked node: its group segments and facts, its join,
    # and the depth whose chosen row it joins (none at a root).
    steps = []
    for u in w.walked:
        p = w.parents[u]
        facts = list(map(db.relation(q.atoms[u].relation).__getitem__, w.rows[u].tolist()))
        steps.append((w.groups[u].rows.tolist(), w.groups[u].starts.tolist(), facts,
                      None if p is None else w.join[u].tolist(), depth.get(p)))
    chosen = [None] * len(steps)  # the walk's rows
    picked = [None] * len(steps)  # and their facts
    seen = set()

    def walk(d):
        if d < len(steps):
            rows, starts, facts, to, up = steps[d]
            g = 0 if to is None else to[chosen[up]]
            for i in rows[starts[g]:starts[g + 1]]:
                chosen[d] = i
                picked[d] = facts[i]
                yield from walk(d + 1)
            return
        ans = Fact._make((q.head_name, tuple([picked[d].values[i] for d, i in w.head])))
        if ans not in seen:
            seen.add(ans)
            yield ans

    yield from walk(0)


@st.composite
def walk_instances(draw):
    """Random acyclic bodies of up to four atoms, self-joins and repeated
    variables included, under a projected, nullary or full head."""
    rng = draw(st.randoms(use_true_random=False))
    full, rels = random_tree_query(rng, max_atoms=4, allow_self_join=True)
    names = sorted({v.name for a in full.atoms for v in a.source_vars})
    kind = draw(st.sampled_from(["projected", "nullary", "full"]))
    head = {"projected": draw(st.lists(st.sampled_from(names), max_size=len(names) + 1)),
            "nullary": [], "full": names}[kind]
    q = ConjunctiveQuery.build(
        "Q", head, [(a.relation, [v.name for v in a.source_vars]) for a in full.atoms])
    return q, random_database(rng, rels, density=draw(st.floats(0.3, 0.8)))


@settings(max_examples=200, deadline=None)
@given(walk_instances())
@example((parse_cq("Q(x,z) <- R(x,y), S(y,z)."),
          db_of({"R": 2, "S": 2},
                [mk("R", "a", "b"), mk("R", "a", "c"), mk("R", "b", "c"),
                 mk("S", "b", "a"), mk("S", "c", "a"), mk("S", "c", "b")])))
@example((parse_cq("Q(x,z) <- R(x,y), S(z), R(y,y)."),
          db_of({"R": 2, "S": 1}, [mk("R", "a", "b"), mk("R", "b", "b"), mk("R", "c", "a"),
                                   mk("S", "a"), mk("S", "c")])))
@example((parse_cq("Q() <- R(x), S(y)."),
          db_of({"R": 1, "S": 1}, [mk("R", "a"), mk("R", "b"), mk("S", "c")])))
def test_batched_walk_yields_the_recursive_walks_order(case):
    q, db = case
    parents = gyo_join_tree(q)
    for root in range(len(parents)):
        tree = _reroot(parents, root)
        expected = list(recursive_tree_answers(q, tree, db))
        for batch in (1, 3, engine._WALK_BATCH):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "_WALK_BATCH", batch)
                assert list(engine._tree_answers(q, tree, db)) == expected, (root, batch)


def test_first_answer_expands_only_the_first_batch(monkeypatch):
    # A 4-path over complete bipartite relations on 16 values: 16^5 walks,
    # 16^3 from every row of any root.  The first answer must not wait for
    # the other batches.
    d = 16
    facts = [Fact(r, (intern(f"n{i}"), intern(f"n{j}")))
             for r in "RSTU" for i in range(d) for j in range(d)]
    db = db_of({r: 2 for r in "RSTU"}, facts)
    q = parse_cq("Q(v0,v4) <- R(v0,v1), S(v1,v2), T(v2,v3), U(v3,v4).")
    assert len(db.relation("R")) * d ** 3 >= 10 ** 6  # walks
    sizes, decoded = [], []
    expand, decode = engine._expand, engine._decode

    def counting(w, top):
        cols = expand(w, top)
        sizes.append(len(cols[0]))
        return cols

    def decoding(name, codes, values):
        decoded.append(codes.shape[1])
        return decode(name, codes, values)

    monkeypatch.setattr(engine, "_expand", counting)
    monkeypatch.setattr(engine, "_decode", decoding)
    answers = iter_answers(q, db)
    first = next(answers)
    assert first == Fact("Q", (intern("n0"), intern("n0")))
    assert len(sizes) == 1 and sizes[0] <= max(engine._WALK_BATCH, d ** 3)
    # a row's d^3 walks are decoded a slice of `_WALK_BATCH` at a time
    assert decoded == [engine._WALK_BATCH] < [d ** 3]
    answers.close()
