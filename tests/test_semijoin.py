"""The array semijoin pass against a dict-based oracle.

`dict_reduce` is the semijoin pass written over Python rows:
per node, a dict from the key it shares with its parent to its live
rows, filled in row order.  The engine's `_reduce` runs the same pass on
the database's int64 code columns; both must keep the same live rows,
under the same group keys, in the same order within each group.
"""

from operator import itemgetter

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diverse_cq import ConjunctiveQuery, atom_candidates
from diverse_cq.engine import _atom_rows, _pack, _reduce
from diverse_cq.query import _preorder

from conftest import db_of, mk, random_tree_query


def _picker(positions):
    """Row -> its values at `positions`, as a hashable key: a tuple, or
    the bare value for a single position."""
    return itemgetter(*positions) if positions else (lambda row: ())


def dict_reduce(bags, rows, parents):
    """The oracle: bottom-up semijoins over the forest `parents`, node `u`
    holding the value rows `rows[u]` over the variables `bags[u]`.

    Returns per node the key picker on its rows and the probe picker on
    its parent's rows, and its live rows as row indices grouped by key in
    row order.
    """
    order, kids = _preorder(parents)
    key, probe = [], []
    for u, p in enumerate(parents):
        shared = [] if p is None else [v for v in bags[u] if v in bags[p]]
        key.append(_picker([bags[u].index(v) for v in shared]))
        probe.append(_picker([bags[p].index(v) for v in shared]))
    groups: list[dict] = [{} for _ in rows]
    for u in reversed(order):
        live = range(len(rows[u]))
        for c in kids[u]:
            live = [i for i in live if probe[c](rows[u][i]) in groups[c]]
        for i in live:
            groups[u].setdefault(key[u](rows[u][i]), []).append(i)
    return key, probe, groups


DOMAIN = ["1", "2.5", "a", "b"]  # numbers order before text


@st.composite
def forests(draw):
    """A random body (self-joins and repeated variables included) over a
    database whose relations may be empty, and a random forest over its
    atoms: a node's parent may share any number of variables with it."""
    rng = draw(st.randoms(use_true_random=False))
    q, rels = random_tree_query(rng, max_atoms=5, allow_self_join=True)
    dom = DOMAIN[:rng.randint(1, len(DOMAIN))]
    facts = []
    for rel, arity in rels.items():
        density = rng.choice([0.0, 0.4, 0.8])
        tuples = [[]]
        for _ in range(arity):
            tuples = [t + [v] for t in tuples for v in dom]
        facts += [mk(rel, *t) for t in tuples if rng.random() < density]
    n = len(q.atoms)
    at = list(range(n))
    rng.shuffle(at)  # parents may have higher indices than their children
    parents = [None] * n
    for j in range(1, n):
        if rng.random() < 0.8:
            parents[at[j]] = at[rng.randrange(j)]
    return q, db_of(rels, facts), parents, draw(st.sampled_from([None, 2 ** 40]))


# A query whose keys pack two columns, with a radix too wide for two.
WIDE = (ConjunctiveQuery.build("Q", ["x", "y", "z"],
                               [("R", ["x", "y", "z"]), ("R", ["x", "y", "y"])]),
        db_of({"R": 3}, [mk("R", a, b, c) for a in "ab" for b in "ab" for c in "ab"]),
        [None, 0], 2 ** 40)


@settings(max_examples=300, deadline=None)
@given(forests())
@example(WIDE)
def test_array_semijoin_matches_the_dict_oracle(case):
    q, db, parents, radix = case
    bags = [a.vars for a in q.atoms]
    facts = [list(atom_candidates(db, a, {})) for a in q.atoms]
    key, probe, want = dict_reduce(bags, [[f.values for f in fs] for fs in facts], parents)

    rows, codes = zip(*(_atom_rows(db, a) for a in q.atoms))
    order, kids, groups, join = _reduce(bags, codes, parents,
                                        radix or max(1, len(db.values)))
    assert order == _preorder(parents)[0]
    for u, a in enumerate(q.atoms):
        relation = db.relation(a.relation)
        assert [relation[r] for r in rows[u].tolist()] == facts[u]
        g = groups[u]
        assert (np.diff(g.keys) > 0).all()  # keys ascend, one group per key
        got = {}
        for j in range(len(g.keys)):
            ids = g.rows[g.starts[j]:g.starts[j + 1]].tolist()
            got[key[u](facts[u][ids[0]].values)] = ids
        assert got == want[u], (q.to_text(), parents, u)
        for c in kids[u]:  # each live row joins the child group of its key
            first = groups[c].rows[groups[c].starts[:-1]].tolist()
            for i in g.rows.tolist():
                to = join[c][i]
                assert to >= 0
                assert key[c](facts[c][first[to]].values) == probe[c](facts[u][i].values)


def test_packed_keys_order_as_their_rows_past_the_overflow_bound():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2 ** 40, size=(3, 50))
    b = np.concatenate([a[:, :20], rng.integers(0, 2 ** 40, size=(3, 10))], axis=1)
    ka, kb = _pack([a, b], 2 ** 40)
    both = np.concatenate([ka, kb])
    rows = [tuple(r) for r in np.concatenate([a, b], axis=1).T.tolist()]
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert (both[i] < both[j]) == (rows[i] < rows[j])
            assert (both[i] == both[j]) == (rows[i] == rows[j])
