"""Query evaluation: the acyclic enumerator, backtracking, provenance.

Acyclic queries are evaluated over their GYO join tree, one node per
atom.  One bottom-up semijoin pass, `_reduce`, keeps the rows of every
node that extend into its subtrees; the join-tree rankers in `optimize`
take their live rows from it as well.  One preorder walk from the root
then probes each node's rows on its parent key.  Rooted at the connex
subtree of a free-connex head, the walk is linear in input plus output.
When asked, the same walk also folds up each answer's ball for the
provenance volume: the facts of all of the answer's witnesses.

Cyclic bodies fall back to the backtracking join, which is also the
semantics oracle every other path is tested against.  It orders atoms
by ascending relation size, probes column indexes for bound variables,
and deduplicates head projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InputError, LimitExceededError
from .query import Atom, ConjunctiveQuery, gyo_join_tree, _connex_rooting, _preorder
from .relcore import Database, Fact

PROVENANCE_EXTENSION_LIMIT = 10 ** 7


@dataclass(frozen=True)
class AnswerSet:
    query: ConjunctiveQuery
    answers: frozenset

    def ordered(self) -> list[Fact]:
        """Answers sorted lexicographically by value sequence."""
        return sorted(self.answers)

    def __len__(self):
        return len(self.answers)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self.answers


def atom_candidates(db: Database, atom: Atom, bindings: Mapping) -> Iterator[Fact]:
    """Facts matching an atom under the current partial assignment.

    Applies the atom's column-equality filters (from repeated variables)
    and probes the index on the first bound position when one exists.
    """
    bound = [(p, bindings[v]) for p, v in enumerate(atom.vars) if v in bindings]
    pool = (db.lookup(atom.relation, *bound[0]) if bound
            else db.relation(atom.relation))
    for f in pool:
        ok = True
        for p1, p2 in atom.eq_positions:
            if f.values[p1] != f.values[p2]:
                ok = False
                break
        if not ok:
            continue
        for p, val in bound:
            if val != f.values[p]:
                ok = False
                break
        if ok:
            yield f


def homomorphisms(q: ConjunctiveQuery, db: Database, initial: Mapping | None = None,
                  limit: int | None = None) -> Iterator[tuple[dict, tuple[Fact, ...]]]:
    """Yield (assignment, facts-per-atom) for every homomorphism.

    `facts` is aligned with q.atoms.  `limit` caps the number of
    candidate extensions considered across the whole search.
    """
    for a in q.atoms:
        db.relation(a.relation)  # fail fast on unknown relations, in body order
    order = sorted(range(len(q.atoms)),
                   key=lambda i: (db.size(q.atoms[i].relation), i))
    atoms = [q.atoms[i] for i in order]
    slot_of = {orig: slot for slot, orig in enumerate(order)}
    chosen: list = [None] * len(atoms)
    bindings: dict = dict(initial or {})
    spent = 0

    def rec(depth: int):
        nonlocal spent
        if depth == len(atoms):
            facts = tuple(chosen[slot_of[i]] for i in range(len(atoms)))
            yield dict(bindings), facts
            return
        atom = atoms[depth]
        for f in atom_candidates(db, atom, bindings):
            spent += 1
            if limit is not None and spent > limit:
                raise LimitExceededError(
                    f"homomorphism search exceeded {limit} extensions")
            fresh = []
            for p, v in enumerate(atom.vars):
                if v not in bindings:
                    bindings[v] = f.values[p]
                    fresh.append(v)
            chosen[depth] = f
            yield from rec(depth + 1)
            for v in fresh:
                del bindings[v]

    yield from rec(0)


def iter_answers(q: ConjunctiveQuery, db: Database) -> Iterator[Fact]:
    """Distinct answers in discovery order (no global materialization).

    Acyclic bodies run the semijoin-reduced walk over their GYO join
    tree; cyclic bodies fall back to the backtracking join.
    """
    parents = gyo_join_tree(q)
    if parents is not None:
        yield from _tree_answers(q, parents, db)
        return
    seen = set()
    for bindings, _ in homomorphisms(q, db):
        ans = Fact(q.head_name, tuple(bindings[v] for v in q.head_vars))
        if ans not in seen:
            seen.add(ans)
            yield ans


def enumerate_answers(q: ConjunctiveQuery, db: Database) -> AnswerSet:
    """Full answer set under set semantics."""
    return AnswerSet(q, frozenset(iter_answers(q, db)))


def _picker(positions: list[int]) -> Callable:
    """Row -> its values at `positions`, as a hashable key: a tuple, or
    the bare value for a single position."""
    return itemgetter(*positions) if positions else (lambda row: ())


def _reduce(bags: Sequence[tuple], rows: Sequence[list[tuple]],
            parents: Sequence[int | None]):
    """The one bottom-up semijoin pass over the join tree `parents`,
    whose node `u` has the rows `rows[u]` over the variables `bags[u]`.

    Returns the preorder and children; per node, the key picker on its
    rows and the probe picker on its parent's rows, over the variables it
    shares with the parent in its own bag order (none at a root); and per
    node its live rows, which join a live row of every child, as row
    indices grouped by key in row order.
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
    return order, kids, key, probe, groups


def _fold(nodes: Iterable[int], groups: Sequence[dict], kids, probe, rows, facts) -> dict:
    """Per node `u` of `nodes` (children first) and per key of `groups[u]`,
    the facts of every extension of `u`'s subtree from that group's rows."""
    fold: dict[int, dict] = {}
    for u in nodes:
        fold[u] = {}
        for k, ids in groups[u].items():
            got = {facts[u][i] for i in ids}
            for c in kids[u]:
                got.update(*(fold[c][probe[c](rows[u][i])] for i in ids))
            fold[u][k] = frozenset(got)
    return fold


def _tree_answers(q: ConjunctiveQuery, parents: Sequence[int | None], db: Database,
                  balls: bool = False) -> Iterator:
    """Distinct answers of `q` over the join tree `parents`: its GYO tree
    or a re-rooting of it.

    Node `i` holds atom `i`'s variables and facts.  The tree is re-rooted
    at a node whose connex subtree covers the head, when one exists.  After
    `_reduce` every row extends into all of its node's subtrees, so one
    preorder walk that probes each node's groups with its parent key, and
    skips every subtree binding no new head variable, finds the answers.
    For a free-connex head each walk is a distinct answer and the walk is
    linear in input plus output; otherwise answers are deduplicated.

    With `balls` it yields instead, once the walk is done, each answer
    with its ball: the facts of every homomorphism that yields it.  Such
    a homomorphism extends a walk into each skipped subtree on its own,
    so the ball holds the walks' facts and, per skipped subtree, the
    facts of all of its extensions, folded bottom-up once per group key.
    """
    headset = frozenset(q.head_vars)
    hit = _connex_rooting(parents, [frozenset(a.vars) for a in q.atoms], headset)
    if hit is not None:
        parents = hit[0]
    bags = [a.vars for a in q.atoms]
    facts = [list(atom_candidates(db, a, {})) for a in q.atoms]
    rows = [[f.values for f in fs] for fs in facts]
    order, kids, key, probe, groups = _reduce(bags, rows, parents)
    below: dict[int, frozenset] = {}  # head variables bound in u's subtree
    for u in reversed(order):
        below[u] = headset.intersection(bags[u]).union(*(below[c] for c in kids[u]))

    # One step per walked node, in preorder: its groups, rows and facts,
    # its probe, and the depth whose chosen row it probes (any at a root).
    depth_of: dict = {}
    steps = []
    for u in order:
        p = parents[u]
        if p is None or (p in depth_of and below[u] - set(bags[p])):
            depth_of[u] = len(steps)
            steps.append((groups[u], rows[u], facts[u], probe[u], depth_of.get(p, 0)))
    home = {v: (depth_of[u], i) for u in depth_of for i, v in enumerate(bags[u])}
    head = [home[v] for v in q.head_vars]
    fold = _fold([u for u in reversed(order) if balls and u not in depth_of],
                 groups, kids, probe, rows, facts)
    hang = [(depth_of[u], probe[c], fold[c]) for u in depth_of for c in kids[u] if c in fold]
    distinct = all(headset.issuperset(bags[u]) for u in depth_of)
    chosen: list = [None] * len(steps)  # the walk's rows
    picked: list = [None] * len(steps)  # and their facts
    seen: set = set()
    lineage: dict = {}

    def walk(depth: int):
        if depth < len(steps):
            group, rows, facts, pick, up = steps[depth]
            for i in group.get(pick(chosen[up]), ()):
                chosen[depth] = rows[i]
                picked[depth] = facts[i]
                yield from walk(depth + 1)
            return
        ans = Fact(q.head_name, [chosen[d][i] for d, i in head])
        if balls:
            folds = [table[pick(chosen[d])] for d, pick, table in hang]
            if distinct:
                lineage[ans] = frozenset(picked).union(*folds)
            else:
                lineage.setdefault(ans, set()).update(picked, *folds)
        elif ans not in seen:
            seen.add(ans)
            yield ans

    try:
        yield from walk(0)
    finally:
        del walk  # the recursive closure is a cycle; free its tables now
    for ans, got in lineage.items():
        yield ans, frozenset(got)


def provenance_map(q: ConjunctiveQuery, db: Database, answers=None,
                   limit: int = PROVENANCE_EXTENSION_LIMIT) -> dict:
    """Map each requested answer to the union of facts over its witnesses.

    Exhaustive homomorphism enumeration with a configurable extension
    cap; a requested tuple with no witness is rejected.  `answers=None`
    requests every answer, found in the same single pass.
    """
    wanted = frozenset() if answers is None else frozenset(answers)
    for t in wanted:
        if t.relation != q.head_name or t.arity != len(q.head_vars):
            raise InputError(f"{t!r} does not have the query's head shape")
    prov: dict[Fact, set] = {t: set() for t in wanted}
    for bindings, facts in homomorphisms(q, db, limit=limit):
        ans = Fact(q.head_name, tuple(bindings[v] for v in q.head_vars))
        bucket = prov.setdefault(ans, set()) if answers is None else prov.get(ans)
        if bucket is not None:
            bucket.update(facts)
    for t in sorted(wanted):
        if not prov[t]:
            raise InputError(f"{t!r} is not an answer of the query")
    return {t: frozenset(s) for t, s in prov.items()}
