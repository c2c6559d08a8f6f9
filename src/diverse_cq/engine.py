"""Query evaluation: the acyclic enumerator, backtracking, provenance.

Acyclic queries are evaluated over their GYO join tree, one node per
atom.  A bottom-up semijoin pass keeps the rows of every node that
extend into its subtrees; one preorder walk from the root then probes a
hash index on each node's parent key.  Rooted at the connex subtree of
a free-connex head, the walk is linear in input plus output.

Cyclic bodies fall back to the backtracking join, which is also the
semantics oracle every other path is tested against.  It orders atoms
by ascending relation size, probes column indexes for bound variables,
and deduplicates head projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Mapping

from .errors import InputError, LimitExceededError
from .query import (Atom, ConjunctiveQuery, TreeDecomposition, gyo_join_tree,
                    _connex_rooting, _preorder)
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
    for name in {a.relation for a in q.atoms}:
        db.relation(name)  # fail fast on unknown relations
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
    tree = gyo_join_tree(q)
    if tree is not None:
        yield from _tree_answers(q, tree, db)
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


def _semijoin(bag: tuple, rows: list[tuple], other_bag: tuple,
              other_rows: list[tuple]) -> list[tuple]:
    """The rows that agree with some other row on the shared variables."""
    shared = [v for v in bag if v in other_bag]
    mine = _picker([bag.index(v) for v in shared])
    theirs = _picker([other_bag.index(v) for v in shared])
    have = set(map(theirs, other_rows))
    return [r for r in rows if mine(r) in have]


def _tree_answers(q: ConjunctiveQuery, td: TreeDecomposition,
                  db: Database) -> Iterator[Fact]:
    """Distinct answers of `q` over its GYO join tree or a re-rooting of it.

    Node `i` holds atom `i`: its bag is the atom's variables and its
    rows the atom's facts.  The tree is rooted at a node whose connex
    subtree covers the head, when one exists.  A bottom-up semijoin pass
    leaves every node with the rows that extend into all of its
    subtrees.  The walk then runs in preorder from the root, probing a
    hash index on each node's parent key, and skips every subtree that
    binds no new head variable: each row the walk reaches extends into
    those subtrees, so no top-down pass is needed.  For a free-connex
    head the walked nodes bind head variables only, each walk is a
    distinct answer, and the enumeration is linear in input plus output;
    otherwise answers are deduplicated.
    """
    bags = [a.vars for a in q.atoms]
    rows = [[f.values for f in atom_candidates(db, a, {})] for a in q.atoms]
    headset = frozenset(q.head_vars)
    fc = _connex_rooting(td, headset)
    if fc is not None:
        td = fc.td
    parents = td.parents
    order, kids = _preorder(parents)
    below: dict[int, frozenset] = {}  # head variables bound in u's subtree
    for u in reversed(order):
        below[u] = headset.intersection(bags[u]).union(*(below[c] for c in kids[u]))
        for c in kids[u]:
            rows[u] = _semijoin(bags[u], rows[u], bags[c], rows[c])

    # One step per walked node, in preorder: a hash index from the values
    # of the variables shared with the parent to the node's rows, and the
    # slots its fresh variables fill.
    walked: set = set()
    slot: dict = {}
    steps = []
    for u in order:
        p = parents[u]
        shared = set() if p is None else set(bags[p])
        if p is not None and (p not in walked or not below[u] - shared):
            continue
        walked.add(u)
        bag = bags[u]
        key = [i for i, v in enumerate(bag) if v in shared]
        index: dict = {}
        for r, k in zip(rows[u], map(_picker(key), rows[u])):
            index.setdefault(k, []).append(r)
        fresh = [(slot.setdefault(v, len(slot)), i)
                 for i, v in enumerate(bag) if v not in shared]
        steps.append((index, _picker([slot[bag[i]] for i in key]), fresh))
    head = [slot[v] for v in q.head_vars]
    values: list = [None] * len(slot)
    seen: set = set()

    def walk(depth: int):
        if depth == len(steps):
            ans = Fact(q.head_name, [values[s] for s in head])
            if ans not in seen:
                seen.add(ans)
                yield ans
            return
        index, probe, fresh = steps[depth]
        for row in index.get(probe(values), ()):
            for s, p in fresh:
                values[s] = row[p]
            yield from walk(depth + 1)

    yield from walk(0)


def provenance_map(q: ConjunctiveQuery, db: Database, answers,
                   limit: int = PROVENANCE_EXTENSION_LIMIT) -> dict:
    """Map each requested answer to the union of facts over its witnesses.

    Exhaustive homomorphism enumeration with a configurable extension
    cap; a requested tuple with no witness is rejected.
    """
    wanted = frozenset(answers)
    for t in wanted:
        if t.relation != q.head_name or t.arity != len(q.head_vars):
            raise InputError(f"{t!r} does not have the query's head shape")
    prov: dict[Fact, set] = {t: set() for t in wanted}
    for bindings, facts in homomorphisms(q, db, limit=limit):
        ans = Fact(q.head_name, tuple(bindings[v] for v in q.head_vars))
        bucket = prov.get(ans)
        if bucket is not None:
            bucket.update(facts)
    for t in sorted(wanted):
        if not prov[t]:
            raise InputError(f"{t!r} is not an answer of the query")
    return {t: frozenset(s) for t, s in prov.items()}
