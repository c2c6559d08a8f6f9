"""Query evaluation: naive backtracking join, Yannakakis, provenance.

The naive engine is the semantics oracle everything else is checked
against.  It orders atoms by ascending relation size, probes column
indexes for bound variables, and deduplicates head projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import InputError, LimitExceededError
from .query import (Atom, ConjunctiveQuery, TreeDecomposition, assign_atoms,
                    validate_tree_decomposition, _preorder)
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
    probe = None
    for p, v in enumerate(atom.vars):
        if v in bindings:
            probe = (p, bindings[v])
            break
    pool = (db.lookup(atom.relation, probe[0], probe[1]) if probe
            else db.relation(atom.relation))
    for f in pool:
        ok = True
        for p1, p2 in atom.eq_positions:
            if f.values[p1] != f.values[p2]:
                ok = False
                break
        if not ok:
            continue
        for p, v in enumerate(atom.vars):
            bound = bindings.get(v)
            if bound is not None and bound != f.values[p]:
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
    """Distinct answers in discovery order (no global materialization)."""
    seen = set()
    for bindings, _ in homomorphisms(q, db):
        ans = Fact(q.head_name, tuple(bindings[v] for v in q.head_vars))
        if ans not in seen:
            seen.add(ans)
            yield ans


def enumerate_answers(q: ConjunctiveQuery, db: Database) -> AnswerSet:
    """Full answer set under set semantics via backtracking join."""
    return AnswerSet(q, frozenset(iter_answers(q, db)))


def _node_rows(q: ConjunctiveQuery, db: Database, td: TreeDecomposition,
               ident: int) -> tuple[tuple, list[tuple]]:
    """Materialize one bag as (sorted bag vars, rows of value tuples)."""
    node = td.nodes[ident]
    bag = tuple(sorted(node.bag))
    cover = next((a for a in q.atoms if node.bag <= frozenset(a.vars)), None)
    if cover is None:
        raise InputError(
            f"node {ident}: bag is inside no atom; width-1 evaluation requires that")
    pos = {v: p for p, v in enumerate(cover.vars)}
    rows = {tuple(f.values[pos[v]] for v in bag)
            for f in atom_candidates(db, cover, {})}
    for i in node.atoms:
        atom = q.atoms[i]
        if atom is cover:
            continue
        apos = [bag.index(v) for v in atom.vars]
        allowed = {tuple(f.values) for f in atom_candidates(db, atom, {})}
        rows = {r for r in rows if tuple(r[p] for p in apos) in allowed}
    return bag, sorted(rows)


def yannakakis_answers(q: ConjunctiveQuery, td: TreeDecomposition, db: Database) -> AnswerSet:
    """Evaluate an acyclic query over a width-1 decomposition.

    Classic three phases: bottom-up semijoin reduction, top-down
    reduction, then an in-order join of the reduced bags projected onto
    the head.  Matches enumerate_answers on every acyclic input.
    """
    violation = validate_tree_decomposition(q, td)
    if violation is not None:
        raise InputError(f"invalid tree decomposition: {violation.kind}: {violation.detail}")
    td = assign_atoms(q, td)
    order, kids = _preorder(td.parents)
    tables: dict[int, tuple[tuple, list[tuple]]] = {
        ident: _node_rows(q, db, td, ident) for ident in order}

    def project(vars_from: tuple, rows, vars_to) -> set:
        idx = [vars_from.index(v) for v in vars_to]
        return {tuple(r[p] for p in idx) for r in rows}

    # Bottom-up: parents keep rows whose key joins every child.
    for u in reversed(order):
        bag_u, rows_u = tables[u]
        for c in kids[u]:
            bag_c, rows_c = tables[c]
            key = tuple(sorted(td.key(c)))
            have = project(bag_c, rows_c, key)
            keep_idx = [bag_u.index(v) for v in key]
            rows_u = [r for r in rows_u if tuple(r[p] for p in keep_idx) in have]
        tables[u] = (bag_u, rows_u)
    # Top-down: children keep rows whose key appears in the parent.
    for u in order:
        bag_u, rows_u = tables[u]
        for c in kids[u]:
            bag_c, rows_c = tables[c]
            key = tuple(sorted(td.key(c)))
            have = project(bag_u, rows_u, key)
            keep_idx = [bag_c.index(v) for v in key]
            rows_c = [r for r in rows_c if tuple(r[p] for p in keep_idx) in have]
            tables[c] = (bag_c, rows_c)

    answers: set[Fact] = set()
    head = q.head_vars
    assignment: dict = {}

    def walk(idx: int):
        if idx == len(order):
            answers.add(Fact(q.head_name, tuple(assignment[v] for v in head)))
            return
        ident = order[idx]
        bag, rows = tables[ident]
        bound = [(p, assignment[v]) for p, v in enumerate(bag) if v in assignment]
        fresh = [v for v in bag if v not in assignment]
        for r in rows:
            if any(r[p] != val for p, val in bound):
                continue
            for v in fresh:
                assignment[v] = r[bag.index(v)]
            walk(idx + 1)
        for v in fresh:
            assignment.pop(v, None)

    # Re-walk in tree order so shared variables are bound before use.
    walk(0)
    return AnswerSet(q, frozenset(answers))


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
