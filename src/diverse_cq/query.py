"""Conjunctive queries, join trees, and free-connex structure.

A query is one rule `Q(x,y) <- R(x,z), S(z,y).` with variables only;
constants are rejected at parse time.  A repeated variable inside a
single atom is rewritten to a fresh variable plus an equality filter on
the two columns (`eq_positions` on the atom), which the engines apply
when they pull candidate facts.  Flags such as `is_full` are defined on
the variables as written, so `Q(x) <- R(x,x)` still counts as full.

A join tree is a plain list of parent indices, None at the root, where
node `i` holds atom `i`.  The extended GYO tree of a projected head has
one more node, last, for the head edge; it holds no atom.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InputError, QueryParseError


@dataclass(frozen=True, order=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Atom:
    """One body atom; `vars` is duplicate-free, `source_vars` is as written."""

    relation: str
    vars: tuple[Variable, ...]
    source_vars: tuple[Variable, ...]
    eq_positions: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        if len(self.vars) != len(self.source_vars):
            raise InputError(f"atom {self.relation}: variable lists disagree in length")
        if len(set(self.vars)) != len(self.vars):
            raise InputError(f"atom {self.relation}: normalized variables must be distinct")
        pairs = []
        for pos, v in enumerate(self.source_vars):
            first = self.source_vars.index(v)
            if first != pos:
                pairs.append((first, pos))
        object.__setattr__(self, "eq_positions", tuple(pairs))

    @property
    def arity(self) -> int:
        return len(self.vars)

    def text(self) -> str:
        return f"{self.relation}({','.join(v.name for v in self.source_vars)})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    head_name: str
    head_vars: tuple[Variable, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if not self.atoms:
            raise InputError("query body must contain at least one atom")
        body = self.original_body_variables
        for v in self.head_vars:
            if v not in body:
                raise InputError(f"head variable {v.name} does not occur in the body")

    @property
    def original_body_variables(self) -> frozenset:
        return frozenset(v for a in self.atoms for v in a.source_vars)

    @property
    def variables(self) -> frozenset:
        """All variables after duplicate rewriting."""
        return frozenset(v for a in self.atoms for v in a.vars)

    @property
    def is_full(self) -> bool:
        return self.original_body_variables <= frozenset(self.head_vars)

    @property
    def is_self_join_free(self) -> bool:
        return len({a.relation for a in self.atoms}) == len(self.atoms)

    def to_text(self) -> str:
        head = f"{self.head_name}({','.join(v.name for v in self.head_vars)})"
        body = ", ".join(a.text() for a in self.atoms)
        return f"{head} <- {body}."

    def __str__(self):
        return self.to_text()

    @classmethod
    def build(cls, head_name: str, head_vars: Sequence[str],
              body: Sequence[tuple[str, Sequence[str]]]) -> "ConjunctiveQuery":
        """Assemble a query from plain names, applying duplicate rewriting."""
        used = {name for _, vs in body for name in vs} | set(head_vars)
        atoms = []
        for rel, names in body:
            source = tuple(Variable(n) for n in names)
            seen: set[str] = set()
            normal = []
            for n in names:
                if n not in seen:
                    seen.add(n)
                    normal.append(Variable(n))
                else:
                    k = 2
                    while f"{n}_{k}" in used:
                        k += 1
                    fresh = f"{n}_{k}"
                    used.add(fresh)
                    normal.append(Variable(fresh))
            atoms.append(Atom(rel, tuple(normal), source))
        return cls(head_name, tuple(Variable(n) for n in head_vars), tuple(atoms))


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<arrow><-)"
    r"|(?P<lpar>\()"
    r"|(?P<rpar>\))"
    r"|(?P<comma>,)"
    r"|(?P<dot>\.)"
    r"|(?P<number>[+-]?\d[\w.]*)"
    r"|(?P<string>'[^']*'|\"[^\"]*\")"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QueryParseError(f"unexpected character {text[pos]!r}", pos + 1)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, schema=None):
        self.tokens = _tokenize(text)
        self.i = 0
        self.schema = schema

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind: str, what: str):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise QueryParseError(f"expected {what}, got {tok[1]!r}" if tok[1] else
                                  f"expected {what}, got end of input", tok[2])
        self.i += 1
        return tok

    def atom(self, is_head: bool):
        name = self.take("ident", "a relation name")[1]
        self.take("lpar", "'('")
        names: list[str] = []
        if self.peek()[0] != "rpar":
            while True:
                tok = self.peek()
                if tok[0] in ("number", "string"):
                    raise QueryParseError(
                        "constants are not supported in queries; use variables only", tok[2])
                names.append(self.take("ident", "a variable name")[1])
                if self.peek()[0] == "comma":
                    self.i += 1
                    continue
                break
        self.take("rpar", "')'")
        if not is_head and self.schema is not None:
            if name not in self.schema:
                raise QueryParseError(f"relation {name!r} is not declared in the schema",
                                      self.tokens[self.i - 1][2])
            expected = self.schema.arity(name)
            if expected != len(names):
                raise QueryParseError(
                    f"relation {name} expects {expected} arguments, got {len(names)}",
                    self.tokens[self.i - 1][2])
        return name, names

    def query(self) -> ConjunctiveQuery:
        head_name, head_vars = self.atom(is_head=True)
        self.take("arrow", "'<-'")
        body = [self.atom(is_head=False)]
        while self.peek()[0] == "comma":
            self.i += 1
            body.append(self.atom(is_head=False))
        self.take("dot", "'.'")
        self.take("end", "end of input")
        try:
            return ConjunctiveQuery.build(head_name, head_vars, body)
        except InputError as exc:
            raise QueryParseError(str(exc), len_hint(self.tokens)) from exc


def len_hint(tokens) -> int:
    return tokens[-1][2]


def parse_cq(text: str, schema=None) -> ConjunctiveQuery:
    """Parse one rule; raises QueryParseError with a 1-based position."""
    return _Parser(text, schema=schema).query()


# ---------------------------------------------------------------------------
# Join trees


def _preorder(parents: Sequence[int | None]) -> tuple[list[int], list[list[int]]]:
    """Walk a forest given by parent indices (None at a root).

    Returns the nodes in preorder, roots and siblings in index order,
    and each node's children in index order.
    """
    children: list[list[int]] = [[] for _ in parents]
    roots = []
    for i, p in enumerate(parents):
        (roots if p is None else children[p]).append(i)
    order = []
    stack = roots[::-1]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(reversed(children[u]))
    return order, children


def _reroot(parents: Sequence[int | None], new_root: int) -> list[int | None]:
    """Parent indices of the same tree with its edges oriented away from
    `new_root`: only the edges on the path up to the old root turn."""
    out = list(parents)
    below, u = None, new_root
    while u is not None:
        up = parents[u]
        out[u] = below
        below, u = u, up
    return out


def _gyo_reduce(edges: Sequence[frozenset]) -> list[int | None] | None:
    """GYO ear removal over hyperedges; returns parent indices or None.

    An edge is an ear when all vertices shared with other remaining
    edges fit inside a single witness edge; the witness becomes its
    parent in the join tree.  Deterministic: lowest-index ear with the
    lowest-index witness is removed first.
    """
    n = len(edges)
    parent: list[int | None] = [None] * n
    active = set(range(n))
    while len(active) > 1:
        removed = None
        for e in sorted(active):
            rest = sorted(active - {e})
            shared = frozenset()
            for o in rest:
                shared |= edges[e] & edges[o]
            witness = next((o for o in rest if shared <= edges[o]), None)
            if witness is not None:
                parent[e] = witness
                removed = e
                break
        if removed is None:
            return None
        active.remove(removed)
    return parent


def gyo_join_tree(q: ConjunctiveQuery) -> list[int | None] | None:
    """Width-1 join tree of the body as parent indices, node `i` holding
    atom `i`; None when the body is cyclic."""
    return _gyo_reduce([frozenset(a.vars) for a in q.atoms])


def _connex_from_root(parents: Sequence[int | None], bags: Sequence[frozenset],
                      headset: frozenset) -> frozenset | None:
    """Maximal root-containing subtree with bags inside the head set, when
    its bags union to exactly the head set; else None."""
    ids: set[int] = set()
    for u in _preorder(parents)[0]:
        if bags[u] <= headset and (parents[u] is None or parents[u] in ids):
            ids.add(u)
    # A non-empty `ids` holds the root, the first node of the preorder.
    if ids and frozenset().union(*(bags[u] for u in ids)) == headset:
        return frozenset(ids)
    return None


def _connex_rooting(parents: Sequence[int | None], bags: Sequence[frozenset],
                    headset: frozenset) -> tuple[list[int | None], frozenset] | None:
    """`parents` as given, else its first re-rooting in node order, with
    its connex subtree from the root; None if no rooting has one."""
    for r in [None] + [r for r, p in enumerate(parents) if p is not None]:
        tree = list(parents) if r is None else _reroot(parents, r)
        ids = _connex_from_root(tree, bags, headset)
        if ids is not None:
            return tree, ids
    return None


def free_connex_split(q: ConjunctiveQuery):
    """The query's own join tree, split into its connex part and the
    components hanging off it.

    Tries the GYO join tree as built, then every re-rooting of it, for a
    connex subtree from the root whose bags union to exactly the head
    variables; failing that, the extended GYO tree (the body plus one
    edge for the head, Bagan, Durand and Grandjean 2007), rooted at the
    head node, whose connex part always exists.  Returns (the connex
    atom ids, [(a hanging component's atom ids, their parents within the
    component)]), atom ids sorted and components in order of their ids,
    a component's top atom having parent None.  Returns None for a cyclic
    body, and for an acyclic one exactly when the query is not
    free-connex, which means the head splits a join path.
    """
    parents = gyo_join_tree(q)
    if parents is None:
        return None
    m = len(q.atoms)
    headset = frozenset(q.head_vars)
    bags = [frozenset(a.vars) for a in q.atoms] + [headset]
    hit = _connex_rooting(parents, bags, headset)
    if hit is None:
        extended = _gyo_reduce(bags)
        if extended is None:
            return None
        hit = _connex_rooting(_reroot(extended, m), bags, headset)
    parents, connex = hit
    top: dict[int, int] = {}
    comps: dict[int, list[int]] = {}
    for u in _preorder(parents)[0]:
        if u not in connex:
            top[u] = top.get(parents[u], u)
            comps.setdefault(top[u], []).append(u)
    split = []
    for ids in sorted(sorted(c) for c in comps.values()):
        at = {u: j for j, u in enumerate(ids)}
        split.append((ids, [at.get(parents[u]) for u in ids]))
    return sorted(u for u in connex if u < m), split
