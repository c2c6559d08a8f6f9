"""Query evaluation: the acyclic enumerator, backtracking, provenance.

Acyclic queries are evaluated over their GYO join tree, one node per
atom.  One bottom-up semijoin pass, `_reduce`, keeps the rows of every
node that extend into its subtrees.  It runs set-at-a-time on the
database's int64 code columns (Yannakakis' reduction as vectorized
column operations): packed join keys, sorted searches for the semijoin,
and one stable sort per node that makes its groups contiguous segments.
The join-tree rankers in `optimize` and their witness tables take their
live rows, groups and joins from it as well.  One walk expander,
`_batches`, then follows each chosen row's joins from the root, a batch
of walks at a time, as columns of row ids; rooted at the connex subtree
of a free-connex head, the walk is linear in input plus output.  It
serves the answers, as the walks' distinct head codes in value order
(`enumerate_answers` keeps them so, as a `CodedAnswers`, and decodes
them only when they are iterated; `iter_answers` streams them decoded),
and the provenance balls, each answer's witness facts as a sorted row
of fact ids, with every skipped subtree's facts from one top-down array
pass, `_fold`, which also builds the provenance ranker's witness tables.
A skipped subtree that every answer joins in one group is kept as its
fold, once per group, and referenced by the answers (`_Balls`), not
copied into their rows.

Cyclic bodies fall back to the backtracking join, which is also the
semantics oracle every other path is tested against.  It orders atoms
by ascending relation size, probes column indexes for bound variables,
and deduplicates head projections.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InputError, LimitExceededError
from .query import Atom, ConjunctiveQuery, gyo_join_tree, _connex_rooting, _preorder
from .relcore import Database, Fact, _decode, _pack, fact_key

PROVENANCE_EXTENSION_LIMIT = 10 ** 7
# `_fold` stops before its (row, fact) pairs pass this many.  The 4-path
# over 20,000 random edges per relation on 2,000 nodes folds 2.2 million;
# over 50,000 edges it would fold 28 million, which peaked at 1.8 GiB.  A
# perfbench provenance-proj plan holds about 12,000.
WITNESS_PAIR_LIMIT = 10 ** 7


class CodedAnswers(Set):
    """A query's distinct answers, kept as head codes, not as `Fact`s.

    Answer `j` of the head relation `name` has the codes `heads[:, j]`
    into `db.values`; the columns are distinct and in value order, which
    is `Fact` order.  `len` reads the codes alone, and so does `rows`,
    which finds many answers at once.  Iteration decodes every answer
    once, in value order, and keeps them, with their frozenset; `decode`
    decodes only the rows it is given.  `in` probes that frozenset once it
    is kept, and searches the codes by one `Database.find_row` before.
    As a set it equals, and hashes like, the frozenset of its answers.
    """

    def __init__(self, name: str, heads: np.ndarray, db: Database):
        self.name = name
        self.heads = heads
        self.db = db
        self._answers: list | None = None
        self._members: frozenset | None = None

    def __len__(self) -> int:
        return self.heads.shape[1]

    def __iter__(self) -> Iterator[Fact]:
        if self._answers is None:
            self._answers = list(_decode(self.name, self.heads, self.db.values))
            self._members = frozenset(self._answers)
        return iter(self._answers)

    def __contains__(self, t) -> bool:
        if self._members is None:
            return self._row(t) is not None
        return self._values(t) is not None and t in self._members

    def __hash__(self) -> int:
        return hash(frozenset(self))

    def _values(self, t) -> tuple | None:
        """The values of `t`, a `Fact` or plain `(name, values)` pair of the
        head relation and width, else None."""
        name, values = t if isinstance(t, tuple) and len(t) == 2 else (None, None)
        if name != self.name or not isinstance(values, tuple) or len(values) != len(self.heads):
            return None
        return values

    def _row(self, t) -> int | None:
        values = self._values(t)
        return None if values is None else self.db.find_row(self.heads, values)

    def rows(self, answers: Iterable) -> np.ndarray:
        """The row of each of `answers` as one int64 array, -1 for a tuple
        that is no answer.  The answers of a `CodedAnswers` over the same database
        and head are found by one search of their packed codes, and none is
        decoded; any others by one `Database.find_rows` over their values."""
        if (isinstance(answers, CodedAnswers) and answers.db is self.db
                and answers.name == self.name and len(answers.heads) == len(self.heads)):
            keys, probe = _pack([self.heads, answers.heads], max(1, len(self.db.values)))
            return _find(keys, probe)
        values = list(map(self._values, answers))
        fits = np.array([v is not None for v in values], dtype=bool)
        out = np.full(len(values), -1, dtype=np.int64)
        out[fits] = self.db.find_rows(self.heads, [v for v in values if v is not None])
        return out

    def decode(self, rows: Sequence[int]) -> list[Fact]:
        """The answers of `rows`, in the order given, decoded by one `_decode`."""
        return list(_decode(self.name, self.heads[:, rows], self.db.values))


def in_value_order(answers: AbstractSet) -> list[Fact]:
    """`answers` sorted lexicographically by value sequence: a
    `CodedAnswers` in its own order, decoded once, else by `fact_key`."""
    if isinstance(answers, CodedAnswers):
        return list(answers)
    return sorted(answers, key=fact_key)


@dataclass(frozen=True)
class AnswerSet:
    """A query's answers: a `CodedAnswers` over an acyclic body, which
    decodes them only when they are iterated, else a frozenset."""

    query: ConjunctiveQuery
    answers: AbstractSet

    def ordered(self) -> list[Fact]:
        """Answers sorted lexicographically by value sequence."""
        return in_value_order(self.answers)

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
    tree, which streams a batch of walks at a time, not one walk at a
    time; cyclic bodies fall back to the backtracking join.
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
    """Full answer set under set semantics.  An acyclic body's answers are
    the head codes `_tree_heads` finds, kept as a `CodedAnswers`, and no
    answer is decoded; a cyclic body's are the frozenset of `iter_answers`."""
    parents = gyo_join_tree(q)
    if parents is None:
        return AnswerSet(q, frozenset(iter_answers(q, db)))
    return AnswerSet(q, CodedAnswers(q.head_name, _tree_heads(q, parents, db), db))


class _Groups(NamedTuple):
    """A node's live rows after the semijoin pass, as the segments of one
    stable sort by key: group `g` is `rows[starts[g]:starts[g + 1]]`, in
    row order, and `keys[g]` is its packed key; keys ascend."""

    rows: np.ndarray
    starts: np.ndarray
    keys: np.ndarray


def _atom_rows(db: Database, atom: Atom) -> tuple[np.ndarray, np.ndarray]:
    """The atom's candidate facts, in fact order, as their row ids in the
    relation and their code columns, one per variable of `atom.vars`;
    a repeated variable is a column-equality mask."""
    codes = db.codes(atom.relation)
    if not atom.eq_positions:
        return np.arange(codes.shape[1]), codes
    keep = np.ones(codes.shape[1], dtype=bool)
    for p1, p2 in atom.eq_positions:
        keep &= codes[p1] == codes[p2]
    rows = keep.nonzero()[0]
    return rows, codes[:, rows]


def _find(keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Per probe, the index of the equal key in the ascending `keys`, or -1."""
    at = keys.searchsorted(probes)
    if not len(keys):
        return np.full(len(probes), -1)
    hit = keys[np.minimum(at, len(keys) - 1)] == probes
    return np.where(hit, at, -1)


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The concatenation of range(s, s + n) over the starts `s` and sizes `n`."""
    ends = sizes.cumsum()
    return (starts - ends + sizes).repeat(sizes) + np.arange(ends[-1] if len(ends) else 0)


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """`np.argsort(keys, kind="stable")` for non-negative int keys, in
    linear time when they fit in 16 bits: numpy radix-sorts those.  Larger
    keys are packed with their positions, `key * n + i`, when that stays
    below 2^62, and sorted by value, which costs a fraction of an argsort;
    the positions are then read back off the sorted packs."""
    if len(keys) and keys.max() < 2 ** 16:
        return keys.astype(np.uint16).argsort(kind="stable")
    n = len(keys)
    if n and int(keys.max()) * n < 2 ** 62:
        packed = keys.astype(np.int64, copy=False) * n
        packed += np.arange(n)
        packed.sort()
        packed %= n
        return packed
    return keys.argsort(kind="stable")


def _segments(keys: np.ndarray) -> np.ndarray:
    """Start of every run of equal values in the sorted `keys`, then its length."""
    if not len(keys):
        return np.zeros(1, dtype=np.intp)
    return np.concatenate(([0], (keys[1:] != keys[:-1]).nonzero()[0] + 1, [len(keys)]))


def _reduce(bags: Sequence[tuple], codes: Sequence[np.ndarray],
            parents: Sequence[int | None], radix: int):
    """The one bottom-up semijoin pass over the join tree `parents`, whose
    node `u` has rows with the codes `codes[u]` (one column per variable
    of `bags[u]`, codes below `radix`).

    A node's key packs the variables it shares with its parent, in its own
    bag order (none at a root, so a root is one group).  Bottom-up, each
    child's sorted group keys are searched for the packed probe of every
    parent row: a row is live when it finds a group in every child.  A
    node's live rows are then stably sorted by key, so each group is a
    segment, rows in row order.

    Returns the preorder and children; per node its `_Groups`; and per
    non-root node `u` its join: for each row of `u`'s parent, the id of
    the group of `u` the row joins, or -1 (None at a root).
    """
    order, kids = _preorder(parents)
    key: list = [None] * len(parents)
    probe: list = [None] * len(parents)  # per child, the packed key of each parent row
    for u, p in enumerate(parents):
        if p is None:
            key[u] = np.zeros(codes[u].shape[1], dtype=np.int64)
            continue
        shared = [v for v in bags[u] if v in bags[p]]
        key[u], probe[u] = _pack([codes[u][[bags[u].index(v) for v in shared]],
                                  codes[p][[bags[p].index(v) for v in shared]]], radix)
    groups: list = [None] * len(parents)
    join: list = [None] * len(parents)
    for u in reversed(order):
        live = np.ones(codes[u].shape[1], dtype=bool)
        for c in kids[u]:
            join[c] = _find(groups[c].keys, probe[c])
            live &= join[c] >= 0
        rows = live.nonzero()[0]
        k = key[u][rows]
        by_key = _stable_order(k)
        rows, k = rows[by_key], k[by_key]
        starts = _segments(k)
        groups[u] = _Groups(rows, starts, k[starts[:-1]])
    return order, kids, groups, join


def _witness_pairs(count: int) -> int:
    """`count` (row, fact) pairs, or `LimitExceededError` past the cap."""
    if count > WITNESS_PAIR_LIMIT:
        raise LimitExceededError(f"witness tables need at least {count} (row, fact) pairs; "
                                 f"the cap is {WITNESS_PAIR_LIMIT}")
    return count


def _fold(top: int, at: np.ndarray, here: np.ndarray, n: int, kids,
          groups: Sequence[_Groups], join, ids) -> tuple[np.ndarray, np.ndarray]:
    """Per slot, the facts of every extension of the subtree at `top`,
    whose rows `here` start in the slots `at` (below `n`); `ids[u]` maps
    node `u`'s rows to fact ids.

    One top-down pass over unique (slot, group) pairs reaches every row
    of the subtree once per slot.  Returns `(ptr, facts)`, compressed
    sparse rows: slot `s` has the fact ids `facts[ptr[s]:ptr[s + 1]]`,
    nodes in preorder.  Each level's pair count is known before its
    arrays are allocated, and a fold that would pass WITNESS_PAIR_LIMIT
    pairs raises `LimitExceededError` first.
    """
    slots, facts = [], []
    count = _witness_pairs(len(here))
    stack = [(top, at, here)]
    while stack:
        u, at, here = stack.pop()
        slots.append(at)
        facts.append(ids[u][here])
        for c in reversed(kids[u]):
            m = max(1, len(groups[c].keys))
            pairs = at * m + join[c][here]
            pairs = pairs[_stable_order(pairs)]
            pairs = pairs[_segments(pairs)[:-1]]  # each (slot, group) once
            g = pairs % m
            starts = groups[c].starts
            first = starts[g]
            sizes = starts[g + 1] - first
            count = _witness_pairs(count + int(sizes.sum()))
            stack.append((c, (pairs // m).repeat(sizes), groups[c].rows[_ranges(first, sizes)]))
    slots = np.concatenate(slots)
    by_slot = _stable_order(slots)
    return slots[by_slot].searchsorted(np.arange(n + 1)), np.concatenate(facts)[by_slot]


class _Walk(NamedTuple):
    """The semijoin-reduced join tree that a walk follows.

    `walked` lists, in preorder, the nodes the walk chooses a row of: the
    root, and every node below a walked one whose subtree binds a head
    variable its parent does not.  A walked node's index in it is its
    depth, which `depth` maps it to.  `head` places each head variable at
    (depth, position in that node's bag)."""

    parents: list
    rows: tuple
    codes: tuple
    kids: list
    groups: list
    join: list
    walked: list
    depth: dict
    head: list


def _walk(q: ConjunctiveQuery, parents: Sequence[int | None], db: Database) -> _Walk | None:
    """The walk over the join tree `parents`, re-rooted at a node whose
    connex subtree covers the head when one exists; None when a root has
    no live row, so the query has no answer."""
    headset = frozenset(q.head_vars)
    hit = _connex_rooting(parents, [frozenset(a.vars) for a in q.atoms], headset)
    if hit is not None:
        parents = hit[0]
    bags = [a.vars for a in q.atoms]
    rows, codes = zip(*(_atom_rows(db, a) for a in q.atoms))
    order, kids, groups, join = _reduce(bags, codes, parents, max(1, len(db.values)))
    if any(p is None and not len(groups[u].rows) for u, p in enumerate(parents)):
        return None
    below: dict[int, frozenset] = {}  # head variables bound in u's subtree
    for u in reversed(order):
        below[u] = headset.intersection(bags[u]).union(*(below[c] for c in kids[u]))
    depth_of: dict = {}
    for u in order:
        p = parents[u]
        if p is None or (p in depth_of and below[u] - set(bags[p])):
            depth_of[u] = len(depth_of)
    home = {v: (depth_of[u], i) for u in depth_of for i, v in enumerate(bags[u])}
    return _Walk(list(parents), rows, codes, kids, groups, join, list(depth_of),
                 depth_of, [home[v] for v in q.head_vars])


def _tree_answers(q: ConjunctiveQuery, parents: Sequence[int | None],
                  db: Database) -> Iterator[Fact]:
    """Distinct answers of `q` over the join tree `parents`: its GYO tree
    or a re-rooting of it, in walk order (row by row at each depth, in
    group order), streamed a batch of walks at a time.  For a free-connex
    head each walk is a distinct answer; otherwise answers are
    deduplicated."""
    w = _walk(q, parents, db)
    if w is None:
        return
    seen: set = set()
    for cols in _batches(w, lambda: _WALK_BATCH):
        codes = _head_codes(w, cols)
        for at in range(0, codes.shape[1], _WALK_BATCH):  # one heavy row's walks in slices
            for ans in _decode(q.head_name, codes[:, at:at + _WALK_BATCH], db.values):
                if ans not in seen:
                    seen.add(ans)
                    yield ans


# Walks are expanded this many at a time, so `iter_answers` streams; a
# ball build expands a quarter as many as the (answer, fact) pairs it has
# gathered when that is more, so a batch's arrays stay within a constant
# factor of its result.  Expanding every walk at once holds O(walks) ids,
# which outgrows the balls when walks per answer outnumber a ball's facts:
# on `Q(v0,v4) <- R(v0,v1), S(v1,v2), T(v2,v3), U(v3,v4)` over complete
# bipartite relations on d values, a one-pass build's tracemalloc peak was
# 1.5x (d = 6) to 4.9x (d = 16) that of a walk building one frozenset per
# answer; batched, it is 0.3-0.4x.
_WALK_BATCH = 1 << 10


def _tree_heads(q: ConjunctiveQuery, parents: Sequence[int | None],
                db: Database) -> np.ndarray:
    """Every distinct answer of `q` over the join tree `parents`, as head
    codes: one column per answer, in value order, which is `Fact` order.
    No answer is decoded.

    The walks' head codes are gathered a batch at a time.  Once the new
    columns outnumber the distinct ones found before them, all of them are
    packed into one key each and deduplicated by `np.unique`, which also
    sorts them into value order; so a query with many walks per answer
    holds about twice its answers' codes plus one batch, and the merges
    cost O(walks log walks) in all.
    """
    radix = max(1, len(db.values))
    held = np.zeros((len(q.head_vars), 0), dtype=np.int64)
    w = _walk(q, parents, db)
    if w is None:
        return held
    fresh: list = []
    count = 0
    for cols in _batches(w, lambda: _WALK_BATCH):
        fresh.append(_head_codes(w, cols))
        count += fresh[-1].shape[1]
        if count > held.shape[1]:
            held, fresh, count = _distinct_columns([held, *fresh], radix), [], 0
    return _distinct_columns([held, *fresh], radix) if fresh else held


def _distinct_columns(blocks: Sequence[np.ndarray], radix: int) -> np.ndarray:
    """The distinct columns of the code blocks, codes below `radix`, in
    value order."""
    codes = np.concatenate(blocks, axis=1)
    return codes[:, np.unique(_pack([codes], radix)[0], return_index=True)[1]]


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of `keys`, ascending, by sort and compare;
    sorts `keys` in place."""
    keys.sort()
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if len(keys) else keys


class _SharedFold(NamedTuple):
    """A skipped subtree's facts, kept once per group of its top node:
    answer `j` joins the group `group[j]`, whose facts are the
    `Database.facts()` ids `ids[ptr[g]:ptr[g + 1]]`."""

    group: np.ndarray
    ptr: np.ndarray
    ids: np.ndarray


class _Balls(NamedTuple):
    """Every answer's ball, factorised: answer `j`, the head codes
    `heads[:, j]`, has its own facts `ids[ptr[j]:ptr[j + 1]]`, ascending,
    and the group it joins of each `_SharedFold` in `shared`.  The parts
    are disjoint, and the ball is their union."""

    heads: np.ndarray
    ptr: np.ndarray
    ids: np.ndarray
    shared: tuple


def _tree_balls(q: ConjunctiveQuery, parents: Sequence[int | None], db: Database) -> _Balls:
    """Every answer of `q` with its ball, the facts of every homomorphism
    that yields it, over the join tree `parents`, as a `_Balls`: the
    answers' head codes, one column per answer in value order, which is
    `Fact` order, and each answer's own row of `db.facts()` ids,
    ascending, which is fact order, plus the shared folds it joins.  No
    answer is decoded.

    A homomorphism extends a walk of `_walk` into each skipped subtree on
    its own, so a ball holds its walks' facts and, per skipped subtree,
    the facts of every extension of each group the walk joins, which one
    `_fold` gathers per subtree.  Each walk's answer is found by its
    packed head codes.  (answer, fact id) pairs and (answer, group) pairs
    are packed into one int64 each and deduplicated by sort and compare.
    Each batch's new pairs are merged into the sorted pairs before it, so
    a query with many walks per answer never holds all of its walks at
    once (see `_WALK_BATCH`).  Answers are kept numbered in value order: a
    batch's new answers are inserted among the earlier ones, whose pairs
    move up past them.

    A subtree's fold is shared, not copied into the rows, when every
    answer joins one group of it, as it does when the subtree joins its
    parent on head variables alone, and the body is self-join-free, so
    that no fact is both in it and elsewhere in a ball.  Any other
    subtree's facts are added to the rows once per distinct (answer,
    group) pair, by `_add_folds`, under WITNESS_PAIR_LIMIT.
    """
    empty = np.zeros(0, dtype=np.int64)
    w = _walk(q, parents, db)
    if w is None:
        return _Balls(np.zeros((len(q.head_vars), 0), dtype=np.int64),
                      np.zeros(1, dtype=np.int64), empty, ())
    groups, join, depth = w.groups, w.join, w.depth
    ids = [db.offset(a.relation) + r for a, r in zip(q.atoms, w.rows)]
    hang = []  # per skipped subtree below the walk: its parent's depth, join and folds
    for c, p in enumerate(w.parents):
        if p in depth and c not in depth:
            n = len(groups[c].keys)
            ptr, got = _fold(c, np.repeat(np.arange(n), np.diff(groups[c].starts)),
                             groups[c].rows, n, w.kids, groups, join, ids)
            hang.append((depth[p], join[c], ptr, got))

    radix, nfacts = max(1, len(db.values)), max(1, db.fact_count())
    heads = np.zeros((len(w.head), 0), dtype=np.int64)  # per answer, value order: head codes
    # answer * nfacts + fact id of a walked node, ascending and distinct; the
    # product of two counts of objects held in memory stays far below 2^63
    pairs = empty
    joined = [empty] * len(hang)  # per skipped subtree: answer * groups + group, likewise
    for cols in _batches(w, lambda: max(_WALK_BATCH, len(pairs) // 4)):
        found = _head_codes(w, cols)
        known, seen = _pack([heads, found], radix)  # `known` ascends, as `heads` do
        by_seen = _stable_order(seen)
        keys = seen[by_seen]
        new = np.concatenate(([True], keys[1:] != keys[:-1]))  # an answer's first walk
        new &= _find(known, keys) < 0  # of an answer earlier batches did not find
        where = np.searchsorted(known, keys[new])
        heads = np.insert(heads, where, found[:, by_seen[new]], axis=1)
        # An older answer moves up past the new answers below it.
        shift = np.searchsorted(keys[new], known)
        answer = np.searchsorted(np.insert(known, where, keys[new]), seen)
        pairs += shift[pairs // nfacts] * nfacts
        pairs = _merge(pairs, _distinct(np.concatenate(
            [answer * nfacts + ids[u][cols[d]] for u, d in depth.items()])))
        for s, (d, to, fold_ptr, _) in enumerate(hang):
            m = max(1, len(fold_ptr) - 1)
            held = joined[s]
            held += shift[held // m] * m
            joined[s] = _merge(held, _distinct(answer * m + to[cols[d]]))
    shared = []
    selfjoin = len({a.relation for a in q.atoms}) < len(q.atoms)
    for (_, _, fold_ptr, fold), got in zip(hang, joined):
        a, g = np.divmod(got, max(1, len(fold_ptr) - 1))
        if len(got) == heads.shape[1] and not selfjoin:  # one group per answer
            shared.append(_SharedFold(g, fold_ptr, fold))
        else:
            pairs = _add_folds(pairs, a, fold_ptr[g], fold_ptr[g + 1], fold, nfacts)
    ptr = np.searchsorted(pairs, np.arange(heads.shape[1] + 1) * nfacts)
    pairs %= nfacts
    return _Balls(heads, ptr, pairs, tuple(shared))


def _merge(held: np.ndarray, got: np.ndarray) -> np.ndarray:
    """The ascending, distinct `held` and `got` merged into one such array."""
    if not len(held):
        return got
    got = got[_find(held, got) < 0]
    return np.insert(held, np.searchsorted(held, got), got)


def _add_folds(pairs: np.ndarray, answer: np.ndarray, first: np.ndarray, end: np.ndarray,
               fold: np.ndarray, nfacts: int) -> np.ndarray:
    """`pairs`, packed as in `_tree_balls`, with `fold[first[i]:end[i]]`
    added to the row of `answer[i]` for every i, a batch of about a quarter
    of `pairs` at a time, or one group's fold when that is more.  Each
    batch's new pairs are counted with those held by `_witness_pairs`
    before they are merged in."""
    sizes = end - first
    cumulative = sizes.cumsum()
    at = 0
    while at < len(answer):
        spent = cumulative[at - 1] if at else 0
        budget = spent + max(_WALK_BATCH, len(pairs) // 4)
        stop = max(at + 1, int(np.searchsorted(cumulative, budget, "right")))
        got = _distinct(answer[at:stop].repeat(sizes[at:stop]) * nfacts
                        + fold[_ranges(first[at:stop], sizes[at:stop])])
        got = got[_find(pairs, got) < 0]
        _witness_pairs(len(pairs) + len(got))
        pairs = np.insert(pairs, np.searchsorted(pairs, got), got)
        at = stop
    return pairs


def _ball_rows(balls: _Balls, nfacts: int) -> tuple[np.ndarray, np.ndarray]:
    """Every answer's whole ball as one row, `(ptr, ids)`: answer `j` has
    the fact ids `ids[ptr[j]:ptr[j + 1]]`, ascending; facts are below
    `nfacts`.  The rows' size is checked by `_witness_pairs` before they
    are allocated."""
    if not balls.shared:
        return balls.ptr, balls.ids
    answers = np.arange(len(balls.ptr) - 1)
    sizes = [np.diff(balls.ptr)] + [np.diff(s.ptr)[s.group] for s in balls.shared]
    total = sum(sizes)
    _witness_pairs(int(total.sum()))
    starts = [balls.ptr[:-1]] + [s.ptr[s.group] for s in balls.shared]
    rows = [balls.ids] + [s.ids for s in balls.shared]
    keys = np.concatenate([answers.repeat(z) * nfacts + r[_ranges(f, z)]
                           for z, f, r in zip(sizes, starts, rows)])
    keys.sort()
    keys %= nfacts
    return np.concatenate(([0], total.cumsum())), keys


def _batches(w: _Walk, budget: Callable[[], int]) -> Iterator[list[np.ndarray]]:
    """Every walk, in walk order, as `_expand` columns, one batch of the
    first root's rows at a time: about `budget()` walks, read before each
    batch, or the walks of one row when that is more.

    One bottom-up pass counts, as floats, the walks below every row of a
    walked node, and sums them per group."""
    total: list = [None] * len(w.walked)
    for d in reversed(range(len(w.walked))):
        u = w.walked[d]
        count = np.ones(w.codes[u].shape[1])
        for c in w.kids[u]:
            if c in w.depth:
                count *= np.append(total[w.depth[c]], 0.0)[w.join[c]]
        g = w.groups[u]
        total[d] = (np.add.reduceat(count[g.rows], g.starts[:-1]) if len(g.rows)
                    else np.zeros(0))
    # every later root multiplies the walks, once for each of its own
    count *= np.prod([total[d][0] for d, u in enumerate(w.walked)
                      if d and w.parents[u] is None])
    top = w.groups[w.walked[0]].rows
    cumulative = np.cumsum(count[top])
    at = 0
    while at < len(top):
        spent = cumulative[at - 1] if at else 0.0
        end = max(at + 1, int(np.searchsorted(cumulative, spent + budget(), "right")))
        yield _expand(w, top[at:end])
        at = end


def _expand(w: _Walk, top: np.ndarray) -> list[np.ndarray]:
    """Every walk that starts at the `top` rows of the first root, as one
    column of chosen rows per depth."""
    cols = [top]
    for u in w.walked[1:]:
        p = w.parents[u]
        g = np.zeros(len(cols[0]), dtype=np.int64) if p is None else w.join[u][cols[w.depth[p]]]
        starts = w.groups[u].starts
        first = starts[g]
        sizes = starts[g + 1] - first
        keep = np.repeat(np.arange(len(cols[0])), sizes)
        cols = [col[keep] for col in cols]
        cols.append(w.groups[u].rows[_ranges(first, sizes)])
    return cols


def _head_codes(w: _Walk, cols: Sequence[np.ndarray]) -> np.ndarray:
    """The head codes of the walks `cols`, one row per head variable."""
    return np.array([w.codes[w.walked[d]][i][cols[d]] for d, i in w.head],
                    dtype=np.int64).reshape(len(w.head), len(cols[0]))


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
