"""Diversity maximization over query answers.

Greedy selection over a materialized answer set carries the usual
(1 - 1/e) guarantee for monotone submodular objectives.  The two
incremental rankers avoid materialization altogether: a max-plus pass
for positional volumes over full acyclic queries, and a provenance
weighting for free-connex queries with projections.  Both reduce
"which answer gains the most" to one dynamic program over a join tree.
Every greedy selection here runs through one round loop, `_greedy`,
which asks a step for the next best answer and commits it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .engine import atom_candidates, enumerate_answers
from .errors import EngineCompatibilityError, InputError, LimitExceededError
from .query import (ConjunctiveQuery, TreeDecomposition, assign_atoms,
                    extended_gyo_decomposition, free_connex_subtree, gyo_join_tree,
                    validate_tree_decomposition, _gyo_reduce, _preorder, _reroot)
from .relcore import Database, Fact
from .volume import VolumeAssignment, provenance_volume

BRUTE_FORCE_CAP = 10 ** 7
POSITIONAL_VOLUMES = ("pos", "pos-w")
ENGINES = ("auto", "naive", "tropical", "provenance")


@dataclass(frozen=True)
class DiverseResult:
    """Selected answers in pick order with their marginal gains.

    `engine` names the next-answer engine that `greedy_combined` ran;
    it is None for every other selection and when no round ran.
    """

    selected: tuple[Fact, ...]
    gains: tuple
    total: object
    engine: str | None = None

    def __len__(self):
        return len(self.selected)


def _make_result(selected: Sequence[Fact], gains: Sequence,
                 engine: str | None = None) -> DiverseResult:
    return DiverseResult(tuple(selected), tuple(gains), sum(gains, Fraction(0)), engine)


def _argmax(candidates: Iterable, score: Callable):
    """(candidate, score) with the highest score, the first candidate
    winning ties; None when there is no candidate."""
    best = None
    for c in candidates:
        s = score(c)
        if best is None or s > best[1]:
            best = (c, s)
    return best


def _greedy(k: int, best: Callable, commit: Callable = lambda answer: None):
    """The one greedy round loop behind every selection in this module.

    Each round asks the step `best(picks)` for the next (answer, gain),
    or None when it has nothing left to give, and hands the answer to
    `commit` so the step can update its state.  Stops after `k` picks.
    Returns the picks and their gains in pick order.
    """
    picks: list = []
    gains: list = []
    while len(picks) < k:
        hit = best(picks)
        if hit is None:
            break
        picks.append(hit[0])
        gains.append(hit[1])
        commit(hit[0])
    return picks, gains


def _sequential_gains(chosen: Sequence[Fact], v: VolumeAssignment) -> list:
    gains = []
    have = Fraction(0)
    for i in range(len(chosen)):
        now = v.diversity(chosen[:i + 1])
        gains.append(now - have)
        have = now
    return gains


def brute_force_diversify(answers: Iterable[Fact], k: int, v: VolumeAssignment,
                          max_subsets: int = BRUTE_FORCE_CAP) -> DiverseResult:
    """Exact optimum by subset enumeration; first lexicographic maximizer.

    Monotonicity means some best subset has size min(k, n), so only that
    layer is scanned.  The subset count is checked before any work.
    """
    items = sorted(set(answers))
    m = min(k, len(items))
    if m <= 0:
        return _make_result((), ())
    count = math.comb(len(items), m)
    if count > max_subsets:
        raise LimitExceededError(
            f"{len(items)} answers choose {m} is {count} subsets; the cap is {max_subsets}")
    best = None
    best_val = None
    for combo in combinations(items, m):
        val = v.diversity(combo)
        if best_val is None or val > best_val:
            best, best_val = combo, val
    return DiverseResult(best, tuple(_sequential_gains(best, v)), best_val)


def greedy_diversify(answers: Iterable[Fact], k: int, v: VolumeAssignment,
                     lazy: bool = False) -> DiverseResult:
    """Greedy argmax of the marginal gain, smallest answer on ties.

    Always makes min(k, n) picks, zero gains included.  With `lazy` the
    stored gains are treated as upper bounds (valid by submodularity) and
    only re-evaluated when popped; the selection is identical to the plain
    scan, round for round.  A volume that is not discrete (the Euclidean
    estimate) runs `greedy_by_objective` on its diversity.
    """
    items = sorted(set(answers))
    m = min(k, len(items))
    if m <= 0:
        return _make_result((), ())
    if not v.is_discrete:
        return greedy_by_objective(items, m, v.diversity)

    # Steps work on indices into `items`, so no answer is hashed per candidate.
    of = v.measure.of
    balls = [v.ball(t) for t in items]
    covered: set = set()
    remaining = list(range(len(items)))
    if lazy:
        heap = [(-of(balls[i]), i, 0) for i in remaining]
        heapq.heapify(heap)

        def best(picks):
            while heap:
                neg, i, stamp = heapq.heappop(heap)
                if stamp == len(picks):
                    return i, -neg
                heapq.heappush(heap, (-of(balls[i] - covered), i, len(picks)))
            return None
    else:
        def best(picks):
            return _argmax(remaining, lambda i: of(balls[i] - covered))

    def commit(i):
        covered.update(balls[i])
        remaining.remove(i)

    picks, gains = _greedy(m, best, commit)
    if any(b > a for a, b in zip(gains, gains[1:])):  # pragma: no cover
        raise AssertionError("greedy gains increased; objective is not submodular")
    return _make_result([items[i] for i in picks], gains)


def greedy_by_objective(answers: Iterable, k: int, objective: Callable) -> DiverseResult:
    """Greedy on a set function, smallest answer on ties.

    Each round adds the answer maximizing `objective(picks + [answer])`;
    the argmax is on the objective itself, not on a difference of two
    evaluations.  `gains` are the differences between consecutive
    rounds and `total` is the objective of the final selection as
    evaluated in its round.  Makes min(k, n) picks and assumes no
    monotonicity, so it serves the Euclidean estimate and the
    sum/min/Weitzman baselines alike.
    """
    remaining = sorted(set(answers))
    picks, values = _greedy(
        min(k, len(remaining)),
        lambda picks: _argmax(remaining, lambda t: objective(picks + [t])),
        remaining.remove)
    gains = [now - before for before, now in zip([0] + values, values)]
    return DiverseResult(tuple(picks), tuple(gains), values[-1] if values else Fraction(0))


# ---------------------------------------------------------------------------
# Next-answer oracles


def _naive_best(answers: Sequence[Fact], v: VolumeAssignment, picks: list[Fact]):
    """The materializing step: argmax of the marginal gain over `answers`.

    Picked answers stay candidates (their marginal is 0), and ties break
    to the earliest answer.
    """
    if v.is_discrete:
        covered = v.covered(picks)
        return _argmax(answers, lambda t: v.marginal_given_covered(covered, t))
    base = v.diversity(picks)
    return _argmax(answers, lambda t: v.diversity(picks + [t]) - base)


def cqnext_naive(q: ConjunctiveQuery, db: Database, selected: Iterable[Fact],
                 v: VolumeAssignment):
    """Materialize the answers, return (answer, marginal) maximizing the gain.

    The argmax ranges over all answers, already selected ones included
    (their marginal is 0); ties break to the smallest value sequence.
    This is the oracle the incremental rankers are checked against.
    """
    return _naive_best(enumerate_answers(q, db).ordered(), v, list(selected))


def _max_plus_tree(cols: Sequence[tuple], rows: Sequence[Sequence[tuple]],
                   annot: Sequence[Sequence[Fraction]],
                   parents: Sequence[int | None]):
    """Maximize the sum of row annotations over a join-consistent choice.

    One row is picked per node; a child row must agree with its parent
    row on their shared variables.  Returns (best total, assignment of
    variables to values) or None when no consistent choice exists.
    Deterministic: rows are scanned in their given (sorted) order and a
    stored optimum is replaced only by a strictly better one.
    """
    n = len(cols)
    order, children = _preorder(parents)
    pos = [{c: j for j, c in enumerate(cs)} for cs in cols]
    key_cols = [tuple(c for c in cols[i] if parents[i] is not None and c in pos[parents[i]])
                for i in range(n)]
    table: list[dict] = [{} for _ in range(n)]
    for u in reversed(order):
        pu = pos[u]
        kids = children[u]
        kid_keys = [key_cols[c] for c in kids]
        tu = table[u]
        for idx, row in enumerate(rows[u]):
            score = annot[u][idx]
            dead = False
            for c, kcols in zip(kids, kid_keys):
                got = table[c].get(tuple(row[pu[x]] for x in kcols))
                if got is None:
                    dead = True
                    break
                score += got[0]
            if dead:
                continue
            key = tuple(row[pu[x]] for x in key_cols[u])
            cur = tu.get(key)
            if cur is None or score > cur[0]:
                tu[key] = (score, idx)

    total = Fraction(0)
    assignment: dict = {}
    picked: list = [None] * n
    for u in order:
        p = parents[u]
        if p is None:
            got = table[u].get(())
            if got is None:
                return None
            total += got[0]
        else:
            prow = rows[p][picked[p]]
            got = table[u][tuple(prow[pos[p][x]] for x in key_cols[u])]
        picked[u] = got[1]
        for c, val in zip(cols[u], rows[u][got[1]]):
            assignment[c] = val
    return total, assignment


def _atom_rows(db: Database, atom) -> list[Fact]:
    return sorted(atom_candidates(db, atom, {}))


def _weight_lookup(v: VolumeAssignment) -> Callable:
    w = getattr(v.measure, "weight_of", None)
    if w is None:
        return lambda point: Fraction(1)
    return w


class TropicalPlan:
    """Incremental next-answer ranking for positional volumes.

    Requires a full, acyclic query.  Each head position is charged to
    the first body atom containing its variable, so an atom's fact is
    annotated with the total weight of the not-yet-seen (value, position)
    pairs it would contribute.  The marginal of an answer is exactly the
    sum of its facts' annotations, and the best answer falls out of one
    max-plus pass over the join tree.
    """

    def __init__(self, q: ConjunctiveQuery, db: Database, volume: VolumeAssignment):
        if volume.name not in POSITIONAL_VOLUMES:
            raise EngineCompatibilityError(
                f"value ranking supports positional volumes only, not {volume.name!r}")
        if not q.is_full:
            raise EngineCompatibilityError(
                "value ranking needs a full query (every body variable in the head)")
        tree = gyo_join_tree(q)
        if tree is None:
            raise EngineCompatibilityError("value ranking needs an acyclic query")
        self.q = q
        self.volume = volume
        self._weight = _weight_lookup(volume)
        self._parents = [n.parent for n in tree.nodes]
        self._cols = [tuple(sorted(a.vars)) for a in q.atoms]
        self._facts = [_atom_rows(db, a) for a in q.atoms]
        self._rows = []
        for i, atom in enumerate(q.atoms):
            pmap = [atom.vars.index(c) for c in self._cols[i]]
            self._rows.append([tuple(f.values[p] for p in pmap) for f in self._facts[i]])
        charged: dict[int, list[tuple[int, int]]] = {i: [] for i in range(len(q.atoms))}
        for l, hv in enumerate(q.head_vars):
            home = next(i for i, a in enumerate(q.atoms) if hv in a.vars)
            charged[home].append((l, q.atoms[home].vars.index(hv)))
        self._charged = charged

    def next(self, selected: Iterable[Fact]):
        """Best (answer, marginal) with already-seen positions weighing 0."""
        sel = list(selected)
        k = len(self.q.head_vars)
        seen = [set() for _ in range(k)]
        for t in sel:
            for l in range(k):
                seen[l].add(t.values[l])
        annot = []
        for i, facts in enumerate(self._facts):
            pairs = self._charged[i]
            col = []
            for f in facts:
                score = Fraction(0)
                for l, p in pairs:
                    val = f.values[p]
                    if val not in seen[l]:
                        score += self._weight((val, l + 1))
                col.append(score)
            annot.append(col)
        hit = _max_plus_tree(self._cols, self._rows, annot, self._parents)
        if hit is None:
            return None
        total, assignment = hit
        answer = Fact(self.q.head_name, tuple(assignment[hv] for hv in self.q.head_vars))
        check = self.volume.marginal_given_covered(self.volume.covered(sel), answer)
        if check != total:  # pragma: no cover - per-position charging is exact
            raise AssertionError(f"ranked marginal {total} but the volume says {check}")
        return answer, total


class _PlanSnag(Exception):
    """Internal: the given decomposition lacks structure the planner needs."""


class ProvenancePlan:
    """Incremental next-answer ranking for the witness-fact volume.

    Works on self-join-free free-connex queries without materializing
    the answer set.  Atoms whose variables all appear in the head are
    kept as explicit edges; every other atom belongs to a hanging
    component, which is collapsed by one which-provenance pass into a
    table from its head-variable interface to the set of facts in any
    witness.  Self-join-freeness makes those fact sets disjoint across
    edges, so the marginal of an answer is a sum of per-edge weights and
    the best answer again falls out of a max-plus pass.
    """

    def __init__(self, q: ConjunctiveQuery, db: Database,
                 td: TreeDecomposition | None = None,
                 weight_of: Callable | None = None):
        if not q.is_self_join_free:
            raise EngineCompatibilityError(
                "provenance ranking needs a self-join-free query")
        base = td if td is not None else gyo_join_tree(q)
        if base is None:
            raise EngineCompatibilityError("provenance ranking needs an acyclic query")
        fc = free_connex_subtree(q, base)
        if fc is None:
            raise EngineCompatibilityError(
                "provenance ranking needs a free-connex query: no connected subtree "
                "of bags covers exactly the head variables")
        self.q = q
        self.db = db
        self._weight = weight_of if weight_of is not None else (lambda f: Fraction(1))
        try:
            self._build(fc)
        except _PlanSnag:
            fc = extended_gyo_decomposition(q)
            if fc is None:
                raise EngineCompatibilityError(
                    "provenance ranking needs a free-connex query") from None
            self._build(fc)

    def _build(self, fc):
        q, db = self.q, self.db
        headset = frozenset(q.head_vars)
        td = assign_atoms(q, fc.td)
        outer_atoms: list[int] = []
        for ident in sorted(fc.connex):
            outer_atoms.extend(td.nodes[ident].atoms)
        comp_atom_sets = []
        for comp in fc.hanging_components():
            ids = sorted(i for u in comp for i in td.nodes[u].atoms)
            if ids:
                comp_atom_sets.append(ids)

        # Hout edges: (cols, rows, per-row weight source).
        self._edges_cols: list[tuple] = []
        self._edges_rows: list[list[tuple]] = []
        self._atom_edge_facts: list[list[Fact] | None] = []
        self._comp_tables: list[dict | None] = []
        self._outer_atoms: list[tuple[int, tuple]] = []
        self._components: list[tuple[tuple, dict]] = []

        for i in sorted(outer_atoms):
            atom = q.atoms[i]
            if not frozenset(atom.vars) <= headset:  # pragma: no cover
                raise AssertionError("connex bags must sit inside the head set")
            cols = tuple(sorted(atom.vars))
            pmap = [atom.vars.index(c) for c in cols]
            facts = _atom_rows(db, atom)
            self._edges_cols.append(cols)
            self._edges_rows.append([tuple(f.values[p] for p in pmap) for f in facts])
            self._atom_edge_facts.append(facts)
            self._comp_tables.append(None)
            self._outer_atoms.append((i, cols))

        for ids in comp_atom_sets:
            out_cols, tableau = self._component_table(ids, headset)
            rows = sorted(tableau)
            self._edges_cols.append(out_cols)
            self._edges_rows.append(rows)
            self._atom_edge_facts.append(None)
            self._comp_tables.append(tableau)
            self._components.append((out_cols, tableau))

        parents = _gyo_reduce([frozenset(cs) for cs in self._edges_cols])
        if parents is None:
            raise _PlanSnag("projected hypergraph is not acyclic")
        self._parents = parents

    def _component_table(self, atom_ids: list[int], headset: frozenset):
        """Collapse one hanging component into {interface tuple: witness facts}."""
        q, db = self.q, self.db
        atoms = [q.atoms[i] for i in atom_ids]
        out = tuple(sorted({v for a in atoms for v in a.vars} & headset))
        parents = _gyo_reduce([frozenset(a.vars) for a in atoms])
        if parents is None:
            raise _PlanSnag("hanging component is not acyclic")
        root = next((j for j, a in enumerate(atoms) if set(out) <= set(a.vars)), None)
        if root is None:
            raise _PlanSnag("no component atom covers the head interface")
        parents = _reroot(parents, root)
        order, children = _preorder(parents)

        msg: dict[int, dict] = {}
        for u in reversed(order):
            atom = atoms[u]
            apos = {v: p for p, v in enumerate(atom.vars)}
            kid_cols = [tuple(v for v in atoms[c].vars if v in apos) for c in children[u]]
            if u == root:
                key_cols = out
            else:
                par = atoms[parents[u]]
                key_cols = tuple(v for v in atom.vars if v in par.vars)
            table: dict = {}
            for f in _atom_rows(db, atom):
                bundle = {f}
                dead = False
                for c, kcols in zip(children[u], kid_cols):
                    got = msg[c].get(tuple(f.values[apos[v]] for v in kcols))
                    if got is None:
                        dead = True
                        break
                    bundle |= got
                if dead:
                    continue
                key = tuple(f.values[apos[v]] for v in key_cols)
                prior = table.get(key)
                table[key] = bundle if prior is None else prior | bundle
            msg[u] = table
        return out, {k: frozenset(s) for k, s in msg[root].items()}

    def next(self, covered: frozenset):
        """Best (answer, gain) where a fact weighs 0 once covered."""
        annot = []
        for rows, facts, tableau in zip(self._edges_rows, self._atom_edge_facts,
                                        self._comp_tables):
            if facts is not None:
                annot.append([self._weight(f) if f not in covered else Fraction(0)
                              for f in facts])
            else:
                annot.append([
                    sum((self._weight(f) for f in tableau[r] if f not in covered),
                        Fraction(0))
                    for r in rows])
        hit = _max_plus_tree(self._edges_cols, self._edges_rows, annot, self._parents)
        if hit is None:
            return None
        total, assignment = hit
        answer = Fact(self.q.head_name, tuple(assignment[hv] for hv in self.q.head_vars))
        return answer, total

    def provenance_of(self, answer: Fact) -> frozenset:
        """Union of facts over the answer's witnesses, by per-edge lookup."""
        q = self.q
        if answer.relation != q.head_name or answer.arity != len(q.head_vars):
            raise InputError(f"{answer!r} does not have the query's head shape")
        binding: dict = {}
        for hv, val in zip(q.head_vars, answer.values):
            if binding.setdefault(hv, val) != val:
                raise InputError(f"{answer!r} is not an answer of the query")
        facts: set[Fact] = set()
        for i, _ in self._outer_atoms:
            atom = q.atoms[i]
            f = Fact(atom.relation, tuple(binding[v] for v in atom.vars))
            if f not in self.db:
                raise InputError(f"{answer!r} is not an answer of the query")
            facts.add(f)
        for out_cols, tableau in self._components:
            got = tableau.get(tuple(binding[v] for v in out_cols))
            if got is None:
                raise InputError(f"{answer!r} is not an answer of the query")
            facts |= got
        return frozenset(facts)

    def covered_by(self, selected: Iterable[Fact]) -> frozenset:
        region: set = set()
        for t in selected:
            region |= self.provenance_of(t)
        return frozenset(region)


# ---------------------------------------------------------------------------
# End-to-end greedy


def greedy_combined(q: ConjunctiveQuery, db: Database, k: int,
                    volume: VolumeAssignment | None = None, engine: str = "auto",
                    td: TreeDecomposition | None = None) -> DiverseResult:
    """Greedy diversification driven by a next-answer oracle.

    `engine` picks the oracle: "naive" materializes the answers,
    "tropical" ranks positional volumes incrementally, "provenance"
    ranks the witness-fact volume incrementally, and "auto" tries the
    matching incremental ranker before falling back to naive.  A given
    `td` is validated for every engine; only the provenance ranker
    plans over it.  Rounds stop at the first round whose best gain is 0,
    which is exactly when no answer adds volume.  The result's `engine`
    names the engine that ran.
    """
    if engine not in ENGINES:
        raise InputError(f"unknown engine {engine!r}")
    if td is not None:
        violation = validate_tree_decomposition(q, td)
        if violation is not None:
            raise InputError(
                f"invalid tree decomposition: {violation.kind}: {violation.detail}")
    if k <= 0:
        return _make_result((), ())

    def run(name: str, best: Callable, commit: Callable = lambda answer: None):
        def gainful(picks):
            hit = best(picks)
            return hit if hit is not None and hit[1] > 0 else None
        return _make_result(*_greedy(k, gainful, commit), engine=name)

    if engine in ("auto", "provenance") and (volume is None or volume.name == "provenance"):
        weight = None if volume is None else _weight_lookup(volume)
        try:
            plan = ProvenancePlan(q, db, td=td, weight_of=weight)
        except EngineCompatibilityError:
            if engine == "provenance":
                raise
        else:
            covered: frozenset = frozenset()

            def absorb(answer):
                nonlocal covered
                covered = covered | plan.provenance_of(answer)

            return run("provenance", lambda picks: plan.next(covered), absorb)
    if engine == "provenance":
        raise EngineCompatibilityError(
            "the provenance engine ranks the witness-fact volume; "
            f"got the {volume.name!r} volume")

    if engine in ("auto", "tropical") and volume is not None \
            and volume.name in POSITIONAL_VOLUMES:
        try:
            ranker = TropicalPlan(q, db, volume)
        except EngineCompatibilityError:
            if engine == "tropical":
                raise
        else:
            return run("tropical", ranker.next)
    if engine == "tropical":
        name = "none" if volume is None else repr(volume.name)
        raise EngineCompatibilityError(
            f"value ranking supports positional volumes only, not {name}")

    if volume is None:
        volume = provenance_volume(q, db)
    answers = enumerate_answers(q, db).ordered()
    return run("naive", lambda picks: _naive_best(answers, volume, picks))
