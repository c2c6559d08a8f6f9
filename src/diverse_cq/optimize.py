"""Diversity maximization over query answers.

Greedy selection over a materialized answer set carries the usual
(1 - 1/e) guarantee for monotone submodular objectives.  The two
rankers avoid materialization altogether: one for positional volumes
over full acyclic queries, one for the witness-fact volume over
free-connex queries with projections.  Both reduce "which answer gains
the most" to one max-plus dynamic program over a join tree,
`_MaxPlusKernel`, which keeps its tables between rounds and re-scores
only the rows a pick uncovered.  The rankers add integer-scaled
weights and return Fractions.  Every greedy selection here runs
through one round loop, `_greedy`, which asks a step for the next best
answer and commits it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .engine import atom_candidates, enumerate_answers, _picker
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


class _MaxPlusKernel:
    """The max-plus dynamic program both rankers share, kept up to date as
    the covered region grows.

    Node `u` of the join forest `parents` holds `rows[u]`, value tuples
    over the variables `cols[u]`, and `fragments[u](i)` lists the ground
    points row `i` charges.  A row is live when it joins some live row of
    every child; liveness never changes, since covering points changes
    weights only.  A live row's annotation is the weight of its uncovered
    points, and its score adds the maximum of every child group it joins,
    where a group is the live rows of a node sharing one parent key.  Each
    group keeps its first row of maximal score, in row order, and the best
    answer takes that row in every root group and then in every group its
    parent's pick joins.

    Arithmetic is in integers: every weight the kernel reads is scaled by
    the lcm of their denominators, and `best` turns the total back into a
    Fraction.  A request whose region contains the last one lowers only
    the rows that hold a newly covered point, re-scores them, re-takes the
    maximum of each of their groups whose top row fell, and pushes every
    group whose maximum fell to the parent rows that join it.  Any other
    request rebuilds every score from scratch.  `rows_rescored` counts the
    rows whose score either path computed.
    """

    def __init__(self, cols: Sequence[tuple], rows: Sequence[Sequence[tuple]],
                 parents: Sequence[int | None], fragments: Sequence[Callable],
                 weight_of: Callable | None = None):
        self._cols = cols
        self._rows = rows
        self._parents = parents
        self._fragments = fragments
        self._weight_of = weight_of
        self._holders: list[dict] | None = None  # built by the first `best`
        self._covered: frozenset | None = None
        self.rows_rescored = 0

    def _index(self) -> None:
        """Liveness, groups, joins, the inverted index and integer weights."""
        cols, rows, parents = self._cols, self._rows, self._parents
        self._order, self._kids = _preorder(parents)
        # Key of a node's group, and the key a parent row probes it with.
        self._group_key = []
        self._probe = []
        for u, p in enumerate(parents):
            shared = [] if p is None else [c for c in cols[u] if c in cols[p]]
            self._group_key.append(_picker([cols[u].index(c) for c in shared]))
            self._probe.append(None if p is None else
                               _picker([cols[p].index(c) for c in shared]))
        n = len(rows)
        self._groups: list[dict] = [{} for _ in range(n)]  # key -> live rows
        self._joins: list[dict] = [{} for _ in range(n)]  # key -> parent rows
        for u in reversed(self._order):
            row = rows[u]
            live = range(len(row))
            for c in self._kids[u]:
                probe, groups = self._probe[c], self._groups[c]
                live = [i for i in live if probe(row[i]) in groups]
            for c in self._kids[u]:
                probe, joins = self._probe[c], self._joins[c]
                for i in live:
                    joins.setdefault(probe(row[i]), []).append(i)
            key, groups = self._group_key[u], self._groups[u]
            for i in live:
                groups.setdefault(key(row[i]), []).append(i)
        # Inverted index: ground point -> the live rows of a node holding it.
        index: list[dict] = [{} for _ in range(n)]
        for u, holders in enumerate(index):
            for ids in self._groups[u].values():
                for i in ids:
                    for point in self._fragments[u](i):
                        holders.setdefault(point, []).append(i)
        self._weight: dict | None = None  # None: every point weighs 1
        self._scale = 1
        if self._weight_of is not None:
            exact = {point: Fraction(self._weight_of(point))
                     for holders in index for point in holders}
            if any(w < 0 for w in exact.values()):
                raise InputError("point weights must be non-negative")
            self._scale = math.lcm(*(w.denominator for w in exact.values()))
            self._weight = {point: w.numerator * (self._scale // w.denominator)
                            for point, w in exact.items()}
        self._annot: list[list[int]] = [[] for _ in range(n)]
        self._score: list[list[int]] = [[] for _ in range(n)]
        self._best: list[dict] = [{} for _ in range(n)]  # group key -> top row
        self._holders = index
        self._fragments = self._weight_of = None

    def best(self, covered: frozenset):
        """(gain, assignment of variables to values) of the best answer
        once `covered` weighs 0, or None when the query has no answer."""
        if self._holders is None:
            self._index()
        if self._covered is not None and covered >= self._covered:
            self._lower(covered - self._covered)
        else:
            self._rebuild(covered)
        self._covered = covered
        return self._answer()

    def _rebuild(self, covered: frozenset) -> None:
        weight = self._weight
        for u in reversed(self._order):
            annot = [0] * len(self._rows[u])
            for point, ids in self._holders[u].items():
                if point not in covered:
                    w = 1 if weight is None else weight[point]
                    for i in ids:
                        annot[i] += w
            score = list(annot)
            for c in self._kids[u]:
                best, child = self._best[c], self._score[c]
                for key, ids in self._joins[c].items():
                    s = child[best[key]]
                    for i in ids:
                        score[i] += s
            self._annot[u] = annot
            self._score[u] = score
            self._best[u] = {key: max(ids, key=score.__getitem__)
                             for key, ids in self._groups[u].items()}
            self.rows_rescored += sum(map(len, self._groups[u].values()))

    def _lower(self, fresh: frozenset) -> None:
        weight = self._weight
        dirty: list[set] = [set() for _ in self._rows]
        for point in fresh:
            for u, holders in enumerate(self._holders):
                ids = holders.get(point)
                if ids:
                    w = 1 if weight is None else weight[point]
                    annot = self._annot[u]
                    for i in ids:
                        annot[i] -= w
                    dirty[u].update(ids)
        # Children before parents, so each row is re-scored at most once.
        for u in reversed(self._order):
            ids = dirty[u]
            if not ids:
                continue
            row, score, best = self._rows[u], self._score[u], self._best[u]
            key = self._group_key[u]
            top_before = {}
            for i in ids:
                k = key(row[i])
                if k not in top_before:
                    top_before[k] = score[best[k]]
            kids = [(self._probe[c], self._best[c], self._score[c]) for c in self._kids[u]]
            annot = self._annot[u]
            for i in ids:
                s = annot[i]
                for probe, kid_best, kid_score in kids:
                    s += kid_score[kid_best[probe(row[i])]]
                score[i] = s
            self.rows_rescored += len(ids)
            # Scores only fall, so a group changes only when its top row fell.
            p = self._parents[u]
            for k, before in top_before.items():
                if score[best[k]] < before:
                    top = best[k] = max(self._groups[u][k], key=score.__getitem__)
                    if score[top] < before and p is not None:
                        dirty[p].update(self._joins[u].get(k, ()))

    def _answer(self):
        total = 0
        picked: list = [None] * len(self._rows)
        assignment: dict = {}
        for u in self._order:
            p = self._parents[u]
            if p is None:
                i = self._best[u].get(())
                if i is None:
                    return None
                total += self._score[u][i]
            else:
                i = self._best[u][self._probe[u](self._rows[p][picked[p]])]
            picked[u] = i
            assignment.update(zip(self._cols[u], self._rows[u][i]))
        return Fraction(total, self._scale), assignment


def _atom_rows(db: Database, atom) -> list[Fact]:
    return sorted(atom_candidates(db, atom, {}))


class TropicalPlan:
    """Incremental next-answer ranking for positional volumes.

    Requires a full, acyclic query.  Each head position is charged to
    the first body atom containing its variable, so an atom's fact is
    annotated with the total weight of the not-yet-seen (value, position)
    pairs it would contribute.  The marginal of an answer is exactly the
    sum of its facts' annotations, and the best answer falls out of the
    shared max-plus kernel, whose ground points are those pairs.
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
        cols = [tuple(sorted(a.vars)) for a in q.atoms]
        rows = []
        for i, atom in enumerate(q.atoms):
            pmap = [atom.vars.index(c) for c in cols[i]]
            rows.append([tuple(f.values[p] for p in pmap) for f in _atom_rows(db, atom)])
        # (column, 1-based head position) of each head position an atom is charged
        charge: list[list[tuple[int, int]]] = [[] for _ in q.atoms]
        for l, hv in enumerate(q.head_vars):
            home = next(i for i, a in enumerate(q.atoms) if hv in a.vars)
            charge[home].append((cols[home].index(hv), l + 1))
        fragments = [lambda i, rows=r, charge=c: [(rows[i][j], pos) for j, pos in charge]
                     for r, c in zip(rows, charge)]
        self._kernel = _MaxPlusKernel(cols, rows, [n.parent for n in tree.nodes], fragments,
                                      getattr(volume.measure, "weight_of", None))

    @property
    def rows_rescored(self) -> int:
        """Rows whose max-plus score the `next` calls so far computed."""
        return self._kernel.rows_rescored

    def next(self, selected: Iterable[Fact]):
        """Best (answer, marginal) with already-seen positions weighing 0."""
        covered = self.volume.covered(selected)
        hit = self._kernel.best(covered)
        if hit is None:
            return None
        total, assignment = hit
        answer = Fact(self.q.head_name, tuple(assignment[hv] for hv in self.q.head_vars))
        check = self.volume.marginal_given_covered(covered, answer)
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
    the best answer again falls out of the shared max-plus kernel, whose
    ground points are facts.
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
        self._weight_of = weight_of
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

        # Hout edges: (cols, rows, ground points of a row).
        edges_cols: list[tuple] = []
        edges_rows: list[list[tuple]] = []
        fragments: list[Callable] = []
        self._outer_atoms: list[tuple[int, tuple]] = []
        self._components: list[tuple[tuple, dict]] = []

        for i in sorted(outer_atoms):
            atom = q.atoms[i]
            if not frozenset(atom.vars) <= headset:  # pragma: no cover
                raise AssertionError("connex bags must sit inside the head set")
            cols = tuple(sorted(atom.vars))
            pmap = [atom.vars.index(c) for c in cols]
            facts = _atom_rows(db, atom)
            edges_cols.append(cols)
            edges_rows.append([tuple(f.values[p] for p in pmap) for f in facts])
            fragments.append(lambda r, facts=facts: (facts[r],))
            self._outer_atoms.append((i, cols))

        for ids in comp_atom_sets:
            out_cols, tableau = self._component_table(ids, headset)
            rows = sorted(tableau)
            edges_cols.append(out_cols)
            edges_rows.append(rows)
            fragments.append(lambda r, rows=rows, tableau=tableau: tableau[rows[r]])
            self._components.append((out_cols, tableau))

        parents = _gyo_reduce([frozenset(cs) for cs in edges_cols])
        if parents is None:
            raise _PlanSnag("projected hypergraph is not acyclic")
        self._kernel = _MaxPlusKernel(edges_cols, edges_rows, parents, fragments,
                                      self._weight_of)

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

    @property
    def rows_rescored(self) -> int:
        """Rows whose max-plus score the `next` calls so far computed."""
        return self._kernel.rows_rescored

    def next(self, covered: frozenset):
        """Best (answer, gain) where a fact weighs 0 once covered."""
        hit = self._kernel.best(frozenset(covered))
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
        weight = None if volume is None else getattr(volume.measure, "weight_of", None)
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
        answers = sorted(volume.universe)  # the volume evaluated the query already
    else:
        answers = enumerate_answers(q, db).ordered()
    return run("naive", lambda picks: _naive_best(answers, volume, picks))
