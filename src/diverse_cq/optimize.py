"""Diversity maximization over query answers.

Greedy selection over a materialized answer set carries the usual
(1 - 1/e) guarantee for monotone submodular objectives.  Every discrete
greedy round does one piece of bookkeeping, kept by `_CoverIndex`:
covering a ground point takes its weight, an int over one common scale,
off the owners holding it, and only those owners are scored again.
`greedy_diversify`, `greedy_combined`'s naive engine and `cqnext_naive`
run one step over the answers, `_GreedyStep`, whose owners are answers.
The rankers avoid materialization altogether.  Whenever an answer's
marginal is a sum over the edges of a join tree, "which answer gains
the most" is one max-plus dynamic program over that tree, and one plan,
`_RankingPlan`, builds the edges and runs the program; its owners are
the edges' rows.  Its live rows, groups and joins come from the
evaluator's semijoin pass over the database's code columns, and so do
each hanging component's, whose witness table the evaluator's top-down
array fold gathers.  It keeps its tables as arrays between rounds and
returns Fractions.  A round lowers an atom edge incrementally, re-scoring
in Python only the rows that held a covered point or joined a group
whose maximum fell; it re-scores a witness table whole, with the same
array pass that builds every edge's scores, and counts each of its live
rows in `rows_rescored` once per re-score.  Two thin
subclasses decide only which ground points a row charges:
`TropicalPlan`, for positional volumes over full acyclic queries, and
`ProvenancePlan`, for the witness-fact volume over free-connex queries
with projections.  `greedy_combined` picks one by the volume's balls,
never by its name.  Both plan once over the join tree the query itself
determines: its GYO tree, rooted at the connex part for a projected
head, else the extended GYO tree.  Every greedy selection here runs
through one round loop, `_greedy`, which asks a step for the next best
answer and commits it.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Set
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from typing import AbstractSet, Callable, Iterable, Sequence

import numpy as np

from .engine import (enumerate_answers, in_value_order, _atom_rows, _fold, _ranges, _reduce,
                     _segments, _stable_order)
from .errors import EngineCompatibilityError, InputError, LimitExceededError
from .query import ConjunctiveQuery, free_connex_split, gyo_join_tree, _gyo_reduce
from .relcore import Database, Fact, _pack
from .volume import (ProvenanceBalls, VolumeAssignment, pos_ball, provenance_volume,
                     scaled_weights)

BRUTE_FORCE_CAP = 10 ** 7
# A ranking group of more rows than this re-takes its maximum with a numpy
# argmax, a smaller one with Python's `max` over the score list.  Time in
# `_lower` on tropical-path requests was flat for cutoffs 64 to 256, and
# about 30% higher with numpy on every group or 47% with Python on every group.
_PYTHON_MAX_ROWS = 64
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


def _argmax(scored: Iterable[tuple]):
    """The (candidate, score) pair with the highest score, the first
    winning ties; None when there is no pair."""
    best = None
    for c, s in scored:
        if best is None or s > best[1]:
            best = (c, s)
    return best


def _greedy(k: int, best: Callable, commit: Callable):
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


def _distinct_in_order(answers: Iterable) -> list:
    """`answers` without repeats, in value order: `in_value_order` of a set,
    which takes a `CodedAnswers` in its own order, and of any other
    iterable once it is deduplicated."""
    return in_value_order(answers if isinstance(answers, Set) else set(answers))


def brute_force_diversify(answers: Iterable[Fact], k: int, v: VolumeAssignment,
                          max_subsets: int = BRUTE_FORCE_CAP) -> DiverseResult:
    """Exact optimum by subset enumeration; first lexicographic maximizer.

    Monotonicity means some best subset has size min(k, n), so only that
    layer is scanned.  The subset count is checked before any work.
    """
    items = _distinct_in_order(answers)
    m = min(k, len(items))
    if m <= 0:
        return _make_result((), ())
    count = math.comb(len(items), m)
    if count > max_subsets:
        raise LimitExceededError(
            f"{len(items)} answers choose {m} is {count} subsets; the cap is {max_subsets}")
    best, best_val = _argmax((s, v.diversity(s)) for s in combinations(items, m))
    values = [Fraction(0)] + [v.diversity(best[:i]) for i in range(1, m + 1)]
    return DiverseResult(best, tuple(b - a for a, b in zip(values, values[1:])), best_val)


def _point_ids(pid: Callable, points: Iterable) -> np.ndarray:
    """The ids `pid` gives `points`, -1 for a point it gives none."""
    return np.fromiter((-1 if i is None else i for i in map(pid, points)), dtype=np.int64)


class _CoverIndex:
    """Which owners hold each ground point, what it weighs, and whether
    it is covered: the bookkeeping of every discrete greedy round.

    Built from parallel arrays of point ids and their owners, `weight_of`
    (None when every point weighs 1) and `points`, which maps an array of
    ids to their points, in one call.  It keeps
    the (point, owner) pairs sorted by point, as `_pids` and `owners`.  A
    weight is read once per point and scaled by `scale`, the lcm of all
    denominators, to the int `weight` of each pair; `dtype` is int64
    unless the weights sum past 2^62, exact ints (object) then.
    """

    def __init__(self, pids: np.ndarray, owners: np.ndarray, weight_of: Callable | None,
                 points: Callable):
        by_point = _stable_order(pids)
        # The pairs' ids, then one above them all, so that every search lands.
        self._pids = np.concatenate((pids[by_point], [np.iinfo(np.int64).max]))
        self.owners = owners[by_point]
        self._covered = np.zeros(len(self._pids), dtype=bool)  # per pair
        self.weight, self.scale, self.dtype = None, 1, np.int64
        if weight_of is not None:
            start = _segments(self._pids[:-1])  # one run per point
            scaled, self.scale = scaled_weights(weight_of, points(self._pids[start[:-1]]))
            scaled = list(scaled.values())  # in point order
            self.dtype = object if sum(scaled) >= 2 ** 62 else np.int64
            self.weight = np.array(scaled, dtype=self.dtype).repeat(start[1:] - start[:-1])

    def cover(self, pids: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Cover the point ids `pids`, an int64 array, skipping ids no owner
        holds; a held id must not repeat.  Returns the (owner, weight) pairs
        of the points newly covered, as an owner array and a weight array
        (None: all 1)."""
        lo = self._pids.searchsorted(pids)
        pairs = _ranges(lo, (self._pids.searchsorted(pids, "right") - lo) * ~self._covered[lo])
        self._covered[pairs] = True
        return self.owners[pairs], None if self.weight is None else self.weight[pairs]

    def uncover(self) -> None:
        self._covered[:] = False

    def totals(self, n: int) -> np.ndarray:
        """The weight of the uncovered points of each of the owners 0..n-1."""
        keep = ~self._covered[:-1]
        if self.weight is None:
            return np.bincount(self.owners[keep], minlength=n)
        out = np.zeros(n, dtype=self.dtype)
        np.add.at(out, self.owners[keep], self.weight[keep])
        return out


class _GreedyStep:
    """The one materialized greedy step, over a discrete volume's answers.

    Answer `i`, in `Fact` order, has its ball as the row of point ids
    `pts[ptr[i]:ptr[i + 1]]`.  Under a provenance volume over an acyclic
    body these are the volume's own rows of `Database.facts()` ids, found
    by `ProvenanceBalls.rows`: one search of packed head codes when the
    answers are a `CodedAnswers` over the same query and database, as
    `enumerate_answers` and the volume's universe are.  No answer is
    decoded then but the picked ones, by one `decode` call, and a weight
    is read only through `Database.facts_at`.  Otherwise the answers are
    taken in value order (`in_value_order`) and their balls' points
    interned in order of first appearance; an answer outside the volume's
    universe raises its `UniverseError`, the smallest first.  `decode`
    maps answer indexes to their `Fact`s, and `point_ids` maps ball points
    to ids, -1 for a point no answer holds.
    `gains` holds every answer's weight of uncovered points, over `scale`,
    and `cover` lowers only the answers holding a newly covered point.
    `commit` covers an answer's ball and sets its gain to -1, below every
    candidate's, so a picked answer leaves the candidates.  `best` takes
    the first maximum of the gains, the smallest answer on ties.
    """

    def __init__(self, answers: AbstractSet, v: VolumeAssignment):
        balls, rows = v.ball_fn, None
        if isinstance(balls, ProvenanceBalls):
            rows = balls.rows(answers)
        if rows is not None and (rows >= 0).all() and (
                v.universe is None or v.universe is balls or v.universe >= answers):
            rows.sort()  # value order
            first = balls.ptr[rows]
            sizes = balls.ptr[rows + 1] - first
            pts = balls.ids[_ranges(first, sizes)]
            self.decode = lambda picks: balls.decode(rows[list(picks)])
            points, self.point_ids = balls.db.facts_at, balls.db.fact_ids
        else:
            items = in_value_order(answers)
            regions = [v.ball(t) for t in items]
            sizes = list(map(len, regions))
            point_id: dict = {}
            pts = np.fromiter((point_id.setdefault(p, len(point_id)) for r in regions for p in r),
                              dtype=np.int64, count=sum(sizes))
            self.decode = lambda picks: [items[i] for i in picks]
            held = list(point_id)
            points = lambda ids: list(map(held.__getitem__, ids.tolist()))
            self.point_ids = lambda asked: _point_ids(point_id.get, asked)
        self._ptr, self._pts = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))), pts
        self._index = _CoverIndex(pts, np.repeat(np.arange(len(sizes)), sizes),
                                  None if v.measure.kind == "count" else v.measure.weight_of,
                                  points)
        self.scale = self._index.scale
        self.gains = self._index.totals(len(sizes))

    def cover(self, pids: np.ndarray) -> None:
        """Cover the points `pids`, lowering the gains of their holders."""
        who, weight = self._index.cover(pids)
        if weight is None:
            np.subtract(self.gains, np.bincount(who, minlength=len(self.gains)), out=self.gains)
        else:
            np.subtract.at(self.gains, who, weight)

    def commit(self, i: int) -> None:
        self.cover(self._pts[self._ptr[i]:self._ptr[i + 1]])
        self.gains[i] = -1

    def best(self, picks=None):
        """(i, gain) of the first answer of maximal gain, or None."""
        if not len(self.gains):
            return None
        i = int(np.argmax(self.gains))
        return i, int(self.gains[i])

    def result(self, picks: Sequence[int], gains: Sequence[int], engine=None) -> DiverseResult:
        return _make_result(self.decode(picks), [Fraction(g, self.scale) for g in gains], engine)


def greedy_diversify(answers: Iterable[Fact], k: int, v: VolumeAssignment,
                     lazy: bool = False) -> DiverseResult:
    """Greedy argmax of the marginal gain, smallest answer on ties.

    Always makes min(k, n) picks, zero gains included, so a picked answer
    leaves the candidates.  Runs `_GreedyStep`: plain greedy takes the
    first maximum of its gains.  With `lazy`, a heap of stored gains,
    upper bounds by submodularity, is read instead: its top is picked
    once its stored gain is still current, and a stale top is re-read
    from the array and sifted down; the selection is identical to the
    plain scan, round for round.  A volume that is not discrete (the
    Euclidean estimate) rejects `lazy` and runs `_objective_greedy` over
    its round scorer, one `round_diversities` call per round.
    """
    if lazy and not v.is_discrete:
        raise InputError("lazy greedy needs a discrete volume")
    pool = answers if isinstance(answers, Set) else set(answers)
    m = min(k, len(pool))
    if m <= 0:
        return _make_result((), ())
    if not v.is_discrete:
        return _objective_greedy(pool, m, _round_scorer(v))

    step = _GreedyStep(pool, v)
    gains, best = step.gains, step.best
    if lazy:
        heap = list(zip((-gains).tolist(), range(len(gains))))
        heapq.heapify(heap)

        def best(picks):
            while heap:
                neg, i = heap[0]
                now = int(gains[i])
                if now == -neg:  # current, and every other stored gain bounds its own
                    heapq.heappop(heap)
                    return i, now
                heapq.heapreplace(heap, (-now, i))
            return None

    picks, gains_of = _greedy(m, best, step.commit)
    if any(b > a for a, b in zip(gains_of, gains_of[1:])):  # pragma: no cover
        raise AssertionError("greedy gains increased; objective is not submodular")
    return step.result(picks, gains_of)


def _per_candidate(objective: Callable) -> Callable:
    return lambda picks, candidates: [objective(picks + [t]) for t in candidates]


def _round_scorer(v) -> Callable:
    """A volume's `round_diversities`, else its `diversity` per candidate."""
    return getattr(v, "round_diversities", None) or _per_candidate(v.diversity)


def _objective_greedy(answers: Iterable, k: int, scores: Callable) -> DiverseResult:
    """Greedy on a set function, smallest answer on ties.

    `scores(picks, candidates)` gives the objective of picks plus each
    candidate; each round takes the first maximum, by strict `>`, over
    the candidates in value order, a `CodedAnswers` in its own order and
    any other iterable deduplicated and sorted.  The argmax is on the
    objective itself, not on a difference of two evaluations.  `gains`
    are the differences between consecutive rounds and `total` is the
    objective of the final selection as scored in its round.  Makes
    min(k, n) picks and assumes no monotonicity.
    """
    remaining = _distinct_in_order(answers)
    picks, values = _greedy(
        min(k, len(remaining)),
        lambda picks: _argmax(zip(remaining, scores(picks, remaining))),
        remaining.remove)
    gains = [now - before for before, now in zip([0] + values, values)]
    return DiverseResult(tuple(picks), tuple(gains), values[-1] if values else Fraction(0))


def greedy_by_objective(answers: Iterable, k: int, objective: Callable) -> DiverseResult:
    """Greedy on a set function, smallest answer on ties: `_objective_greedy`
    with `objective(picks + [t])` evaluated once per candidate t.  The
    sum/min/Weitzman baselines run it."""
    return _objective_greedy(answers, k, _per_candidate(objective))


# ---------------------------------------------------------------------------
# Next-answer oracles


def cqnext_naive(q: ConjunctiveQuery, db: Database, selected: Iterable[Fact],
                 v: VolumeAssignment):
    """Materialize the answers, return (answer, marginal) maximizing the gain.

    The argmax ranges over all answers, already selected ones included
    (their marginal is 0); ties break to the smallest value sequence.
    `selected` may repeat an answer or hold any tuple the volume has a
    ball for.  A discrete volume runs one `_GreedyStep` round with those
    balls covered; a volume that is not discrete takes the first maximum
    of its round scorer's diversities, in value order, as
    `_objective_greedy` does.  Returns None when there is no answer.
    This is the oracle the incremental rankers are checked against.
    """
    answers = enumerate_answers(q, db).answers
    selected = list(selected)
    if not v.is_discrete:
        base = v.diversity(selected)
        ordered = in_value_order(answers)
        hit = _argmax(zip(ordered, _round_scorer(v)(selected, ordered)))
        return None if hit is None else (hit[0], hit[1] - base)
    step = _GreedyStep(answers, v)
    step.cover(step.point_ids(v.covered(selected)))
    hit = step.best()
    return None if hit is None else (step.decode([hit[0]])[0], Fraction(hit[1], step.scale))


class _RankingPlan:
    """Next-answer ranking for a volume whose marginal is a sum over the
    edges of a join tree, kept up to date as the covered region grows.

    The edges are the body atoms `atoms`, each holding its candidate facts
    as rows over its variables, and then one witness table per hanging
    component in `components`, given as its atom ids and their parents
    within it, whose rows are the component's head-interface tuples.
    Parents come from GYO over the edges.  Every edge keeps its rows as
    the database's int64 code columns.  The volume decides only which
    ground points a row charges, as integer point ids: by default its
    witness facts, by their index in `Database.facts()`, and
    `TropicalPlan` overrides `_charge`, `_pids`, `_points` and `_picked_ids`.

    The best answer falls out of one max-plus dynamic program.  A row is
    live when it joins some live row of every child edge; liveness never
    changes, since covering points changes weights only.  A live row's
    annotation is the weight of its uncovered points, and its score adds
    the maximum of every child group it joins, where a group is the live
    rows of an edge sharing one parent key.  Each group keeps its first
    row of maximal score, in row order, and the best answer takes that row
    in every root group and then in every group its parent's pick joins;
    only then are its codes decoded into values.

    The first `best` call builds the tables from the evaluator's semijoin
    pass, as arrays: each row's group, each parent row's child group, and
    the cover index over the rows of all edges, numbered as one slot space.
    Every edge keeps its group maxima, its tops, in one array, which a
    parent reads with one gather.  `_rescore` scores a whole edge from its
    annotations and its children's tops, and takes each group's first row
    of maximal score, with array operations.

    `best()` and `commit(answer)` are the round protocol of `_GreedyStep`:
    `commit` covers the ids charged by the rows that `best` just picked
    for the answer (`_picked_ids`), so a round decodes and looks up no
    `Fact`.  The next `best` lowers the rows that held a newly covered
    point.  An atom edge is lowered incrementally: only those rows are
    re-scored, in Python over list copies of its annotations and scores;
    each of their groups whose top row fell re-takes its maximum (with one
    numpy argmax over a group of more than `_PYTHON_MAX_ROWS` rows), and
    every group whose maximum fell pushes the parent rows that join it.  A
    witness table keeps its annotations as one int array: a round's
    covered pairs come off it at once, and a table that holds one of them,
    or joins a child group whose maximum fell, is re-scored whole by
    `_rescore`.  `best(covered)` ranks with a given region of ground points
    instead.  When it contains the region of the last such call and
    nothing was committed since, only its new points are mapped to ids
    (`_pids`) and lowered the same way; any other region is mapped whole
    and every edge is re-scored by `_rescore`.
    `rows_rescored` counts the rows whose score was computed: each row an
    atom edge re-scores, and all live rows of an edge, once per `_rescore`.
    """

    def __init__(self, q: ConjunctiveQuery, db: Database, atoms: Iterable[int],
                 components: Iterable[tuple[list[int], list[int | None]]],
                 weight_of: Callable | None):
        self.q = q
        self.db = db
        self._atoms = list(atoms)
        self._radix = max(1, len(db.values))
        cols: list[tuple] = []
        codes: list[np.ndarray] = []
        self._ids: list[np.ndarray] = []  # per atom edge, its rows' fact ids
        for i in self._atoms:
            rows, atom_codes = _atom_rows(db, q.atoms[i])
            cols.append(q.atoms[i].vars)
            codes.append(atom_codes)
            self._ids.append(db.offset(q.atoms[i].relation) + rows)
        self._tables = [_witness_table(q, db, ids, parents) for ids, parents in components]
        for out, keys, _, _ in self._tables:
            cols.append(out)
            codes.append(keys)
        self._parents = _gyo_reduce([frozenset(c) for c in cols])
        if self._parents is None:  # pragma: no cover - see ProvenancePlan
            raise AssertionError("the projected hypergraph must be acyclic")
        self._cols = cols
        self._codes = codes
        self._weight_of = weight_of
        self._best: list | None = None  # built by the first `best`
        self._fresh: list[tuple] = []  # the (rows, weights) pairs commits newly covered
        self._region: frozenset | None = None  # the last `best(covered)` region
        self._picked: list[int] = []  # per edge, the row the last answer took
        self._assignment: dict = {}  # the last answer's variable -> code
        self.rows_rescored = 0

    def _charge(self, u: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ground points the `rows` of edge `u` charge, as parallel
        arrays of rows and point ids."""
        if u < len(self._atoms):
            return rows, self._ids[u][rows]
        _, _, ptr, ids = self._tables[u - len(self._atoms)]
        first = ptr[rows]
        sizes = ptr[rows + 1] - first
        return rows.repeat(sizes), ids[_ranges(first, sizes)]

    def _pids(self, points: Iterable) -> np.ndarray:
        """The ids of ground points, -1 for a point no row can charge."""
        return self.db.fact_ids(points)

    def _points(self, pids: np.ndarray) -> list:
        """The ground points of the ids `pids`, in one call."""
        return self.db.facts_at(pids)

    def _index(self) -> None:
        """Liveness, groups, joins and the cover index."""
        (self._order, self._kids, groups, join) = _reduce(
            self._cols, self._codes, self._parents, self._radix)
        self._join = join
        self._live = [g.rows for g in groups]
        # Edge u's rows are the slots base[u]...base[u + 1] - 1 of one row space.
        self._base = np.array([0] + [c.shape[1] for c in self._codes]).cumsum()
        self._group_starts = [g.starts for g in groups]
        self._group_of: list[np.ndarray] = []  # row -> its group, -1 when dead
        for u, g in enumerate(groups):
            of = np.full(self._codes[u].shape[1], -1)
            of[g.rows] = np.arange(len(g.keys)).repeat(g.starts[1:] - g.starts[:-1])
            self._group_of.append(of)
        self._joined: list = [None] * len(groups)  # built by `_lower` when first needed
        charged = [self._charge(u, rows) for u, rows in enumerate(self._live)]
        self._cover = _CoverIndex(
            np.concatenate([pids for _, pids in charged]),
            np.concatenate([self._base[u] + rows for u, (rows, _) in enumerate(charged)]),
            self._weight_of, self._points)
        self._annot: list = [None] * len(groups)  # an atom edge's list, a table's array
        self._score: list = [None] * len(groups)  # per atom edge, a list
        self._scores: list = [None] * len(groups)  # `_score` as arrays
        self._tops: list = [None] * len(groups)  # group -> top score, then a 0 for row -1
        self._best = [[] for _ in groups]  # group -> its top row
        self._weight_of = None

    def best(self, covered: Iterable | None = None):
        """Best (answer, gain) once the ground points in `covered` weigh 0,
        or None when the query has no answer.  Without `covered`, the
        balls of the answers committed so far weigh 0."""
        if self._best is None:
            self._index()
            if covered is None:
                self._rebuild()
        if covered is not None:
            covered = frozenset(covered)
            if self._region is not None and covered >= self._region:
                self._fresh.append(self._cover.cover(self._pids(covered - self._region)))
            else:
                self._cover.uncover()
                self._cover.cover(self._pids(covered))
                self._rebuild()
            self._region = covered
        for rows, weights in self._fresh:
            self._lower(rows, weights)
        self._fresh = []
        return self._answer()

    def commit(self, answer: Fact) -> None:
        """Cover the ball of `answer`, the answer the last `best` returned;
        the next `best` lowers the rows holding its newly covered points."""
        self._fresh.append(self._cover.cover(self._picked_ids()))
        self._region = None

    def _picked_ids(self) -> np.ndarray:
        """The ids of the points charged by the rows the last answer took:
        each atom row's fact and each witness-table row's facts."""
        n = len(self._atoms)
        ids = [np.array([facts[i] for facts, i in zip(self._ids, self._picked)], dtype=np.int64)]
        for (_, _, ptr, facts), i in zip(self._tables, self._picked[n:]):
            ids.append(facts[ptr[i]:ptr[i + 1]])
        return np.concatenate(ids)

    def _rescore(self, u: int, annot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score every row of edge `u`, its annotation in `annot` plus the
        top of each child group it joins, and take each group's first row
        of maximal score.  Sets the edge's tops; returns the scores and
        each group's top row."""
        score = annot.copy()
        for c in self._kids[u]:
            score += self._tops[c][self._join[c]]
        live, starts = self._live[u], self._group_starts[u]
        ranked = score[live]
        top = np.zeros(len(starts), dtype=self._cover.dtype)
        if len(live):
            top[:-1] = peak = np.maximum.reduceat(ranked, starts[:-1])
            at = (ranked == peak.repeat(starts[1:] - starts[:-1])).nonzero()[0]
            best = live[at[at.searchsorted(starts[:-1])]]
        else:
            best = live
        self._tops[u] = top
        self.rows_rescored += len(live)
        return score, best

    def _rebuild(self) -> None:
        self._fresh = []
        annots = self._cover.totals(self._base[-1])
        n = len(self._atoms)
        self._table_annot = annots[self._base[n]:]  # every table's annotations, lowered in place
        for u in reversed(self._order):
            annot = annots[self._base[u]:self._base[u + 1]]
            score, best = self._rescore(u, annot)
            if u < n:
                self._annot[u] = annot.tolist()
                self._score[u] = score.tolist()
                self._scores[u] = score
                self._best[u] = best.tolist()
            else:
                self._annot[u] = annot  # a view of `_table_annot`
                self._best[u] = best

    def _lower(self, slots: np.ndarray, weights: np.ndarray | None) -> None:
        n = len(self._atoms)
        edges = self._base.searchsorted(slots, "right") - 1
        # Per atom edge the rows to re-score, per table whether to re-score it.
        dirty: list = [set() for _ in range(n)] + [False] * len(self._tables)
        if self._tables:
            table = slots >= self._base[n]
            at = slots[table] - self._base[n]
            if weights is None:
                self._table_annot -= np.bincount(at, minlength=len(self._table_annot))
            else:
                np.subtract.at(self._table_annot, at, weights[table])
            for u in np.bincount(edges[table]).nonzero()[0].tolist():
                dirty[u] = True
            slots, edges = slots[~table], edges[~table]
            weights = None if weights is None else weights[~table]
        held = zip(edges.tolist(), (slots - self._base[edges]).tolist(),
                   repeat(1) if weights is None else weights.tolist())
        annot = self._annot
        for u, i, w in held:
            annot[u][i] -= w
            dirty[u].add(i)
        # Children before parents, so each row is re-scored at most once.
        for u in reversed(self._order):
            if u >= n:
                if dirty[u]:
                    before = self._tops[u]
                    _, self._best[u] = self._rescore(u, self._annot[u])
                    self._fell(u, (self._tops[u] < before).nonzero()[0].tolist(), dirty)
                continue
            ids = dirty[u]
            if not ids:
                continue
            ids = list(ids)
            rows = np.array(ids)
            score, best, tops = self._score[u], self._best[u], self._tops[u]
            top_before = {}
            for g in self._group_of[u][rows].tolist():
                if g not in top_before:
                    top_before[g] = score[best[g]]
            annot = self._annot[u]
            new = [annot[i] for i in ids]
            for c in self._kids[u]:
                new = [s + t for s, t in zip(new, self._tops[c][self._join[c][rows]].tolist())]
            for i, s in zip(ids, new):
                score[i] = s
            self._scores[u][rows] = new
            self.rows_rescored += len(ids)
            # Scores only fall, so a group changes only when its top row fell.
            starts = self._group_starts[u]
            fell = []
            for g, before in top_before.items():
                if score[best[g]] < before:
                    group = self._live[u][starts[g]:starts[g + 1]]
                    top = best[g] = (int(group[self._scores[u][group].argmax()])
                                     if len(group) > _PYTHON_MAX_ROWS else
                                     max(group.tolist(), key=score.__getitem__))
                    tops[g] = score[top]
                    if score[top] < before:
                        fell.append(g)
            self._fell(u, fell, dirty)

    def _fell(self, u: int, groups: list[int], dirty: list) -> None:
        """Mark for `_lower` what joins the groups `groups` of edge `u`,
        whose maximum fell: the parent rows joining them, or a parent
        witness table whole."""
        p = self._parents[u]
        if not groups or p is None:
            return
        if p >= len(self._atoms):
            dirty[p] = True
            return
        rows, first = self._parent_rows(u)
        for g in groups:
            dirty[p].update(rows[first[g]:first[g + 1]])

    def _parent_rows(self, u: int) -> tuple[list[int], list[int]]:
        """The live rows of `u`'s parent grouped by the group of `u` they
        join: group `g`'s are `rows[first[g]:first[g + 1]]`."""
        if self._joined[u] is None:
            rows = self._live[self._parents[u]]
            to = self._join[u][rows]
            by_group = _stable_order(to)
            self._joined[u] = (rows[by_group].tolist(), to[by_group].searchsorted(
                np.arange(len(self._group_starts[u]))).tolist())
        return self._joined[u]

    def _answer(self):
        total = 0
        picked: list = [None] * len(self._cols)
        assignment: dict = {}  # variable -> code
        for u in self._order:
            p = self._parents[u]
            if p is None:
                if not len(self._best[u]):
                    return None
                i = self._best[u][0]
                total += int(self._tops[u][0])
            else:
                i = self._best[u][self._join[u][picked[p]]]
            picked[u] = i
            assignment.update(zip(self._cols[u], self._codes[u][:, i].tolist()))
        self._picked, self._assignment = picked, assignment
        values = self.db.values
        answer = Fact(self.q.head_name,
                      tuple(values[assignment[hv]] for hv in self.q.head_vars))
        return answer, Fraction(total, self._cover.scale)


def _witness_table(q: ConjunctiveQuery, db: Database, atom_ids: list[int],
                   parents: list[int | None]):
    """Collapse one hanging component, the atoms `atom_ids` joined by the
    subtree `parents` of the query's join tree, into a table from its
    interface, the head variables it binds, to the facts of its witnesses.

    After the semijoin pass the top atom's live rows are grouped by
    interface tuple, one table row per tuple in value order, and `_fold`
    collects the facts of each table row's witnesses.  Returns the
    interface variables, their codes per table row (variables x rows),
    and each table row's witness facts as `Database.facts()` indexes in
    compressed sparse rows: row `r` has `ids[ptr[r]:ptr[r + 1]]`.
    """
    atoms = [q.atoms[i] for i in atom_ids]
    out = tuple(sorted({v for a in atoms for v in a.vars} & frozenset(q.head_vars)))
    root = parents.index(None)
    if not set(out) <= set(atoms[root].vars):  # pragma: no cover - running intersection
        raise AssertionError("a hanging component's top atom must cover its head interface")
    bags = [a.vars for a in atoms]
    radix = max(1, len(db.values))
    rows, codes = zip(*(_atom_rows(db, a) for a in atoms))
    _, kids, groups, join = _reduce(bags, codes, parents, radix)
    live = groups[root].rows
    interface = codes[root][[bags[root].index(v) for v in out]][:, live]
    (key,) = _pack([interface], radix)
    by_key = _stable_order(key)
    starts = _segments(key[by_key])
    n = len(starts) - 1
    ptr, ids = _fold(root, np.arange(n).repeat(starts[1:] - starts[:-1]), live[by_key], n, kids,
                     groups, join, [db.offset(a.relation) + r for a, r in zip(atoms, rows)])
    return out, interface[:, by_key[starts[:-1]]], ptr, ids


class TropicalPlan(_RankingPlan):
    """Next-answer ranking for positional volumes.

    Requires a full, acyclic query, and every atom is an edge.  Each head
    position is charged to the first atom containing its variable, so a
    row charges the (value, position) pairs of the head positions homed
    on its atom, and the marginal of an answer is exactly the sum of its
    rows' uncovered pairs.  Planning an atom that repeats a variable, or
    a projected head, as `ProvenancePlan` does would change which of
    several tied answers wins, and for projected heads even the total.
    """

    def __init__(self, q: ConjunctiveQuery, db: Database, volume: VolumeAssignment):
        if getattr(volume, "ball_fn", None) is not pos_ball:
            raise EngineCompatibilityError(
                f"value ranking supports positional volumes only, not {volume.name!r}")
        if not q.is_full:
            raise EngineCompatibilityError(
                "value ranking needs a full query (every body variable in the head)")
        if gyo_join_tree(q) is None:
            raise EngineCompatibilityError("value ranking needs an acyclic query")
        self.volume = volume
        super().__init__(q, db, range(len(q.atoms)), (),
                         getattr(volume.measure, "weight_of", None))

    def _charge(self, u, rows):
        # A head position's (value, position) point has the id
        # (position - 1) * radix + code, charged to the first atom holding its variable.
        pids = [(pos - 1) * self._radix + self._codes[u][self._cols[u].index(hv)][rows]
                for pos, hv in enumerate(self.q.head_vars, start=1)
                if next(e for e, c in enumerate(self._cols) if hv in c) == u]
        none = [rows[:0]]
        return np.concatenate([rows] * len(pids) or none), np.concatenate(pids or none)

    def _pids(self, points):
        return _point_ids(self._pid, points)

    def _pid(self, point):
        value, pos = point
        code = self.db.code(value)
        if code is None or not 1 <= pos <= len(self.q.head_vars):
            return None
        return (pos - 1) * self._radix + code

    def _points(self, pids):
        pos, code = np.divmod(pids, self._radix)
        return list(zip(map(self.db.values.__getitem__, code.tolist()), (pos + 1).tolist()))

    def _picked_ids(self):
        return np.array([pos * self._radix + self._assignment[hv]
                         for pos, hv in enumerate(self.q.head_vars)], dtype=np.int64)

    def next(self, selected: Iterable[Fact]):
        """Best (answer, marginal) with already-seen positions weighing 0."""
        return self.best(self.volume.covered(selected))


class ProvenancePlan(_RankingPlan):
    """Next-answer ranking for the witness-fact volume.

    Works on self-join-free free-connex queries, and plans once over the
    query's own join tree, `free_connex_split(q)`: the GYO tree rooted
    at its connex part, else the extended GYO tree.  The atoms of the
    connex part are edges whose rows charge their own fact; every other
    atom belongs to a hanging component, whose rows charge the facts of
    its witnesses.  Self-join-freeness makes those fact sets disjoint
    across edges, so the marginal of an answer is a sum of per-edge
    weights.  Such a tree always plans: a hanging component is a subtree
    of a join tree, so it is acyclic, and by running intersection its top
    atom holds its whole head interface; the projected hypergraph's
    primal graph is the body's restricted to the head variables, so it
    is chordal and conformal, hence acyclic.
    """

    def __init__(self, q: ConjunctiveQuery, db: Database, *,
                 weight_of: Callable | None = None):
        if not q.is_self_join_free:
            raise EngineCompatibilityError(
                "provenance ranking needs a self-join-free query")
        split = free_connex_split(q)
        if split is None:
            raise EngineCompatibilityError(
                "provenance ranking needs an acyclic query" if gyo_join_tree(q) is None
                else "provenance ranking needs a free-connex query: no connected "
                     "subtree of bags covers exactly the head variables")
        super().__init__(q, db, *split, weight_of)

    def next(self, covered: frozenset):
        """Best (answer, gain) where a fact weighs 0 once covered."""
        return self.best(covered)

    def provenance_of(self, answer: Fact) -> frozenset:
        """Union of facts over the answer's witnesses, by per-edge lookup."""
        q = self.q
        if answer.relation != q.head_name or answer.arity != len(q.head_vars):
            raise InputError(f"{answer!r} does not have the query's head shape")
        binding: dict = {}
        for hv, val in zip(q.head_vars, answer.values):
            if binding.setdefault(hv, val) != val:
                raise InputError(f"{answer!r} is not an answer of the query")
        facts = {Fact(a.relation, tuple(binding[v] for v in a.vars))
                 for a in map(q.atoms.__getitem__, self._atoms)}
        rows = [self.db.find_row(keys, [binding[v] for v in out])
                for out, keys, _, _ in self._tables]
        if None in rows or any(f not in self.db for f in facts):
            raise InputError(f"{answer!r} is not an answer of the query")
        for (_, _, ptr, ids), row in zip(self._tables, rows):
            facts.update(self.db.facts_at(ids[ptr[row]:ptr[row + 1]]))
        return frozenset(facts)


# ---------------------------------------------------------------------------
# End-to-end greedy


def greedy_combined(q: ConjunctiveQuery, db: Database, k: int,
                    volume: VolumeAssignment | None = None,
                    engine: str = "auto") -> DiverseResult:
    """Greedy diversification driven by a next-answer oracle.

    `engine` picks the oracle: "naive" materializes the answers,
    "tropical" ranks positional volumes incrementally, "provenance"
    ranks the witness-fact volume (the default) incrementally, and
    "auto" tries the ranker that the volume calls for before falling
    back to naive.  The volume's balls decide which ranker that is, not
    its name: the tropical ranker serves only `pos_ball`, the balls of
    `pos_volume` and `pos_weighted`, and the provenance ranker only no
    volume or one whose balls `provenance_volume` built for this `q` and
    `db`.  Every other volume runs naive, a provenance volume of another
    query or database included.  Both rankers plan over the query's own
    join tree.
    Every engine runs one round loop over a step's `best()` and
    `commit(answer)`: the naive engine's `_GreedyStep` or a ranker's plan,
    which keeps its covered region as point ids and commits a pick from
    the rows its dynamic program chose.  A volume that is not discrete
    runs the naive engine as `_objective_greedy` over its round scorer.
    Rounds stop at the first round whose best gain is 0, which is exactly
    when no answer adds volume.  The result's `engine` names the engine
    that ran.
    """
    if engine not in ENGINES:
        raise InputError(f"unknown engine {engine!r}")
    if k <= 0:
        return _make_result((), ())

    def run(best: Callable, commit: Callable):
        def gainful(picks):
            hit = best()
            return hit if hit is not None and hit[1] > 0 else None
        return _greedy(k, gainful, commit)

    balls = getattr(volume, "ball_fn", None)
    if volume is None or getattr(balls, "source", None) == (q, db):
        ranker = "provenance"
    elif balls is pos_ball:
        ranker = "tropical"
    else:
        ranker = "naive"
    if engine in ("tropical", "provenance") and engine != ranker:
        got = "none" if volume is None else repr(volume.name)
        raise EngineCompatibilityError(
            f"the provenance engine ranks the witness-fact volume; got the {got} volume"
            if engine == "provenance" else
            f"value ranking supports positional volumes only, not {got}")
    if ranker != "naive" and engine in ("auto", ranker):
        try:
            plan = (TropicalPlan(q, db, volume) if ranker == "tropical" else
                    ProvenancePlan(q, db, weight_of=getattr(
                        getattr(volume, "measure", None), "weight_of", None)))
        except EngineCompatibilityError:
            if engine == ranker:
                raise
        else:
            return _make_result(*run(plan.best, plan.commit), engine=ranker)

    if volume is None:
        volume = provenance_volume(q, db)
        answers = volume.universe  # the volume evaluated the query
    else:
        answers = enumerate_answers(q, db).answers
    if not volume.is_discrete:
        res = _objective_greedy(answers, k, _round_scorer(volume))
        stop = next((i for i, g in enumerate(res.gains) if g <= 0), len(res))
        return _make_result(res.selected[:stop], res.gains[:stop], engine="naive")
    step = _GreedyStep(answers, volume)
    return step.result(*run(step.best, step.commit), engine="naive")
