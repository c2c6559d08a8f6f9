"""Volume-based diversity: balls, measures, and built-in assignments.

A discrete volume assignment maps a tuple to a finite region (a ball)
over some ground-point space; the diversity of a set is the measure of
the union of its balls.  That shape makes every diversity function here
monotone and submodular by construction, and marginal gains are plain
measures of set differences rather than re-evaluations.  The provenance
volume takes its answers and balls from the evaluator in `engine`; over
an acyclic body it keeps its answers as head codes, as `enumerate_answers`
does, and each ball factorised (`ProvenanceBalls`): the answer's own row
of database fact ids, plus the fold of every hanging subtree it joins,
kept once per group of that subtree and shared by its answers.
Materialized greedy finds the answers by code and scores the rows and
folds as they are.  It decodes a ball into a frozenset of facts only
when `ball` asks for it, and the answers into `Fact`s only when its
universe is iterated.

All discrete arithmetic is exact: a weighted measure stores its weights
as Fractions and measures return Fractions.  Materialized greedy and the
join-tree rankers in `optimize` add integers instead, over integer point
ids: `scaled_weights` reads point weights through
`WeightedMeasure.weight_of` and scales them by the lcm of their
denominators, and each converts back to Fractions at its result.  The
only floating-point path is the Monte-Carlo estimator for Euclidean ball
unions; greedy scores each of its rounds in one pass over the same slab
test, `EuclideanBallVolume.round_diversities`, and a ball alone, as in
greedy's first round, is counted from a table of the draw's points near
the unit sphere, cached with the draw.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import AbstractSet, Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from . import engine
from .errors import InputError, LimitExceededError, LoadError, UniverseError
from .query import gyo_join_tree
from .relcore import Database, Fact

MC_SAMPLES_CAP = 10**8


class CountMeasure:
    """Counting measure: every ground point weighs 1."""

    kind = "count"

    def of(self, region: frozenset) -> Fraction:
        return Fraction(len(region))

    def __repr__(self):
        return "CountMeasure()"


def _exact(w) -> Fraction:
    """A point weight as an exact Fraction; anything but a finite number
    is an input error."""
    if isinstance(w, numbers.Number):
        try:
            return Fraction(w)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InputError(f"point weights must be finite numbers, not {w!r}")


@dataclass(frozen=True)
class WeightedMeasure:
    """Finite weighted measure with a default weight for unlisted points."""

    weights: Mapping[Hashable, Fraction]
    default: Fraction = Fraction(1)

    def __post_init__(self):
        # Stored exact, so every engine adds the same Fractions
        object.__setattr__(self, "default", _exact(self.default))
        object.__setattr__(self, "weights",
                           {point: _exact(w) for point, w in self.weights.items()})
        if self.default < 0:
            raise InputError("default point weight must be non-negative")
        for point, w in self.weights.items():
            if w < 0:
                raise InputError(f"negative weight for point {point!r}")

    kind = "weighted"

    def weight_of(self, point) -> Fraction:
        return self.weights.get(point, self.default)

    def of(self, region: frozenset) -> Fraction:
        total = Fraction(0)
        for point in region:
            total += self.weights.get(point, self.default)
        return total


def scaled_weights(weight_of: Callable, points: Iterable) -> tuple[dict, int]:
    """Integer point weights over one common denominator.

    Reads each point's weight as an exact Fraction, rejects a negative
    one, and scales all of them by the lcm of their denominators.
    Returns ({point: weight * scale}, scale); every weight is an int.
    """
    exact = {point: Fraction(weight_of(point)) for point in points}
    if any(w < 0 for w in exact.values()):
        raise InputError("point weights must be non-negative")
    scale = math.lcm(*(w.denominator for w in exact.values()))
    return {point: w.numerator * (scale // w.denominator) for point, w in exact.items()}, scale


@dataclass(frozen=True)
class VolumeAssignment:
    """Discrete volume assignment: ball function plus measure."""

    name: str
    ball_fn: Callable[[Hashable], frozenset]
    measure: CountMeasure | WeightedMeasure
    universe: AbstractSet | None = None

    is_discrete = True

    def ball(self, t) -> frozenset:
        if self.universe is not None and t not in self.universe:
            raise UniverseError(f"{t!r} is outside the universe of the {self.name} volume")
        return self.ball_fn(t)

    def covered(self, s: Iterable) -> frozenset:
        region: set = set()
        for t in s:
            region |= self.ball(t)
        return frozenset(region)

    def diversity(self, s: Iterable) -> Fraction:
        """Measure of the union of balls; 0 on the empty set."""
        return self.measure.of(self.covered(s))

    def marginal(self, s: Iterable, t) -> Fraction:
        """Gain of adding t: the measure of ball(t) minus the covered region."""
        return self.measure.of(self.ball(t) - self.covered(s))

    def marginal_given_covered(self, covered: frozenset, t) -> Fraction:
        return self.measure.of(self.ball(t) - covered)

    def sym_diff_distance(self, a, b) -> Fraction:
        """Measure of the symmetric difference of the two balls (pseudo-metric)."""
        return self.measure.of(self.ball(a) ^ self.ball(b))

    def marginal_distance(self, a, b) -> Fraction:
        """diversity({a,b}) - diversity({b}); asymmetric in general."""
        return self.diversity((a, b)) - self.diversity((b,))


def elem_volume() -> VolumeAssignment:
    """Ball of a tuple = the set of values it contains."""
    return VolumeAssignment("elem", lambda t: frozenset(t.values), CountMeasure())


def pos_ball(t) -> frozenset:
    """A tuple's (value, position) pairs, positions 1-based: the one ball
    function of `pos_volume` and `pos_weighted`, by which `greedy_combined`
    knows that the tropical ranker computes a volume's marginals."""
    return frozenset((v, i + 1) for i, v in enumerate(t.values))


def pos_volume() -> VolumeAssignment:
    """Ball of a tuple = its (value, position) pairs, positions 1-based."""
    return VolumeAssignment("pos", pos_ball, CountMeasure())


def elem_weighted(weights: Mapping, default=Fraction(1)) -> VolumeAssignment:
    measure = WeightedMeasure(weights, default)
    return VolumeAssignment("elem-w", lambda t: frozenset(t.values), measure)


def pos_weighted(weights: Mapping, default=Fraction(1)) -> VolumeAssignment:
    measure = WeightedMeasure(weights, default)
    return VolumeAssignment("pos-w", pos_ball, measure)


class ProvenanceBalls(engine.CodedAnswers):
    """The provenance volume's ball function over an acyclic body, and its
    universe: as a set, it holds the query's answers as head codes, in
    value order, as any `CodedAnswers` does.

    Answer `j`, the codes `heads[:, j]`, has its ball factorised, as
    `engine._tree_balls` builds it: its own row of `Database.facts()` ids
    of `db` and one group of each of its shared folds, the folds of skipped
    subtrees, which every answer joining that group references instead of
    holding a copy; `balls` is the `engine._Balls` that holds them.  The parts
    are disjoint and the ball is their union.  Greedy finds answers' rows
    with `rows` and scores the parts as they are (`parts`).  `ptr` and
    `ids` are every answer's whole ball as one ascending row,
    `ids[ptr[j]:ptr[j + 1]]`, built on first access, under the witness
    pair cap.  Calling it with an answer decodes that answer's union into
    a frozenset of facts, once, and keeps it; `in` finds a kept answer
    without a search.  `source` is `(q, db)`.
    """

    def __init__(self, q, balls: engine._Balls, db: Database):
        super().__init__(q.head_name, balls.heads, db)
        self.source = (q, db)
        self.balls = balls
        self._decoded: dict = {}

    @functools.cached_property
    def _whole(self) -> tuple[np.ndarray, np.ndarray]:
        return engine._ball_rows(self.balls, max(1, self.db.fact_count()))

    @property
    def ptr(self) -> np.ndarray:
        return self._whole[0]

    @property
    def ids(self) -> np.ndarray:
        return self._whole[1]

    def parts(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The balls of the answers `rows` as disjoint parts: first each
        answer's own row, in the order of `rows`, then once each group of a
        shared fold that one of them joins.  Returns `(ptr, ids, refs)`:
        part `p` has the fact ids `ids[ptr[p]:ptr[p + 1]]`, and answer
        `rows[i]`'s ball is the union of part `i` and the parts `refs[:, i]`,
        one per shared fold."""
        sources = [(self.balls.ptr, self.balls.ids, rows)]  # (ptr, ids, taken rows) per part kind
        refs = np.zeros((len(self.balls.shared), len(rows)), dtype=np.int64)
        count = len(rows)
        for s, fold in enumerate(self.balls.shared):
            groups, refs[s] = np.unique(fold.group[rows], return_inverse=True)
            refs[s] += count
            count += len(groups)
            sources.append((fold.ptr, fold.ids, groups))
        firsts = [ptr[at] for ptr, _, at in sources]
        sizes = [ptr[at + 1] - first for (ptr, _, at), first in zip(sources, firsts)]
        ids = np.concatenate([ids[engine._ranges(first, size)]
                              for (_, ids, _), first, size in zip(sources, firsts, sizes)])
        return np.concatenate(([0], np.concatenate(sizes).cumsum())), ids, refs

    def __contains__(self, t) -> bool:
        # `VolumeAssignment.ball` asks before every call: a decoded ball answers
        # without a search, which exact mode's many `diversity` calls need.
        return (self._values(t) is not None and t in self._decoded) or super().__contains__(t)

    def __call__(self, t: Fact) -> frozenset:
        got = self._decoded.get(t)
        if got is None:
            r = self._row(t)
            if r is None:
                raise UniverseError(f"{t!r} is not an answer of the query")
            _, ids, _ = self.parts(np.array([r]))
            got = self._decoded[t] = frozenset(self.db.facts_at(np.sort(ids)))
        return got


def provenance_volume(q, db: Database) -> VolumeAssignment:
    """Ball of an answer = all database facts appearing in any witness.

    Materializes the answer set and its provenance once; the universe is
    exactly the query's answers, and asking for anything else is an error.
    An acyclic body gets both as arrays from its join tree
    (`engine._tree_balls`), kept as the head codes, own fact-id rows and
    shared subtree folds of a `ProvenanceBalls`, which is also the
    universe; no ball is copied out whole.  A cyclic body gets
    both from one backtracking pass over every homomorphism, up to the
    extension cap of `provenance_map`.
    Either ball function carries `source = (q, db)`, by which
    `greedy_combined` knows that the provenance ranker computes the
    volume's marginals.
    """
    parents = gyo_join_tree(q)
    if parents is not None:
        balls = ProvenanceBalls(q, engine._tree_balls(q, parents, db), db)
        return VolumeAssignment("provenance", balls, CountMeasure(), universe=balls)
    prov = engine.provenance_map(q, db)

    def ball(t: Fact) -> frozenset:
        try:
            return prov[t]
        except KeyError:
            raise UniverseError(f"{t!r} is not an answer of the query") from None

    ball.source = (q, db)
    return VolumeAssignment("provenance", ball, CountMeasure(), universe=frozenset(prov))


# ---------------------------------------------------------------------------
# Euclidean balls (continuous, Monte-Carlo)


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float


@dataclass(frozen=True)
class ContinuousBallSet:
    """Equal-radius closed balls around numeric centers."""

    centers: tuple[tuple[float, ...], ...]
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise InputError("ball radius must be positive")
        if not self.centers:
            raise InputError("a continuous ball set needs at least one center")
        dims = {len(c) for c in self.centers}
        if len(dims) != 1:
            raise InputError("ball centers must share one dimension")
        if dims == {0}:
            raise InputError("ball centers need at least one coordinate; "
                             "a nullary head gives none")

    @property
    def dimension(self) -> int:
        return len(self.centers[0])


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise InputError("sample count must be positive")
    if samples > MC_SAMPLES_CAP:
        raise LimitExceededError(
            f"{samples} Monte-Carlo samples exceed the cap of {MC_SAMPLES_CAP}")


def _interval_union_length(balls: ContinuousBallSet) -> float:
    points = sorted(c[0] for c in balls.centers)
    r = balls.radius
    total = 0.0
    cur_lo = points[0] - r
    cur_hi = points[0] + r
    for x in points[1:]:
        lo, hi = x - r, x + r
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return total + (cur_hi - cur_lo)


_BATCH = 1 << 18


@functools.lru_cache(maxsize=1)
def _cached_unit_draw(seed: int, samples: int, dim: int) -> np.ndarray:
    """`rng.random((samples, dim))` with its rows sorted by their first
    coordinate, stored one axis per row as a read-only (dim, samples)
    array.  Greedy asks for the same one-batch draw on every call, so it
    is drawn and sorted once; `_cached_shell` reads it too."""
    unit = np.random.default_rng(seed).random((samples, dim))
    draw = np.take(unit.T, np.argsort(unit[:, 0]), axis=1)
    draw.flags.writeable = False
    return draw


_SHELL = 2.0 ** -10


@functools.lru_cache(maxsize=1)
def _cached_shell(seed: int, samples: int, dim: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Where the cached draw lies against the unit ball of its cube.

    A point `u` of `_cached_unit_draw(seed, samples, dim)` has
    rho(u) = sum_j (2 u_j - 1)**2, added up axis by axis in floats.
    Returns how many points have rho < 1 - _SHELL, then the ids of the
    points with |rho - 1| <= _SHELL and their rho - 1, both by ascending
    rho, read-only.  That shell is at most about 0.15% of the draw, so the
    table stays small; building it holds two samples-long buffers."""
    unit = _cached_unit_draw(seed, samples, dim)
    rho = np.zeros(samples)
    term = np.empty(samples)
    for axis in unit:
        np.multiply(axis, 2.0, out=term)
        term -= 1.0
        term *= term
        rho += term
    rho -= 1.0  # exact near the shell, where rho lies in [1/2, 2]
    below = int(np.count_nonzero(rho < -_SHELL))
    ids = np.flatnonzero(np.abs(rho, out=term) <= _SHELL)
    order = np.argsort(rho[ids], kind="stable")
    ids = ids[order]
    offsets = rho[ids]
    ids.flags.writeable = offsets.flags.writeable = False
    return below, ids, offsets


def _unit_draws(seed: int, samples: int, dim: int):
    """The estimate's unit draws as (dim, n) arrays of at most 2**18
    points each, with whether each is sorted by its first coordinate.
    A single-batch draw is sorted once and cached.  A larger draw is
    drawn batch by batch on every call and left unsorted: sorting every
    batch again would cost more than the center tests it saves, and
    caching them all would take O(samples * d) memory."""
    if samples <= _BATCH:
        yield _cached_unit_draw(seed, samples, dim), True
        return
    rng = np.random.default_rng(seed)
    for start in range(0, samples, _BATCH):
        yield rng.random((min(_BATCH, samples - start), dim)).T, False


def _slab_reach(r: float) -> float:
    """Half-width of the first-axis slab around a center that holds every
    point passing `d2 <= r * r`: r * 1e-9 covers the rounding of the
    difference and of the squares, and 2**-536 a square that is subnormal."""
    return r * (1 + 1e-9) + 2.0 ** -536


def _box_points(unit: np.ndarray, first: np.ndarray, lo: np.ndarray,
                width: np.ndarray, a: int, b: int):
    """Points a..b of a (d, n) unit draw mapped to the box as
    `Generator.uniform(lo, hi)` maps them, given the mapped first axis:
    a list of one array per axis below 8 dimensions, an (n, d) array of
    C-ordered rows from 8 on."""
    if len(lo) < 8:
        return [first[a:b]] + [lo[j] + width[j] * unit[j, a:b] for j in range(1, len(lo))]
    return lo + width * np.ascontiguousarray(unit[:, a:b].T)


def _in_ball(pts: np.ndarray, c: np.ndarray, r: float) -> np.ndarray:
    """Which of `_box_points`' points lie in the radius-r ball around c,
    with each squared distance added up in the order numpy's
    `.sum(axis=-1)` uses over an (n, d) array."""
    if len(c) < 8:
        # below 8 terms numpy's row sum is a plain left fold: fold the axes
        d2 = (pts[0] - c[0]) ** 2
        for j in range(1, len(c)):
            d2 += (pts[j] - c[j]) ** 2
    else:
        # numpy's row sum adds 8 or more terms pairwise: let it sum them
        d2 = ((pts - c) ** 2).sum(axis=1)
    return d2 <= r * r


def _union_hits(unit: np.ndarray, is_sorted: bool, lo: np.ndarray, width: np.ndarray,
                held: np.ndarray, cands: np.ndarray, r: float) -> list[int]:
    """How many points of the draw, mapped to the box, lie in some ball
    around `held`, then for each of `cands` how many lie in its ball or
    one around `held`.  Each center tests only its slab; the held balls'
    hits are OR-ed into one mask, and a candidate counts what it adds."""
    # lo + width * unit is what Generator.uniform(lo, hi) computes; it
    # keeps the draw's order, so sorted first coordinates stay sorted
    first = lo[0] + width[0] * unit[0]
    centers = np.concatenate([held, cands])
    if is_sorted:  # each center's slab is one binary search away
        reach = _slab_reach(r)
        starts = np.searchsorted(first, centers[:, 0] - reach, side="left").tolist()
        stops = np.searchsorted(first, centers[:, 0] + reach, side="right").tolist()
    else:  # an unsorted batch is one slab that every center tests
        starts, stops = [0] * len(centers), [len(first)] * len(centers)
    covered = np.zeros(len(first), dtype=bool)
    added = []
    slab = None
    for i, (c, a, b) in enumerate(zip(centers, starts, stops)):
        if slab != (a, b):  # map each slab to the box once
            slab, pts = (a, b), _box_points(unit, first, lo, width, a, b)
        inside = _in_ball(pts, c, r)
        if i < len(held):
            covered[a:b] |= inside
        else:
            added.append(int(np.count_nonzero(inside > covered[a:b])))
    base = int(np.count_nonzero(covered))
    return [base] + [base + n for n in added]


def _shell_reach(m: float, r: float, d: int) -> float:
    """Half-width, around 1, of the band of rho that `_lone_ball_hits`
    tests point by point.  Take the one ball of radius r around a center
    c with m = max_j |c_j|, over the box `_boxes` gives it (lo = c - r,
    width = (c + r) - lo).  A draw point u whose computed rho(u) lies
    below 1 - reach passes `_in_ball`, and one above 1 + reach fails it,
    while the reach is at most _SHELL and r*r is a normal float.

    Each float operation is exact up to a factor (1 + t), |t| <= eps =
    2**-53.  A sum that is subnormal is exact, and a subnormal product is
    off by at most 2**-1075, which is at most eps*r*r.  On axis j, write
    v = u_j and t = r(2v - 1), the exact offset of the mapped point from
    c_j, so that the exact squared distance is r*r*rho(u):

    - lo = c_j - r + a and c_j + r rounds to c_j + r + b, with |a| and |b|
      at most eps(m + r), so |a(1 - v) + b*v| <= eps(m + r);
    - width = 2r + b - a + g with |g| <= 2eps*r, and |g*v| <= 2eps*r;
    - width*v, at most 2r, is off by at most 2eps*r;
    - lo + width*v, at most m + r in size, by at most eps(m + r);
    - x - c_j, at most r in size, by at most eps*r.

    So the computed difference is t + e_j with |e_j| <= e*r, where
    e = eps(2m/r + 7), up to a factor (1 + 8eps) from second-order terms.
    By Cauchy-Schwarz sum_j |t| <= r*sqrt(d*rho), so the squared
    differences add up to r*r*(rho +- (2e*sqrt(d*rho) + d*e*e)).  Squaring
    and adding the d terms, in any order (numpy's pairwise row sum
    included), moves that by at most d*eps times itself, plus d*eps*r*r
    for subnormal squares.  r*r rounds by at most eps*r*r.  The computed
    rho, the squares of the exact 2v - 1 added in order, is within
    d*eps*rho of the exact one.  Both sides of the test grow with rho, so
    the bound at rho <= 1 + _SHELL decides every point outside the band
    once, to first order in eps,

        reach >= 2e*sqrt(d*(1 + _SHELL)) + d*e*e + (3d + 1)*eps.

    The reach below adds (d + 1)*eps for the second-order terms in eps.
    Its factor (1 + _SHELL) covers d*e*e, which is at most _SHELL/4 of
    2e*sqrt(d) while the reach is at most _SHELL, the (1 + 8eps), and the
    rounding of this function's own arithmetic."""
    eps = 2.0 ** -53
    e = eps * (2 * m / r + 7)
    return (1 + _SHELL) * (2 * e * math.sqrt(d * (1 + _SHELL)) + (4 * d + 2) * eps)


def _lone_ball_hits(c: np.ndarray, r: float, lo: np.ndarray, width: np.ndarray,
                    seed: int, samples: int) -> int | None:
    """How many points of the draw, mapped to the box `lo`, `width` of the
    one ball of radius r around c, lie in it: the points of the cached
    shell table below 1 - `_shell_reach`, found by one search, plus those
    of the shell within the reach that pass the slab path's own float
    test.  None when the table cannot decide: a reach beyond the table's
    _SHELL, a radius whose square is not a normal float, a draw above one
    batch (it is not cached), or one dimension (swept exactly)."""
    d = len(c)
    if d == 1 or samples > _BATCH or not 2.0 ** -1022 <= r * r < math.inf:
        return None
    reach = _shell_reach(float(np.abs(c).max()), r, d)
    if not reach <= _SHELL:
        return None
    below, ids, offsets = _cached_shell(seed, samples, d)
    a = int(offsets.searchsorted(-reach, side="left"))
    b = int(offsets.searchsorted(reach, side="right"))
    unit = _cached_unit_draw(seed, samples, d)[:, ids[a:b]]
    first = lo[0] + width[0] * unit[0]
    inside = _in_ball(_box_points(unit, first, lo, width, 0, b - a), c, r)
    return below + a + int(np.count_nonzero(inside))


def _boxes(low: np.ndarray, high: np.ndarray, r: float):
    """Corner, widths and volume of the box from `low - r` to `high + r`,
    one per row of `low` and `high`; a volume that overflows is an input
    error."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        lo = low - r
        width = (high + r) - lo
        box = np.prod(width, axis=-1)
    if not np.isfinite(box).all():
        raise InputError(f"radius-{r!r} balls around these centers span no finite box volume")
    return lo, width, box


def mc_ball_union_volume(balls: ContinuousBallSet, samples: int, seed: int = 0) -> MCEstimate:
    """Volume of a union of equal-radius balls.

    Dimension 1 is computed exactly by interval sweeping (stderr 0).
    Higher dimensions sample uniformly from the bounding box with a
    seeded generator, so results are deterministic per seed.  A draw of
    at most 2**18 points is sorted by its first coordinate and cached, so
    its O(n log n) sort is paid once per (seed, samples, d).  A center is
    then tested only against the slab of points whose first coordinate
    lies within the radius of its own, found by binary search, and the
    hits are OR-ed into one mask: a call costs O(samples + sum of slab
    sizes * d).  A lone ball, balls with one distinct center, costs
    O(log samples + shell * d) instead: its box maps the draw point u to
    the ball exactly when rho(u) = sum_j (2 u_j - 1)**2 <= 1, so the
    points with rho below 1 - `_shell_reach` are counted by one search of
    the shell table cached with the draw (`_cached_shell`), and only the
    shell points within that reach take the float test; centers too far
    out for the table, a radius whose square is not a normal float, and
    larger draws take the slab path.  A larger draw is drawn again on
    every call in batches of 2**18 that are not sorted, and every center
    is tested against every point, in O(samples * centers * d).  Memory
    is O(2**18 * d) either way.  Each squared distance is added up in the
    order numpy's `.sum(axis=-1)` uses, so the estimate is the same float
    as a nearest-center test over `Generator.uniform` points.  A sample count
    above MC_SAMPLES_CAP is a LimitExceededError; a union length or
    bounding-box volume that overflows a float is an input error.
    """
    _check_samples(samples)
    if seed < 0:
        raise InputError("seed must be non-negative")
    r = float(balls.radius)
    if balls.dimension == 1:
        length = _interval_union_length(balls)
        if not math.isfinite(length):
            raise InputError(f"radius-{r!r} intervals around these centers have no finite length")
        return MCEstimate(length, 0.0)
    centers = np.asarray(balls.centers, dtype=float)
    lo, width, box = _boxes(centers.min(axis=0), centers.max(axis=0), r)
    hits = None
    if (centers == centers[0]).all():
        hits = _lone_ball_hits(centers[0], r, lo, width, seed, samples)
    if hits is None:
        hits = sum(_union_hits(unit, is_sorted, lo, width, centers, centers[:0], r)[0]
                   for unit, is_sorted in _unit_draws(seed, samples, balls.dimension))
    p = hits / samples
    box = float(box)
    value = box * p
    stderr = box * (p * (1 - p) / samples) ** 0.5
    return MCEstimate(value, stderr)


@dataclass(frozen=True)
class EuclideanBallVolume:
    """Diversity as Lebesgue volume of radius-r balls around numeric tuples.

    Each answer's center is converted to floats once per volume and kept.
    Greedy scores a round with `round_diversities`, not per candidate."""

    radius: float
    samples: int = 200_000
    seed: int = 0
    _centers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    name = "ball"
    is_discrete = False

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise InputError("ball radius must be positive and finite")
        _check_samples(self.samples)
        if self.seed < 0:
            raise InputError("seed must be non-negative")

    def center(self, t: Fact) -> tuple[float, ...]:
        got = self._centers.get(t)
        if got is not None:
            return got
        if not all(v.is_number for v in t.values):
            raise InputError(f"{t!r} has non-numeric values; ball volumes need numbers")
        try:
            got = self._centers[t] = tuple(float(v.payload) for v in t.values)
        except OverflowError:
            raise InputError(f"{t!r} has a value too large for a ball center") from None
        return got

    def ball(self, t: Fact) -> ContinuousBallSet:
        return ContinuousBallSet((self.center(t),), self.radius)

    def ball_set(self, s: Iterable) -> ContinuousBallSet | None:
        centers = tuple(sorted({self.center(t) for t in s}))
        if not centers:
            return None
        return ContinuousBallSet(centers, self.radius)

    def diversity_estimate(self, s: Iterable) -> MCEstimate:
        balls = self.ball_set(s)
        if balls is None:
            return MCEstimate(0.0, 0.0)
        return mc_ball_union_volume(balls, self.samples, self.seed)

    def diversity(self, s: Iterable) -> float:
        return self.diversity_estimate(s).value

    def round_diversities(self, picks: Iterable, candidates: Sequence) -> list[float]:
        """`[self.diversity(list(picks) + [t]) for t in candidates]`, the
        same floats and errors, in one pass over the draw: the candidates'
        boxes come from one array min/max/prod, and `_union_hits` scores
        the candidates of each distinct box.  A box of one distinct
        center, as every box of a round without picks is, is counted from
        the shell table as `mc_ball_union_volume` counts a lone ball.  Any
        other box costs about one estimate over the picks plus one slab
        test per candidate, and holds one mask of the draw at a time.  A
        draw above 2**18 samples runs this once per batch; one dimension
        keeps the exact interval sweep, per candidate."""
        picks = list(picks)
        if not candidates:
            return []
        held = sorted({self.center(t) for t in picks})
        cands = [self.center(t) for t in candidates]
        dims = {len(c) for c in held + cands}
        if len(dims) != 1 or dims <= {0, 1}:  # errors and intervals, as `diversity` has them
            return [self.diversity(picks + [t]) for t in candidates]
        r = float(self.radius)
        held = np.array(held, dtype=float).reshape(-1, dims.pop())
        cands = np.array(cands, dtype=float)
        low = np.minimum(held.min(axis=0, initial=math.inf), cands)
        high = np.maximum(held.max(axis=0, initial=-math.inf), cands)
        lo, width, box = _boxes(low, high, r)
        by_box: dict = {}
        for i, key in enumerate(map(bytes, np.concatenate([low, high], axis=1))):
            by_box.setdefault(key, []).append(i)
        hits = [0] * len(cands)
        boxes = []
        for same in by_box.values():
            g = same[0]
            lone = None
            if (held == cands[g]).all():  # each of the box's candidates is its one center
                lone = _lone_ball_hits(cands[g], r, lo[g], width[g], self.seed, self.samples)
            if lone is None:
                boxes.append(same)
            else:
                for i in same:
                    hits[i] = lone
        for unit, is_sorted in _unit_draws(self.seed, self.samples, cands.shape[1]):
            for same in boxes:
                g = same[0]
                got = _union_hits(unit, is_sorted, lo[g], width[g], held, cands[same], r)
                for i, h in zip(same, got[1:]):
                    hits[i] += h
        return [v * (h / self.samples) for v, h in zip(box.tolist(), hits)]

    def marginal(self, s: Iterable, t) -> float:
        items = list(s)
        return self.diversity(items + [t]) - self.diversity(items)


# ---------------------------------------------------------------------------
# Multi-attribute utility weights


def read_json(path: Path, what: str):
    """A JSON file's document, numbers read as exact Fractions."""
    if not path.is_file():
        raise LoadError(f"missing {what} file {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"),
                          parse_float=Fraction, parse_int=Fraction)
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path}: invalid JSON ({exc})") from None


def json_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise InputError(f"{what} must be a list, not {x!r}")
    return x


def json_label(x) -> str:
    """A member or leaf label: a JSON string, or a number read as its text."""
    if not isinstance(x, (str, Fraction)):
        raise InputError(f"members and labels must be strings or numbers, not {x!r}")
    return str(x)


def json_fraction(x, what: str) -> Fraction:
    """A JSON number, or a string that Fraction parses; never a bool."""
    if isinstance(x, (str, Fraction)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"{what} must be numbers or numeric strings, not {x!r}")


@dataclass(frozen=True)
class MultiAttributeWeights:
    """Non-negative weights on attribute subsets of a finite universe.

    The utility of a selection S is the total weight of subsets S
    intersects; an element of S outside the universe is a UniverseError,
    as in the volume built from the weights.  Kept sparse: only listed
    subsets are stored.  A zero weight is kept as given; it adds nothing
    to any utility, and `convert` leaves it out of its weights table.
    """

    universe: tuple
    weights: Mapping[frozenset, Fraction]

    def __post_init__(self):
        ground = frozenset(self.universe)
        if len(ground) != len(self.universe):
            raise InputError("universe elements must be distinct")
        for a, w in self.weights.items():
            if not a:
                raise InputError("the empty attribute set cannot carry weight")
            if not a <= ground:
                raise InputError(f"attribute set {sorted(map(repr, a))} leaves the universe")
            if w < 0:
                raise InputError("attribute weights must be non-negative")

    def diversity(self, s: Iterable) -> Fraction:
        chosen = frozenset(s)
        outside = chosen.difference(self.universe)
        if outside:
            raise UniverseError(f"{', '.join(sorted(map(repr, outside)))} outside the universe")
        total = Fraction(0)
        for a, w in self.weights.items():
            if a & chosen:
                total += w
        return total

    @classmethod
    def from_json(cls, path) -> "MultiAttributeWeights":
        """Read `{"universe": [...], "lambda": [{"set": [...], "weight": w}]}`.

        Anything malformed is a LoadError that names the file.
        """
        path = Path(path)
        data = read_json(path, "multi-attribute")
        try:
            if not isinstance(data, dict) or "universe" not in data or "lambda" not in data:
                raise InputError("expected an object with 'universe' and 'lambda'")
            weights = {}
            for entry in json_list(data["lambda"], "'lambda'"):
                if not isinstance(entry, dict) or "set" not in entry or "weight" not in entry:
                    raise InputError(f"lambda entries need a 'set' and a 'weight', not {entry!r}")
                subset = frozenset(map(json_label, json_list(entry["set"], "'set'")))
                weights[subset] = json_fraction(entry["weight"], "weights")
            return cls(tuple(map(json_label, json_list(data["universe"], "'universe'"))),
                       weights)
        except InputError as exc:
            raise LoadError(f"{path}: {exc}") from None


def volume_from_multiattribute(maw: MultiAttributeWeights) -> VolumeAssignment:
    """Realize subset-utility weights as a volume assignment, exactly.

    Ground points are the positively weighted attribute sets themselves;
    an element's ball collects the sets containing it.  The weighted
    measure (default 0) then reproduces the utility on every selection.
    """
    positive = {a: w for a, w in maw.weights.items() if w > 0}
    balls: dict = {x: set() for x in maw.universe}
    for a in positive:
        for x in a:
            balls[x].add(a)
    balls = {x: frozenset(ball) for x, ball in balls.items()}
    return VolumeAssignment("multiattr", balls.__getitem__,
                            WeightedMeasure(positive, Fraction(0)),
                            universe=frozenset(maw.universe))


def multiattribute_from_volume(v: VolumeAssignment, universe: Iterable) -> MultiAttributeWeights:
    """Express a discrete volume over a finite universe as subset weights.

    The weight of a subset A is the measure of the ground points whose
    covering elements are exactly A, so one pass over the balls groups
    every covered point under its covering set.
    """
    if not getattr(v, "is_discrete", False):
        raise InputError("only discrete volume assignments convert to subset weights")
    elements = tuple(universe)
    covering: dict = {}
    for x in elements:
        for point in v.ball(x):
            covering.setdefault(point, []).append(x)
    groups: dict = {}
    for point, holders in covering.items():
        groups.setdefault(frozenset(holders), []).append(point)
    weights = {a: v.measure.of(frozenset(points)) for a, points in groups.items()}
    return MultiAttributeWeights(elements, {a: w for a, w in weights.items() if w > 0})

