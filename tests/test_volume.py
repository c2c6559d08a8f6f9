import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diverse_cq import (MC_SAMPLES_CAP, ContinuousBallSet, CountMeasure, EuclideanBallVolume,
                        InputError, LimitExceededError, MCEstimate, MultiAttributeWeights,
                        UniverseError, VolumeAssignment, WeightedMeasure, elem_volume,
                        elem_weighted, enumerate_answers, greedy_diversify,
                        intern, mc_ball_union_volume, multiattribute_from_volume, pos_volume,
                        pos_weighted, provenance_volume, volume, volume_from_multiattribute)

from conftest import mk


def test_element_balls_ignore_positions():
    v = elem_volume()
    assert v.ball(mk("R", "a", "b", "a")) == frozenset({intern("a"), intern("b")})
    assert v.diversity([mk("R", "a", "b"), mk("R", "b", "c")]) == 3


def test_positional_balls_are_one_based():
    v = pos_volume()
    assert v.ball(mk("R", "a", "b")) == frozenset({(intern("a"), 1), (intern("b"), 2)})
    assert v.diversity([mk("R", "a", "b"), mk("R", "b", "a")]) == 4


def test_weighted_variants():
    ve = elem_weighted({intern("a"): Fraction(5)}, default=Fraction(1))
    assert ve.diversity([mk("R", "a", "b")]) == 6
    vp = pos_weighted({(intern("c"), 2): Fraction(3)}, default=Fraction(1))
    assert vp.diversity([mk("R", "a", "c")]) == 4
    assert vp.diversity([mk("R", "c", "a")]) == 2


def test_marginals_track_union_growth():
    v = pos_volume()
    s = [mk("R", "a", "b")]
    t = mk("R", "a", "c")
    assert v.marginal(s, t) == 1
    covered = v.covered(s)
    assert v.marginal_given_covered(covered, t) == 1
    assert v.diversity(s + [t]) == v.diversity(s) + v.marginal(s, t)


def test_symmetric_difference_distance():
    v = elem_volume()
    a, b = mk("R", "a", "b"), mk("R", "b", "c")
    assert v.sym_diff_distance(a, b) == 2
    assert v.sym_diff_distance(a, a) == 0
    assert v.marginal_distance(a, b) == v.diversity([a, b]) - min(
        v.diversity([a]), v.diversity([b]))


def test_universe_enforcement():
    inside = mk("R", "a")
    v = VolumeAssignment("t", lambda t: frozenset({t}), CountMeasure(),
                         universe=frozenset({inside}))
    assert v.diversity([inside]) == 1
    with pytest.raises(UniverseError):
        v.ball(mk("R", "z"))


def test_provenance_volume_on_two_hop(d1, q1):
    v = provenance_volume(q1, d1)
    assert v.diversity([mk("Q1", "a", "a")]) == 3
    assert v.diversity([mk("Q1", "b", "b")]) == 2
    with pytest.raises(UniverseError):
        v.ball(mk("Q1", "c", "c"))


def test_weighted_measure_default():
    m = WeightedMeasure({intern("a"): Fraction(2)}, Fraction(1, 2))
    assert m.of(frozenset({intern("a"), intern("b")})) == Fraction(5, 2)
    assert m.weight_of(intern("zzz")) == Fraction(1, 2)


def test_weighted_measure_rejects_negative_weights():
    with pytest.raises(InputError):
        WeightedMeasure({intern("a"): Fraction(-1)}, Fraction(0))
    with pytest.raises(InputError):
        WeightedMeasure({}, Fraction(-2))


# Monte-Carlo estimator ------------------------------------------------------


def num_fact(rel, *vals):
    return mk(rel, *[str(v) for v in vals])


def test_one_dimensional_union_is_exact():
    v = EuclideanBallVolume(0.5)
    pts = [num_fact("P", 0.0), num_fact("P", 0.75), num_fact("P", 10.0)]
    assert v.diversity(pts) == pytest.approx(1.75 + 1.0, abs=1e-12)
    assert v.diversity(pts[:1]) == pytest.approx(1.0, abs=1e-12)


def test_ball_marginal_is_a_difference_of_diversities():
    v = EuclideanBallVolume(1.0, samples=2_000, seed=5)
    s = [num_fact("P", 0, 0), num_fact("P", 1, 0)]
    t = num_fact("P", 0, 1)
    assert v.marginal(s, t) == v.diversity(s + [t]) - v.diversity(s)
    assert v.marginal([], t) == v.diversity([t])


def test_mc_estimate_is_seed_deterministic():
    v = EuclideanBallVolume(1.0, samples=20_000, seed=42)
    pts = [num_fact("P", 0, 0), num_fact("P", 1, 0)]
    assert v.diversity(pts) == v.diversity(pts)
    e = v.diversity_estimate(pts)
    assert e.value > 0 and e.stderr > 0


def test_centers_are_converted_once_and_estimates_stay_bit_identical(monkeypatch):
    rng = random.Random(7)
    pts = [num_fact("P", rng.randint(0, 9), f"{rng.randint(0, 90) / 7:.4f}") for _ in range(12)]
    v = EuclideanBallVolume(1.5, samples=5_000, seed=3)
    got = greedy_diversify(pts, 4, v)
    assert len(v._centers) == len(set(pts))
    conversions = []
    real = Fraction.__float__
    monkeypatch.setattr(Fraction, "__float__", lambda q: conversions.append(q) or real(q))
    for k in range(len(got.selected) + 1):
        picks = list(got.selected[:k])
        centers = tuple(sorted({tuple(map(real, (x.payload for x in t.values)))
                                for t in picks}))
        want = (mc_ball_union_volume(ContinuousBallSet(centers, 1.5), 5_000, 3).value
                if centers else 0.0)
        assert v.diversity(picks) == want  # bit for bit, from the cached centers
    assert not conversions
    monkeypatch.undo()
    assert greedy_diversify(pts, 4, EuclideanBallVolume(1.5, samples=5_000, seed=3)) == got


def test_ball_volume_rejects_text_values():
    v = EuclideanBallVolume(1.0)
    with pytest.raises(InputError):
        v.diversity([mk("P", "a")])


def test_ball_volume_rejects_centers_beyond_float_range():
    with pytest.raises(InputError, match="too large"):
        EuclideanBallVolume(1.0).diversity([num_fact("P", "1e400", 0)])


def test_ball_volume_rejects_mixed_dimensions():
    v = EuclideanBallVolume(1.0)
    with pytest.raises(InputError):
        v.diversity([num_fact("P", 0), num_fact("P", 0, 1)])


def test_ball_volume_rejects_nullary_answers():
    with pytest.raises(InputError, match="at least one coordinate"):
        EuclideanBallVolume(1.0).diversity([mk("Q")])
    with pytest.raises(InputError, match="at least one coordinate"):
        ContinuousBallSet(((), ()), 1.0)


def test_empty_selection_has_zero_volume():
    assert EuclideanBallVolume(1.0).diversity([]) == 0.0
    assert elem_volume().diversity([]) == 0


@pytest.mark.parametrize("kwargs", [
    {"radius": 0.0}, {"radius": -1.0}, {"radius": float("inf")}, {"radius": float("nan")},
    {"radius": 1.0, "samples": 0}, {"radius": 1.0, "samples": -3},
    {"radius": 1.0, "seed": -1},
])
def test_ball_volume_rejects_bad_parameters_up_front(kwargs):
    with pytest.raises(InputError):
        EuclideanBallVolume(**kwargs)


def test_sample_counts_above_the_cap_are_refused_before_any_draw():
    assert EuclideanBallVolume(1.0, samples=MC_SAMPLES_CAP).samples == MC_SAMPLES_CAP
    with pytest.raises(LimitExceededError, match="exceed the cap"):
        EuclideanBallVolume(1.0, samples=MC_SAMPLES_CAP + 1)
    # one dimension never draws, and is refused all the same
    for centers in [((0.0,), (5.0,)), ((0.0, 0.0), (1.0, 1.0))]:
        with pytest.raises(LimitExceededError, match="exceed the cap"):
            mc_ball_union_volume(ContinuousBallSet(centers, 1.0), MC_SAMPLES_CAP + 1)


@pytest.mark.parametrize("centers,radius", [
    (((0.0, 0.0), (1.0, 1.0)), 1e300),  # the box's area overflows
    (((0.0,), (5.0,)), 1e308),          # so does the union's length
    (((0.0, float("inf")),), 1.0),      # an infinite center
])
def test_estimator_rejects_an_unbounded_box(centers, radius):
    with pytest.raises(InputError, match="finite"):
        mc_ball_union_volume(ContinuousBallSet(centers, radius), 100)


@pytest.mark.parametrize("centers", [((0.0,), (5.0,)), ((0.0, 0.0), (1.0, 1.0))])
def test_estimator_rejects_a_negative_seed(centers):
    # one dimension never draws from the generator, and is rejected all the same
    with pytest.raises(InputError, match="seed must be non-negative"):
        mc_ball_union_volume(ContinuousBallSet(centers, 1.0), 100, seed=-1)


def test_far_apart_intervals_need_only_a_finite_length():
    # the bounding interval is 2e308 long, which overflows; the union is not
    balls = ContinuousBallSet(((-1e308,), (1e308,)), 1e300)
    assert mc_ball_union_volume(balls, 1).value == pytest.approx(4e300)


def _broadcast_estimate(balls, samples, seed=0):
    """The estimator as it was before it tested one center at a time:
    `Generator.uniform` points against 512-center chunks through an
    (n, centers, d) broadcast.  Kept as the reference for its floats."""
    centers = np.asarray(balls.centers, dtype=float)
    r = float(balls.radius)
    lo = centers.min(axis=0) - r
    hi = centers.max(axis=0) + r
    box = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    while remaining > 0:
        n = min(remaining, 1 << 18)
        pts = rng.uniform(lo, hi, size=(n, balls.dimension))
        best = np.full(n, np.inf)
        for start in range(0, len(centers), 512):
            chunk = centers[start:start + 512]
            d2 = ((pts[:, None, :] - chunk[None, :, :]) ** 2).sum(axis=2).min(axis=1)
            np.minimum(best, d2, out=best)
        hits += int((best <= r * r).sum())
        remaining -= n
    p = hits / samples
    return MCEstimate(box * p, box * (p * (1 - p) / samples) ** 0.5)


@st.composite
def ball_sets(draw):
    dim = draw(st.integers(2, 10))
    coord = st.floats(-20, 20, allow_nan=False, allow_infinity=False)
    distinct = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=40))
    # repeat some centers: duplicates must not change the estimate
    centers = draw(st.lists(st.sampled_from(distinct), min_size=len(distinct),
                            max_size=40))
    return ContinuousBallSet(tuple(centers), draw(st.floats(0.01, 15)))


@settings(max_examples=80, deadline=None)
@given(balls=ball_sets(), samples=st.integers(1, 5000), seed=st.integers(0, 5))
@example(balls=ContinuousBallSet(((0.5,) * 9, (1.0,) * 9, (0.5,) * 9), 1.5),
         samples=5000, seed=3)
def test_estimate_is_the_broadcast_estimators_float(balls, samples, seed):
    got = mc_ball_union_volume(balls, samples, seed)
    want = _broadcast_estimate(balls, samples, seed)
    assert (got.value, got.stderr) == (want.value, want.stderr)


def test_estimate_matches_the_broadcast_across_batches():
    # 300,000 samples take two batches of at most 2**18 points
    rng = random.Random(4)
    balls = ContinuousBallSet(tuple((rng.uniform(0, 9), rng.uniform(0, 9)) for _ in range(4)),
                              2.0)
    got = mc_ball_union_volume(balls, 300_000, 1)
    want = _broadcast_estimate(balls, 300_000, 1)
    assert (got.value, got.stderr) == (want.value, want.stderr)


@settings(max_examples=300, deadline=None)
@given(r=st.floats(1e-170, 1e8), c0=st.floats(-1e9, 1e9))
@example(r=0.7781055420688421, c0=-0.3734003735053047)  # x - c0 rounds down to r
@example(r=2.5570491153510456e-161, c0=0.0)  # r * r is subnormal
def test_points_beyond_a_slab_fail_the_ball_test(r, c0):
    # the nearest floats outside the slab; every point farther out has a
    # first-axis square at least as large
    reach = volume._slab_reach(r)
    for x in (math.nextafter(c0 - reach, -math.inf), math.nextafter(c0 + reach, math.inf)):
        d = x - c0
        assert d * d > r * r


@st.composite
def slab_edge_sets(draw, dims=st.integers(2, 9), max_centers=8):
    """Ball sets whose slabs sit where rounding decides: centers up to 1e8
    from the origin against radii down to 1e-7, so that first coordinates
    fall on a coarse float grid, and centers that share a first coordinate."""
    dim = draw(dims)
    radius = draw(st.floats(1e-7, 10))
    offset = draw(st.floats(-1e8, 1e8))
    spread = st.floats(-3, 3)
    firsts = draw(st.lists(spread, min_size=1, max_size=3))
    centers = [
        tuple(offset + radius * x
              for x in [draw(st.sampled_from(firsts))] + draw(st.lists(
                  spread, min_size=dim - 1, max_size=dim - 1)))
        for _ in range(draw(st.integers(1, max_centers)))]
    return ContinuousBallSet(tuple(centers), radius)


@settings(max_examples=150, deadline=None)
@given(balls=slab_edge_sets(), samples=st.integers(1, 5000), seed=st.integers(0, 5))
@example(  # the radius's square is subnormal
    balls=ContinuousBallSet(((0.0, 0.0), (1e-160, 0.0), (1e-160, 2e-160)), 1e-160),
    samples=5000, seed=0)
@example(  # first coordinates on a grid of 2**-26 against a radius of 3 steps
    balls=ContinuousBallSet(((1e8, 1e8), (1e8 + 2 ** -25, 1e8)), 3 * 2 ** -26),
    samples=5000, seed=1)
def test_slab_edges_keep_the_broadcast_estimators_float(balls, samples, seed):
    got = mc_ball_union_volume(balls, samples, seed)
    want = _broadcast_estimate(balls, samples, seed)
    assert (got.value, got.stderr) == (want.value, want.stderr)


@settings(max_examples=4, deadline=None)
@given(balls=slab_edge_sets(dims=st.integers(8, 9), max_centers=2),
       extra=st.integers(1, 3000), seed=st.integers(0, 5))
def test_row_sums_across_batches_keep_the_broadcast_estimators_float(balls, extra, seed):
    samples = (1 << 18) + extra
    got = mc_ball_union_volume(balls, samples, seed)
    want = _broadcast_estimate(balls, samples, seed)
    assert (got.value, got.stderr) == (want.value, want.stderr)


def test_cached_draws_give_the_floats_of_fresh_ones():
    square = ContinuousBallSet(((0.0, 0.0), (1.0, 2.0), (4.0, 1.0)), 1.5)
    cube = ContinuousBallSet(((0.0, 0.0, 0.0), (1.0, 2.0, 0.5)), 1.5)
    calls = [(square, 2000, 0), (square, 2000, 0), (square, 2000, 1), (cube, 2000, 0),
             (square, 3000, 0), (square, 2000, 0), (cube, 2000, 1), (cube, 2000, 1)]
    interleaved = [mc_ball_union_volume(*call) for call in calls]
    fresh = []
    for call in calls:
        volume._cached_unit_draw.cache_clear()
        fresh.append(mc_ball_union_volume(*call))
    assert interleaved == fresh


def test_cached_draws_are_read_only():
    with pytest.raises(ValueError):
        volume._cached_unit_draw(7, 100, 2)[0, 0] = 0.5


def _estimator_memory(samples, dim):
    """Peak bytes of one estimate from an empty cache, and the bytes it
    leaves allocated when it returns."""
    rng = random.Random(0)
    balls = ContinuousBallSet(
        tuple(tuple(rng.uniform(0, 100) for _ in range(dim)) for _ in range(600)), 2.0)
    volume._cached_unit_draw.cache_clear()
    tracemalloc.start()
    try:
        mc_ball_union_volume(balls, samples, 0)
        kept, peak = tracemalloc.get_traced_memory()
        return peak, kept
    finally:
        tracemalloc.stop()


def test_estimator_memory_does_not_grow_with_the_centers():
    peak, _ = _estimator_memory(200_000, 2)
    assert peak < 32 * 2 ** 20


def test_a_greedy_round_peaks_like_one_estimate():
    # 25 candidates, 4 picks, 200,000 samples: a candidates x samples mask
    # alone would be 5 MB over one estimate's peak
    rng = random.Random(1)
    spots = [num_fact("P", rng.randint(0, 300), rng.randint(0, 300)) for _ in range(29)]
    v = EuclideanBallVolume(2.0, samples=200_000)
    v.diversity(spots)  # fills the draw cache and the centers outside the traced peaks
    peaks = []
    for run in (lambda: v.diversity(spots[:5]), lambda: v.round_diversities(spots[:4], spots[4:])):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    estimate, round_ = peaks
    assert round_ < estimate + 2 ** 19


def test_estimator_memory_does_not_grow_with_the_batches():
    # 10**6 four-dimensional samples are 32 MiB in four batches: one batch
    # at a time is held, and none of them is cached
    peak, kept = _estimator_memory(1_000_000, 4)
    assert peak < 32 * 2 ** 20
    assert kept < 2 ** 20


def test_the_cache_keeps_one_draw_of_at_most_one_batch():
    _, kept = _estimator_memory(200_000, 2)
    assert 200_000 * 2 * 8 <= kept < 200_000 * 2 * 8 + 2 ** 20
    assert volume._cached_unit_draw.cache_info().currsize == 1


@settings(max_examples=4, deadline=None)
@given(balls=slab_edge_sets(dims=st.integers(2, 7), max_centers=3),
       extra=st.integers(1, 3000), seed=st.integers(0, 5))
def test_axis_folds_across_batches_keep_the_broadcast_estimators_float(balls, extra, seed):
    samples = (1 << 18) + extra
    got = mc_ball_union_volume(balls, samples, seed)
    want = _broadcast_estimate(balls, samples, seed)
    assert (got.value, got.stderr) == (want.value, want.stderr)


# Multi-attribute conversions ------------------------------------------------


def test_single_weight_becomes_single_ball():
    maw = MultiAttributeWeights(("x", "y"), {frozenset({"x", "y"}): Fraction(3)})
    v = volume_from_multiattribute(maw)
    assert v.ball("x") == v.ball("y") != frozenset()
    assert v.diversity(["x"]) == v.diversity(["x", "y"]) == 3


def test_round_trip_weights_exactly():
    rng = random.Random(6)
    universe = tuple("pqrst")
    weights = {}
    for _ in range(8):
        size = rng.randint(1, len(universe))
        weights[frozenset(rng.sample(universe, size))] = Fraction(rng.randint(1, 9), 2)
    maw = MultiAttributeWeights(universe, weights)
    back = multiattribute_from_volume(volume_from_multiattribute(maw), universe)
    assert dict(back.weights) == weights


def test_volume_to_weights_on_facts():
    facts = [mk("R", "a", "b"), mk("R", "a", "c")]
    maw = multiattribute_from_volume(elem_volume(), facts)
    assert maw.diversity(facts[:1]) == 2
    assert maw.diversity(facts) == 3
    assert maw.weights[frozenset(facts)] == 1  # the shared element


def test_conversion_has_no_universe_cap_and_checks_type():
    wide = tuple(f"e{i:02d}" for i in range(20))
    weights = {frozenset(wide): Fraction(1), frozenset(wide[:2]): Fraction(1, 2),
               frozenset({wide[-1]}): Fraction(3)}
    maw = MultiAttributeWeights(wide, weights)
    v = volume_from_multiattribute(maw)
    assert v.diversity(wide) == maw.diversity(wide) == Fraction(9, 2)
    assert dict(multiattribute_from_volume(v, wide).weights) == weights
    with pytest.raises(InputError):
        multiattribute_from_volume(EuclideanBallVolume(1.0), ["x"])


def test_multiattribute_weights_and_their_volume_reject_the_same_outsiders():
    maw = MultiAttributeWeights(("x", "y"), {frozenset({"x"}): Fraction(2)})
    v = volume_from_multiattribute(maw)
    assert maw.diversity(["x", "y"]) == v.diversity(["x", "y"]) == 2
    for s in (["zz"], ["x", "zz"]):
        with pytest.raises(UniverseError):
            maw.diversity(s)
        with pytest.raises(UniverseError):
            v.diversity(s)


def test_multiattribute_validation():
    with pytest.raises(InputError):
        MultiAttributeWeights(("x", "x"), {})
    with pytest.raises(InputError):
        MultiAttributeWeights(("x",), {frozenset(): Fraction(1)})
    with pytest.raises(InputError):
        MultiAttributeWeights(("x",), {frozenset({"y"}): Fraction(1)})
    with pytest.raises(InputError):
        MultiAttributeWeights(("x",), {frozenset({"x"}): Fraction(-1)})
