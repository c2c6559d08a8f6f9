"""Lone Euclidean balls, estimated from the cached unit-ball shell.

An estimate whose balls have one distinct center counts the draw points
whose rho(u) = sum_j (2 u_j - 1)**2 lies below 1 by more than
`volume._shell_reach`, by one search of `volume._cached_shell`, and tests
only the shell points within that reach, with the slab path's own float
test.  It must give `test_volume`'s broadcast estimator's floats bit for
bit, and fall back to the slab path wherever the table cannot decide.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diverse_cq import ContinuousBallSet, EuclideanBallVolume, mc_ball_union_volume, volume

from conftest import mk
from test_volume import _broadcast_estimate

ONE_BATCH = 1 << 18


def point(*coords):
    return mk("P", *map(repr, coords))


def lone_hits(balls, samples, seed):
    """`volume._lone_ball_hits` for the box the estimator gives `balls`."""
    c = np.asarray(balls.centers[0], dtype=float)
    lo, width, _ = volume._boxes(c, c, float(balls.radius))
    return volume._lone_ball_hits(c, float(balls.radius), lo, width, seed, samples)


def check(balls, samples, seed):
    got = mc_ball_union_volume(balls, samples, seed)
    want = _broadcast_estimate(balls, samples, seed)
    assert (got.value, got.stderr) == (want.value, want.stderr)


@st.composite
def lone_balls(draw):
    """One center, repeated, in 2, 3, 8 or 9 dimensions.  Half of them sit
    on a coarse float grid: the center 2**p plus a few steps of 2**(p-52)
    on every axis, and a radius of n and a half steps, so that c - r and
    c + r round half to even and the box is off by about a step, which
    moves the test of points near the sphere by up to the shell's reach."""
    dim = draw(st.sampled_from([2, 3, 8, 9]))
    if draw(st.booleans()):
        p = draw(st.integers(34, 39))
        step = 2.0 ** (p - 52)
        n = draw(st.integers(300, 3000))
        radius = (n + 0.5) * step
        center = tuple(draw(st.sampled_from([1, -1])) * (2.0 ** p + (n + draw(
            st.integers(1, 3000))) * step) for _ in range(dim))
    else:
        radius = draw(st.floats(1e-3, 1e6))
        center = draw(st.tuples(*[st.floats(-1e12, 1e12)] * dim))
    return ContinuousBallSet((center,) * draw(st.integers(1, 3)), radius)


# Lone balls whose shell points within the reach are tested: each has a
# point that rho <= 1 misjudges, more than half the reach away from 1.
GRID_EDGES = [
    (ContinuousBallSet(((512.0000000006136, -512.0000000006124),), 3.3782043828978203e-10),
     4000, 2),
    (ContinuousBallSet(((-2.000000000003539, -2.000000000003153),), 2.5119906110759872e-12),
     ONE_BATCH, 1),
    (ContinuousBallSet(((1.511157274520738e+23, -1.5111572745210393e+23,
                         -1.511157274520295e+23),), 175372238848.0), ONE_BATCH, 1),
]


@settings(max_examples=100, deadline=None)
@given(balls=lone_balls(), samples=st.one_of(st.integers(1, 4000), st.just(ONE_BATCH)),
       seed=st.integers(0, 3))
@example(balls=GRID_EDGES[0][0], samples=4000, seed=2)
@example(balls=ContinuousBallSet(((0.0,) * 9, (-0.0,) * 9), 1.0), samples=ONE_BATCH, seed=0)
def test_a_lone_ball_is_the_broadcast_estimators_float(balls, samples, seed):
    check(balls, samples, seed)


@pytest.mark.parametrize("balls,samples,seed", GRID_EDGES)
def test_shell_points_within_the_reach_are_tested_exactly(balls, samples, seed):
    check(balls, samples, seed)
    assert lone_hits(balls, samples, seed) is not None
    # the oracle's own points: rho <= 1 misjudges one beyond half the reach
    c = np.asarray(balls.centers[0])
    r = balls.radius
    unit = np.random.default_rng(seed).random((samples, len(c)))
    pts = np.random.default_rng(seed).uniform(c - r, c + r, size=unit.shape)
    inside = ((pts - c) ** 2).sum(axis=1) <= r * r
    off = sum((2 * unit[:, j] - 1) ** 2 for j in range(len(c))) - 1
    misjudged = np.abs(off[inside != (off <= 0)])
    reach = volume._shell_reach(float(np.abs(c).max()), r, len(c))
    assert misjudged.max() > reach / 2
    assert misjudged.max() <= reach


@pytest.mark.parametrize("balls,samples,why", [
    (ContinuousBallSet(((1e12, -1e12),), 1e-3), 4000, "the reach exceeds the table"),
    (ContinuousBallSet(((0.0, 0.0), (0.0, 0.0)), 1e-160), 4000, "r * r is subnormal"),
    (ContinuousBallSet(((3.0, 4.0, 5.0),), 2.0), ONE_BATCH + 1, "the draw is not cached"),
])
def test_the_slab_path_takes_what_the_table_cannot_decide(balls, samples, why):
    assert lone_hits(balls, samples, 1) is None, why
    check(balls, samples, 1)


def test_a_lone_ball_in_reach_runs_no_slab_test(monkeypatch):
    def refuse(*args):
        raise AssertionError("slab test")

    balls = ContinuousBallSet(((7.5, -3.25, 1e6),), 2.0)
    want = _broadcast_estimate(balls, 20_000, 3)
    monkeypatch.setattr(volume, "_union_hits", refuse)
    assert mc_ball_union_volume(balls, 20_000, 3) == want
    v = EuclideanBallVolume(2.0, samples=20_000, seed=3)
    spots = [point(7.5, -3.25, 1e6), point(0.0, 0.0, 0.0), point(1e6, 2.0, -4.0)]
    assert v.round_diversities([], spots) == [
        _broadcast_estimate(v.ball(t), 20_000, 3).value for t in spots]


@pytest.mark.parametrize("dim", [2, 3, 8, 9])
def test_a_no_pick_round_is_each_candidates_lone_estimate(dim):
    v = EuclideanBallVolume(1.75, samples=3000, seed=2)
    spots = [point(*[float(x + j) for j in range(dim)]) for x in (-4, 0, 0.5, 9)]
    spots.append(point(*[1e15] * dim))  # beyond the table's reach: the slab path
    want = [v.diversity([t]) for t in spots]
    assert v.round_diversities([], spots) == want
    assert want == [_broadcast_estimate(v.ball(t), 3000, 2).value for t in spots]
    # a candidate whose center is the one pick's is a lone ball too
    assert v.round_diversities(spots[:1], spots[:2]) == [
        v.diversity(spots[:1]), v.diversity(spots[:2])]


@pytest.mark.parametrize("samples,dim", [(200_000, 2), (200_000, 9), (1, 2)])
def test_the_shell_table_is_a_small_part_of_the_draw(samples, dim):
    below, ids, offsets = volume._cached_shell(0, samples, dim)
    assert len(ids) == len(offsets) <= samples / 100
    assert (np.diff(offsets) >= 0).all() and (np.abs(offsets) <= volume._SHELL).all()
    unit = volume._cached_unit_draw(0, samples, dim)
    rho = sum((2 * unit[j] - 1) ** 2 for j in range(dim))
    assert below == int((rho < 1 - volume._SHELL).sum())
    assert (rho[ids] - 1 == offsets).all()


def test_the_table_decides_centers_up_to_2_to_the_40_radii_out():
    # in two dimensions the reach is about 2**-50.5 * m / r; an m / r that overflows, infinite
    assert volume._shell_reach(2.0 ** 40, 1.0, 2) <= volume._SHELL
    assert volume._shell_reach(2.0 ** 41, 1.0, 2) > volume._SHELL
    assert volume._shell_reach(0.0, 1.0, 9) < 2 ** -45
    assert math.isinf(volume._shell_reach(1e300, 1e-300, 2))
