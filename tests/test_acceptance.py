"""Release gate: every shipped criterion, one test and one printed line each.

Each test prints `criterion NN PASS/FAIL: <what was checked>` and enforces
the tolerance and time budget the criterion states.  Values here are frozen;
a failure means observed behavior drifted from the published numbers.
"""

import math
import random
from fractions import Fraction
from itertools import combinations
from time import perf_counter

from diverse_cq import (EuclideanBallVolume, ProvenancePlan, TreeLeafDistance,
                        TropicalPlan, brute_force_diversify, cli, cqnext_naive,
                        delta_min, delta_sum, elem_volume, elem_weighted,
                        enumerate_answers, greedy_diversify, intern,
                        multiattribute_from_volume, parse_cq, pos_volume,
                        pos_weighted, provenance_volume, ultrametric_to_volume,
                        volume_from_multiattribute, weitzman, weitzman_ultrametric,
                        MultiAttributeWeights)

from conftest import (db_of, mk, random_database, random_fact_set,
                      random_free_connex_instance, random_tree_query,
                      random_ultrametric_tree)

import json

import pytest


def gate(num, ok, detail, elapsed=None, budget=None):
    stamp = f" [{elapsed:.2f}s < {budget}s]" if budget is not None else ""
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}{stamp}")
    assert ok, f"criterion {num:02d}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {num:02d} took {elapsed:.2f}s (budget {budget}s)"


D1 = [mk("R", "a", "a"), mk("R", "a", "b"), mk("R", "b", "a")]
D2 = D1 + [mk("R", "b", "b")]
D3 = [mk("R", "a", "b"), mk("R", "a", "c")]


def test_criterion_01_fact_set_diversities():
    start = perf_counter()
    ve, vp = elem_volume(), pos_volume()
    vw = pos_weighted({(intern("c"), 2): Fraction(3)}, Fraction(1))
    got = [ve.diversity(D1), ve.diversity(D2), ve.diversity(D3),
           vp.diversity(D1), vp.diversity(D2), vp.diversity(D3),
           vw.diversity(D1), vw.diversity(D2), vw.diversity(D3)]
    want = [2, 2, 3, 4, 4, 3, 4, 4, 5]
    elapsed = perf_counter() - start
    gate(1, got == want,
         "element/position/weighted diversities of the three fact sets = "
         f"{[int(x) for x in got]}",
         elapsed, 1.0)


def test_criterion_02_provenance_singletons():
    start = perf_counter()
    db = db_of({"R": 2}, D1)
    q = parse_cq("Q1(x,y) <- R(x,z), R(z,y).")
    v = provenance_volume(q, db)
    a = v.diversity([mk("Q1", "a", "a")])
    b = v.diversity([mk("Q1", "b", "b")])
    elapsed = perf_counter() - start
    gate(2, (a, b) == (3, 2),
         f"witness-tuple volumes over the two-hop query: {a} and {b}",
         elapsed, 1.0)


def test_criterion_03_recursive_diversity(four_point):
    vals = (weitzman(["a", "b"], four_point),
            weitzman(["a", "b", "c"], four_point),
            weitzman(["a", "b", "d"], four_point),
            weitzman(["a", "b", "c", "d"], four_point))
    union_plus_inter = vals[3] + vals[0]
    parts = vals[1] + vals[2]
    gate(3, vals == (2, 3, 3, 5) and union_plus_inter == 7 and parts == 6,
         f"recursive diversity {tuple(int(x) for x in vals)}; "
         f"union+intersection {union_plus_inter} > split sum {parts}")


def test_criterion_04_distance_measure_anomalies(hamming_pairs):
    from diverse_cq import HammingDistance
    t1, t2, t3, t4 = hamming_pairs
    dist = HammingDistance()
    gain_large = delta_sum([t1, t2, t3, t4], dist) - delta_sum([t2, t3, t4], dist)
    gain_small = delta_sum([t1, t2, t4], dist) - delta_sum([t2, t4], dist)
    pair = delta_min([t2, t3], dist)
    everyone = delta_min([t1, t2, t3, t4], dist)
    gate(4, (gain_large, gain_small) == (26, 16) and (pair, everyone) == (5, 3)
         and gain_large > gain_small and pair > everyone,
         f"sum-measure marginals {gain_large} vs {gain_small}; "
         f"min of a spread pair {pair} > min of all four {everyone}")


def test_criterion_05_element_volume_sees_spread(triple_sets):
    v = elem_volume()
    got = [v.diversity(s) for s in triple_sets]
    gate(5, got == [6, 7, 7, 7],
         f"element volumes of the four triple-sets = {[int(x) for x in got]}")


# ---------------------------------------------------------------------------


def _random_discrete_volume(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return elem_volume()
    if kind == 1:
        return pos_volume()
    if kind == 2:
        weights = {intern(v): Fraction(rng.randint(0, 5)) for v in "abcd"}
        return elem_weighted(weights, Fraction(rng.randint(0, 3)))
    weights = {(intern(v), p): Fraction(rng.randint(0, 5))
               for v in "abcd" for p in (1, 2, 3)}
    return pos_weighted(weights, Fraction(1))


def _random_provenance_volume(rng):
    q, rels = random_tree_query(rng)
    db = random_database(rng, rels)
    ans = enumerate_answers(q, db).ordered()
    if len(ans) < 2:
        return None, ()
    return provenance_volume(q, db), ans


def test_criterion_06_property_suite():
    start = perf_counter()
    rng = random.Random(616)
    cases = 1000

    for i in range(cases):  # monotonicity
        if i % 50 == 0:
            v, pool = _random_provenance_volume(rng)
            if v is None:
                v, pool = _random_discrete_volume(rng), random_fact_set(rng, 8)
        else:
            v, pool = _random_discrete_volume(rng), random_fact_set(rng, 8)
        s = rng.sample(pool, rng.randint(0, len(pool) - 1))
        t = rng.choice([x for x in pool if x not in s])
        assert v.diversity(s) <= v.diversity(list(s) + [t])

    for i in range(cases):  # diminishing gains
        v, pool = _random_discrete_volume(rng), random_fact_set(rng, 8)
        small = rng.sample(pool, rng.randint(0, len(pool) - 1))
        extra = [x for x in pool if x not in small]
        big = small + rng.sample(extra, rng.randint(0, len(extra) - 1))
        t = rng.choice([x for x in pool if x not in big])
        assert v.marginal(big, t) <= v.marginal(small, t)

    for _ in range(cases):  # pseudo-metric axioms of the ball-difference distance
        v, pool = _random_discrete_volume(rng), random_fact_set(rng, 6)
        x, y, z = (rng.choice(pool) for _ in range(3))
        assert v.sym_diff_distance(x, x) == 0
        assert v.sym_diff_distance(x, y) == v.sym_diff_distance(y, x) >= 0
        assert (v.sym_diff_distance(x, z)
                <= v.sym_diff_distance(x, y) + v.sym_diff_distance(y, z))

    for _ in range(cases):  # additivity on selections with disjoint balls
        v = _random_discrete_volume(rng)
        left = [mk("T", *[rng.choice("ab") for _ in range(3)])
                for _ in range(rng.randint(1, 4))]
        right = [mk("T", *[rng.choice("cd") for _ in range(3)])
                 for _ in range(rng.randint(1, 4))]
        assert v.diversity(left + right) == v.diversity(left) + v.diversity(right)

    elapsed = perf_counter() - start
    gate(6, True, f"4x{cases} randomized structure checks, zero failures",
         elapsed, 30.0)


def test_criterion_07_greedy_guarantee():
    start = perf_counter()
    rng = random.Random(717)
    ratio = 1 - 1 / math.e
    for _ in range(200):
        facts = random_fact_set(rng, rng.randint(1, 12))
        v = _random_discrete_volume(rng)
        k = rng.randint(1, 4)
        opt = brute_force_diversify(facts, k, v).total
        grd = greedy_diversify(facts, k, v).total
        assert float(grd) >= ratio * float(opt) - 1e-9, (facts, k)
    elapsed = perf_counter() - start
    gate(7, True, "greedy within (1 - 1/e) of exact optimum on 200 instances",
         elapsed, 60.0)


def test_criterion_08_multiattribute_round_trip():
    start = perf_counter()
    rng = random.Random(818)

    for _ in range(25):  # weights -> volume -> weights
        n = rng.randint(1, 8)
        universe = tuple(f"x{i}" for i in range(n))
        weights = {}
        for _ in range(rng.randint(1, 12)):
            size = rng.randint(1, n)
            weights[frozenset(rng.sample(universe, size))] = (
                Fraction(rng.randint(1, 12), rng.randint(1, 3)))
        maw = MultiAttributeWeights(universe, weights)
        vol = volume_from_multiattribute(maw)
        back = multiattribute_from_volume(vol, universe)
        assert dict(back.weights) == weights
        for r in range(1, n + 1):
            for combo in combinations(universe, r):
                assert maw.diversity(combo) == vol.diversity(combo)

    for _ in range(25):  # volume -> weights -> volume
        facts = random_fact_set(rng, rng.randint(1, 8))
        v = _random_discrete_volume(rng)
        maw = multiattribute_from_volume(v, facts)
        vol2 = volume_from_multiattribute(maw)
        for r in range(1, len(facts) + 1):
            for combo in combinations(facts, r):
                assert v.diversity(combo) == maw.diversity(combo) == vol2.diversity(combo)

    elapsed = perf_counter() - start
    gate(8, True, "50 exact subset-weight round trips on universes up to 8",
         elapsed, 60.0)


def test_criterion_09_tree_diversity_equivalence():
    start = perf_counter()
    rng = random.Random(919)
    for _ in range(50):
        tree = random_ultrametric_tree(rng, max_leaves=12)
        vol = ultrametric_to_volume(tree)
        dist = TreeLeafDistance(tree)
        leaves = tree.leaves()
        for r in range(1, min(4, len(leaves)) + 1):
            for combo in combinations(leaves, r):
                fast = weitzman_ultrametric(combo, tree)
                assert fast == weitzman(combo, dist)
                assert vol.diversity(combo) == fast + tree.radius
    elapsed = perf_counter() - start
    gate(9, True,
         "50 random trees: union volume = subtree diversity + radius, and the "
         "linear form matches the recursion on all small subsets",
         elapsed, 60.0)


def test_criterion_10_ranking_engines_match_oracle():
    start = perf_counter()
    rng = random.Random(1010)

    done = 0
    while done < 100:  # value ranking on full acyclic queries
        q, rels = random_tree_query(rng, allow_self_join=True)
        db = random_database(rng, rels)
        if not enumerate_answers(q, db).answers:
            continue
        done += 1
        v = pos_volume() if done % 2 else pos_weighted(
            {(intern(c), p): Fraction(rng.randint(1, 9))
             for c in "abcd" for p in (1, 2, 3)}, Fraction(1))
        plan = TropicalPlan(q, db, v)
        selected = []
        for _ in range(3):
            slow = cqnext_naive(q, db, selected, v)
            fast = plan.next(selected)
            assert (slow is None) == (fast is None)
            if slow is None:
                break
            assert fast[1] == slow[1], q.to_text()
            assert v.marginal(selected, fast[0]) == fast[1]
            selected.append(slow[0])

    for _ in range(50):  # provenance ranking on free-connex instances
        q, db, _ = random_free_connex_instance(rng)
        v = provenance_volume(q, db)
        plan = ProvenancePlan(q, db)
        selected = []
        for _ in range(3):
            slow = cqnext_naive(q, db, selected, v)
            fast = plan.next(frozenset().union(*map(plan.provenance_of, selected)))
            assert (slow is None) == (fast is None)
            if slow is None:
                break
            assert fast[1] == slow[1], q.to_text()
            assert v.marginal(selected, fast[0]) == fast[1]
            selected.append(slow[0])

    elapsed = perf_counter() - start
    gate(10, True,
         "150 random instances: incremental rankers reproduce the materializing "
         "oracle's gain every round",
         elapsed, 120.0)


def test_criterion_11_combined_greedy_scaling(capsys):
    code = cli.main(["bench"])
    out, _ = capsys.readouterr()
    payload = json.loads(out)["payload"]
    timings = json.loads(out)["timings"]
    combined, mat = payload["combined"], payload["materialize_then_greedy"]
    ok = (code == 0 and combined["rounds"] == 5
          and combined["materialized_answers"] == 0
          and mat["answers_enumerated"] >= 10_000)
    gate(11, ok,
         "length-6 path queries on a 300-edge graph: combined greedy picked k=5 "
         f"without materializing (t={timings.get('greedy_combined', 0):.2f}s) while "
         f"enumeration alone hit {mat['answers_enumerated']} answers "
         f"(t={timings.get('enumerate_capped', 0):.2f}s); measurements only")


def test_criterion_12_monte_carlo_against_closed_form():
    start = perf_counter()
    r, d = 1.0, 1.0
    lens = 2 * r * r * math.acos(d / (2 * r)) - (d / 2) * math.sqrt(4 * r * r - d * d)
    union = 2 * math.pi * r * r - lens
    v = EuclideanBallVolume(r, samples=10**6, seed=0)
    est = v.diversity([mk("P", "0", "0"), mk("P", "1", "0")])
    rel_err = abs(est - union) / union

    v1 = EuclideanBallVolume(0.5)
    exact = v1.diversity([mk("P", "0"), mk("P", "0.75"), mk("P", "10")])
    elapsed = perf_counter() - start
    gate(12, rel_err <= 0.02 and exact == 2.75,
         f"two-disc union at a million draws off by {rel_err * 100:.3f}%; "
         "interval mode exact on the line", elapsed, 30.0)
