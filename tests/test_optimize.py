import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diverse_cq
from diverse_cq import (CountMeasure, EngineCompatibilityError, EuclideanBallVolume, InputError,
                        LimitExceededError, ProvenancePlan, TropicalPlan,
                        VolumeAssignment, WeightedMeasure, brute_force_diversify,
                        cqnext_naive, elem_volume, elem_weighted, enumerate_answers,
                        greedy_by_objective, greedy_combined, greedy_diversify,
                        gyo_join_tree, intern, parse_cq, pos_volume, pos_weighted,
                        provenance_map, provenance_volume)

from diverse_cq.engine import _tree_balls
from diverse_cq.optimize import _witness_table
from diverse_cq.query import (ConjunctiveQuery, free_connex_split, _connex_rooting, _gyo_reduce,
                              _reroot)
from diverse_cq.volume import pos_ball

from conftest import (TRIANGLE, db_of, mk, random_database, random_fact_set,
                      random_free_connex_instance, random_tree_query)


def test_exact_beats_or_matches_greedy():
    facts = [mk("T", "a", "b"), mk("T", "a", "c"), mk("T", "b", "c"),
             mk("T", "c", "d")]
    v = elem_volume()
    exact = brute_force_diversify(facts, 2, v)
    greedy = greedy_diversify(facts, 2, v)
    assert exact.total >= greedy.total
    assert exact.total == 4  # (a,b) with (c,d) covers all four elements
    assert len(exact) == len(greedy) == 2


def test_brute_force_cap():
    facts = random_fact_set(random.Random(0), 24)
    with pytest.raises(LimitExceededError):
        brute_force_diversify(facts, 12, elem_volume(), max_subsets=1000)


def test_k_zero_and_k_beyond_population():
    facts = [mk("T", "a"), mk("T", "b")]
    v = elem_volume()
    assert brute_force_diversify(facts, 0, v).selected == ()
    assert brute_force_diversify(facts, 0, v).total == 0
    assert len(greedy_diversify(facts, 10, v)) == 2


def test_gains_are_non_increasing_and_sum_to_total():
    rng = random.Random(5)
    for _ in range(30):
        facts = random_fact_set(rng, rng.randint(1, 10))
        res = greedy_diversify(facts, rng.randint(1, 5), pos_volume())
        assert res.total == sum(res.gains, Fraction(0))
        assert all(a >= b for a, b in zip(res.gains, res.gains[1:]))
        assert res.total == pos_volume().diversity(res.selected)


def test_lazy_greedy_is_bit_identical():
    rng = random.Random(12)
    for _ in range(100):
        facts = random_fact_set(rng, rng.randint(1, 12))
        k = rng.randint(1, 6)
        v = rng.choice([elem_volume(), pos_volume(),
                        pos_weighted({(intern("a"), 1): Fraction(7, 2)}, Fraction(1))])
        plain = greedy_diversify(facts, k, v, lazy=False)
        lazy = greedy_diversify(facts, k, v, lazy=True)
        assert plain.selected == lazy.selected
        assert plain.gains == lazy.gains


@st.composite
def fact_sets_and_volumes(draw):
    arity = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[st.sampled_from("abcd")] * arity), max_size=12))
    facts = [mk("T", *row) for row in rows]
    weights = st.fractions(min_value=0, max_value=5, max_denominator=3)
    kind = draw(st.sampled_from(["elem", "pos", "elem-w", "pos-w"]))
    if kind == "elem":
        v = elem_volume()
    elif kind == "pos":
        v = pos_volume()
    elif kind == "elem-w":
        v = elem_weighted(draw(st.dictionaries(
            st.sampled_from("abcd").map(intern), weights)), draw(weights))
    else:
        v = pos_weighted(draw(st.dictionaries(
            st.tuples(st.sampled_from("abcd").map(intern), st.integers(1, 3)), weights)),
            draw(weights))
    return facts, v, draw(st.integers(0, 6))


@settings(max_examples=200, deadline=None)
@given(fact_sets_and_volumes())
def test_set_function_greedy_matches_volume_greedy(case):
    facts, v, k = case
    by_diversity = greedy_by_objective(facts, k, v.diversity)
    assert by_diversity == greedy_diversify(facts, k, v)
    assert by_diversity == greedy_diversify(facts, k, v, lazy=True)


def test_greedy_gains_and_total_are_fractions():
    # Integer gains inside the loop must not leak: the CLI prints an int bare
    facts = random_fact_set(random.Random(3), 8)
    for v in (elem_volume(), pos_volume(),
              pos_weighted({(intern("a"), 1): Fraction(7, 2)}, Fraction(2))):
        for lazy in (False, True):
            res = greedy_diversify(facts, 4, v, lazy=lazy)
            assert res.gains and all(isinstance(g, Fraction) for g in res.gains)
            assert isinstance(res.total, Fraction)


@st.composite
def large_lcm_volumes(draw):
    rows = draw(st.lists(st.tuples(*[st.sampled_from("abcdef")] * 2), max_size=12))
    facts = [mk("T", *row) for row in rows]
    # Coprime denominators, zero weights and a fractional default: a large lcm
    weights = st.builds(Fraction, st.integers(0, 30), st.sampled_from((2, 3, 7, 11, 13)))
    default = draw(st.builds(Fraction, st.integers(1, 30), st.sampled_from((7, 11, 13))))
    if draw(st.booleans()):
        v = elem_weighted(draw(st.dictionaries(
            st.sampled_from("abcdef").map(intern), weights)), default)
    else:
        v = pos_weighted(draw(st.dictionaries(
            st.tuples(st.sampled_from("abcdef").map(intern), st.integers(1, 2)), weights)),
            default)
    return facts, v, draw(st.integers(0, 6))


@settings(max_examples=200, deadline=None)
@given(large_lcm_volumes())
def test_scaled_greedy_matches_greedy_on_exact_diversity(case):
    facts, v, k = case
    by_diversity = greedy_by_objective(facts, k, v.diversity)
    for lazy in (False, True):
        res = greedy_diversify(facts, k, v, lazy=lazy)
        assert res == by_diversity
        assert all(isinstance(g, Fraction) for g in res.gains)


def test_float_weights_give_one_total_in_every_engine():
    db = db_of({"R": 2}, [mk("R", "a", "b"), mk("R", "c", "b")])
    q = parse_cq("Q(x,y) <- R(x,y).")
    v = pos_weighted({(intern("a"), 1): 0.1}, 1)
    greedy = greedy_diversify(enumerate_answers(q, db).ordered(), 2, v)
    ranked = greedy_combined(q, db, 2, volume=v, engine="tropical")
    assert greedy.total == ranked.total == 2 + Fraction(0.1)
    assert isinstance(greedy.total, Fraction) and isinstance(ranked.total, Fraction)
    assert greedy.selected == ranked.selected


@pytest.mark.parametrize("w", ["1/2", None, float("nan"), float("inf"), 1j])
def test_weights_that_are_not_finite_numbers_are_rejected(w):
    with pytest.raises(InputError, match="finite numbers"):
        WeightedMeasure({mk("R", "a", "b"): w})
    with pytest.raises(InputError, match="finite numbers"):
        WeightedMeasure({}, w)


def test_greedy_on_continuous_volume():
    v = EuclideanBallVolume(0.5)
    pts = [mk("P", "0.0"), mk("P", "0.1"), mk("P", "5.0")]
    res = greedy_diversify(pts, 2, v)
    assert set(res.selected) == {pts[0], pts[2]} or set(res.selected) == {pts[1], pts[2]}
    assert res.total == pytest.approx(2.0, abs=1e-9)


def test_lazy_greedy_rejects_continuous_volume():
    pts = [mk("P", "0.0"), mk("P", "5.0")]
    with pytest.raises(InputError, match="discrete volume"):
        greedy_diversify(pts, 2, EuclideanBallVolume(0.5), lazy=True)


def test_naive_oracle_breaks_ties_to_smallest_answer(d1):
    q = parse_cq("Q(x,y) <- R(x,y).")
    got = cqnext_naive(q, d1, [], elem_volume())
    assert got is not None
    ans, gain = got
    # (a,b) and (b,a) tie at two fresh elements; the smaller tuple wins
    assert tuple(v.text() for v in ans.values) == ("a", "b")
    assert gain == 2
    assert cqnext_naive(q, db_of({"R": 2}, []), [], elem_volume()) is None


def test_naive_tie_break_prefers_small_values(d2):
    q = parse_cq("Q(x,y) <- R(x,y).")
    ans, gain = cqnext_naive(q, d2, [], pos_volume())
    assert tuple(v.text() for v in ans.values) == ("a", "a")
    assert gain == 2


class _MeasureStandIn:
    """Exposes only `kind` and `of`, as the benchmark's counting measure does."""

    def __init__(self, inner):
        self.kind = inner.kind
        self.inner = inner
        self.calls = 0

    def of(self, region):
        self.calls += 1
        return self.inner.of(region)


class _EuclidStandIn:
    """Exposes only `is_discrete`, `name` and `diversity`."""

    is_discrete = False

    def __init__(self, inner):
        self.name = inner.name
        self.inner = inner

    def diversity(self, s):
        return self.inner.diversity(s)


def test_benchmark_stand_ins_and_plan_api(d1, d3):
    facts = random_fact_set(random.Random(8), 9)
    k = 4
    base = provenance_volume(parse_cq("Q(x,y) <- R(x,y)."), d1)
    for v, answers in ((pos_volume(), facts), (base, sorted(base.universe))):
        for lazy in (False, True):
            counting = _MeasureStandIn(v.measure)
            stand_in = VolumeAssignment(v.name, v.ball_fn, counting, universe=v.universe)
            res = greedy_diversify(answers, k, stand_in, lazy=lazy)
            assert res == greedy_diversify(answers, k, v, lazy=lazy)
            assert counting.calls == 0  # greedy counts uncovered points, never measures

    points = [mk("P", "0", "0"), mk("P", "1", "0"), mk("P", "4", "1"), mk("P", "2", "3")]
    ball = EuclideanBallVolume(1.0, samples=2000)
    res = greedy_diversify(points, 3, _EuclidStandIn(ball))
    assert res == greedy_diversify(points, 3, ball)
    assert res.total == ball.diversity(res.selected)

    q = parse_cq("Q(x,y) <- R(x,y).")
    ans, gain = TropicalPlan(q, d1, pos_volume()).next([])
    assert gain == 2
    plan = ProvenancePlan(parse_cq("Q(x) <- R(x,y)."), d3)
    ans, gain = plan.next(frozenset())
    assert gain == 2 and plan.provenance_of(ans) == frozenset(d3.all_facts())


# Tropical ranking ------------------------------------------------------------


def test_tropical_requires_positional_volume(d1):
    q = parse_cq("Q(x,y) <- R(x,y).")
    with pytest.raises(EngineCompatibilityError):
        TropicalPlan(q, d1, elem_volume())


def test_tropical_requires_full_query(d1, q1):
    with pytest.raises(EngineCompatibilityError):
        TropicalPlan(q1, d1, pos_volume())


def test_tropical_requires_acyclic_body():
    db = db_of({"R": 2, "S": 2, "T": 2}, [mk("R", "a", "b"), mk("S", "b", "c"),
                                          mk("T", "c", "a")])
    q = parse_cq("Q(x,y,z) <- R(x,y), S(y,z), T(z,x).")
    with pytest.raises(EngineCompatibilityError):
        TropicalPlan(q, db, pos_volume())


def test_tropical_matches_naive_round_by_round():
    rng = random.Random(424)
    for _ in range(40):
        q, rels = random_tree_query(rng, allow_self_join=True)
        db = random_database(rng, rels)
        if not enumerate_answers(q, db).answers:
            continue
        v = rng.choice([pos_volume(),
                        pos_weighted({(intern("a"), 1): Fraction(3),
                                      (intern("b"), 2): Fraction(5, 2)}, Fraction(1))])
        plan = TropicalPlan(q, db, v)
        selected = []
        for _ in range(3):
            naive = cqnext_naive(q, db, selected, v)
            fast = plan.next(selected)
            assert (naive is None) == (fast is None)
            if naive is None:
                break
            assert fast[1] == naive[1], q.to_text()
            # the returned answer must realize the reported gain
            assert v.marginal(selected, fast[0]) == fast[1]
            selected.append(naive[0])


def test_tropical_wrapper(d2):
    q = parse_cq("Q(x,y) <- R(x,y).")
    got = TropicalPlan(q, d2, pos_volume()).next([])
    assert got is not None and got[1] == 2


# Incremental max-plus maintenance --------------------------------------------


def _fractional(rng):
    return Fraction(rng.randint(0, 12), rng.choice((2, 3, 7)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9), st.lists(st.sampled_from("pick add drop swap"), max_size=8))
def test_incremental_tropical_plan_matches_fresh_plan(seed, moves):
    """After every call an advanced plan answers exactly as a new one.

    "pick" and "add" grow the covered region (incremental path); "drop"
    shrinks it and "swap" replaces it with an unrelated one (rebuild).
    """
    rng = random.Random(seed)
    q, rels = random_tree_query(rng, allow_self_join=True)
    db = random_database(rng, rels)
    answers = enumerate_answers(q, db).ordered()
    weights = {(intern(x), pos): _fractional(rng)
               for x in "abcd" for pos in range(1, len(q.head_vars) + 1)
               if rng.random() < 0.7}
    v = pos_weighted(weights, _fractional(rng))
    plan = TropicalPlan(q, db, v)
    selected: list = []
    for move in ["pick"] + moves:
        got = plan.next(selected)
        assert got == TropicalPlan(q, db, v).next(selected), q.to_text()
        if got is None:
            assert not answers
            continue
        assert isinstance(got[1], Fraction)
        assert got[1] == v.marginal(selected, got[0])
        if move == "pick":
            selected.append(got[0])
        elif move == "add":
            selected.append(rng.choice(answers))
        elif move == "drop" and selected:
            selected.pop(rng.randrange(len(selected)))
        elif move == "swap":
            selected = rng.sample(answers, rng.randint(0, min(3, len(answers))))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9), st.lists(st.sampled_from("pick add drop swap"), max_size=8))
def test_incremental_provenance_plan_matches_fresh_plan(seed, moves):
    rng = random.Random(seed)
    q, db, _ = random_free_connex_instance(rng)
    facts = db.all_facts()
    heavy = {f: _fractional(rng) for f in facts if rng.random() < 0.7}
    default = _fractional(rng)

    def weight_of(f):
        return heavy.get(f, default)

    plan = ProvenancePlan(q, db, weight_of=weight_of)
    covered: frozenset = frozenset()
    for move in ["pick"] + moves:
        got = plan.next(covered)
        fresh = ProvenancePlan(q, db, weight_of=weight_of).next(covered)
        assert got == fresh, q.to_text()
        answer, gain = got  # a free-connex instance here always has an answer
        assert isinstance(gain, Fraction)
        assert gain == sum((weight_of(f) for f in plan.provenance_of(answer) - covered),
                           Fraction(0))
        if move == "pick":
            covered = covered | plan.provenance_of(answer)
        elif move == "add":
            covered = covered | {rng.choice(facts)}
        elif move == "drop" and covered:
            covered = covered - {rng.choice(sorted(covered))}
        elif move == "swap":
            covered = frozenset(rng.sample(facts, rng.randint(0, len(facts))))


def walked_witness_table(q, db, atom_ids):
    """Reference for `_witness_table`: the evaluator's provenance balls
    (`_tree_balls`) over the component's own GYO tree, re-rooted at its
    first atom that covers the interface, one per interface tuple."""
    atoms = tuple(q.atoms[i] for i in atom_ids)
    out = tuple(sorted({v for a in atoms for v in a.vars} & frozenset(q.head_vars)))
    component = ConjunctiveQuery(q.head_name, out, atoms)
    root = next(j for j, a in enumerate(atoms) if set(out) <= set(a.vars))
    parents = _reroot(gyo_join_tree(component), root)
    heads, ptr, ids = _tree_balls(component, parents, db)
    facts = db.facts()
    return out, {tuple(db.values[c] for c in heads[:, j].tolist()):
                 frozenset(facts[i] for i in ids[ptr[j]:ptr[j + 1]].tolist())
                 for j in range(heads.shape[1])}


def decoded_witness_table(db, table):
    """`_witness_table`'s arrays as (interface, {interface values: facts})."""
    out, keys, ptr, ids = table
    facts = db.facts()
    return out, {tuple(db.values[c] for c in keys[:, r].tolist()):
                 frozenset(facts[i] for i in ids[ptr[r]:ptr[r + 1]].tolist())
                 for r in range(keys.shape[1])}


def test_witness_fold_matches_walk():
    extended = components = 0
    for seed in range(150):
        q, db, _ = random_free_connex_instance(random.Random(seed))
        bags = [frozenset(a.vars) for a in q.atoms]
        extended += _connex_rooting(gyo_join_tree(q), bags, frozenset(q.head_vars)) is None
        for ids, parents in free_connex_split(q)[1]:
            components += 1
            want = walked_witness_table(q, db, ids)
            got = decoded_witness_table(db, _witness_table(q, db, ids, parents))
            assert got == want, (q.to_text(), ids)
            assert list(got[1]) == sorted(got[1])  # table rows in value order
    assert extended and components  # the extended tree's components were checked too


# Builds a seeded 3-edge path instance, runs ten greedy rounds through the
# tropical ranker, and prints the rows each round re-scored and the rows
# the plan holds.
RESCORE_SCRIPT = """
import json, random
from diverse_cq import Database, Fact, TropicalPlan, intern, parse_cq, pos_volume
from diverse_cq.relcore import Schema
rng = random.Random(4)
pairs = rng.sample([(u, v) for u in range(60) for v in range(60) if u != v], 360)
db = Database.from_facts(Schema({"E": 2}), [
    Fact("E", (intern(f"n{u:02d}"), intern(f"n{v:02d}"))) for u, v in pairs])
plan = TropicalPlan(parse_cq("P(a,b,c,d) <- E(a,b), E(b,c), E(c,d)."), db, pos_volume())
selected, counts = [], []
for _ in range(10):
    before = plan.rows_rescored
    answer, gain = plan.next(selected)
    counts.append(plan.rows_rescored - before)
    selected.append(answer)
print(json.dumps({"counts": counts, "rows": 3 * len(pairs)}))
"""


def test_rounds_after_the_first_rescore_few_rows():
    src = str(Path(diverse_cq.__file__).parents[1])
    runs = []
    for hash_seed in ("0", "1", "2", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", RESCORE_SCRIPT],
                              capture_output=True, text=True, env=env, check=True)
        runs.append(json.loads(proc.stdout))
    assert all(r == runs[0] for r in runs), runs
    counts, rows = runs[0]["counts"], runs[0]["rows"]
    assert 0 < counts[0] <= rows  # the first round builds every live row
    assert all(c <= rows // 20 for c in counts[1:]), counts


def test_plan_builds_its_kernel_on_the_first_next_call(d3):
    plan = ProvenancePlan(parse_cq("Q(x) <- R(x,y)."), d3)
    assert plan.provenance_of(mk("Q", "a")) == frozenset(d3.all_facts())
    assert plan.rows_rescored == 0
    plan.next(frozenset())
    assert plan.rows_rescored == 1  # one hanging-component row, x = a


def test_negative_point_weights_are_rejected(d3):
    plan = ProvenancePlan(parse_cq("Q(x) <- R(x,y)."), d3, weight_of=lambda f: Fraction(-1))
    with pytest.raises(InputError, match="non-negative"):
        plan.next(frozenset())


# Provenance ranking ----------------------------------------------------------


def test_provenance_plan_rejects_self_joins(d1, q1):
    with pytest.raises(EngineCompatibilityError, match="self-join"):
        ProvenancePlan(q1, d1)


def test_provenance_plan_rejects_non_free_connex():
    db = db_of({"R": 2, "S": 2}, [mk("R", "a", "b"), mk("S", "b", "a")])
    q = parse_cq("Q(x,y) <- R(x,z), S(z,y).")
    with pytest.raises(EngineCompatibilityError, match="free-connex"):
        ProvenancePlan(q, db)


def test_provenance_of_matches_exhaustive_map():
    rng = random.Random(77)
    for _ in range(25):
        q, db, _ = random_free_connex_instance(rng)
        plan = ProvenancePlan(q, db)
        answers = enumerate_answers(q, db).answers
        exhaustive = provenance_map(q, db, answers)
        for ans in answers:
            assert plan.provenance_of(ans) == exhaustive[ans]
        with pytest.raises(InputError, match="not an answer"):
            fake = mk(q.head_name, *(["zzz"] * len(q.head_vars)))
            plan.provenance_of(fake)


def test_provenance_next_matches_naive_round_by_round():
    rng = random.Random(3030)
    for _ in range(20):
        q, db, _ = random_free_connex_instance(rng)
        v = provenance_volume(q, db)
        plan = ProvenancePlan(q, db)
        selected = []
        for _ in range(3):
            naive = cqnext_naive(q, db, selected, v)
            fast = plan.next(frozenset().union(*map(plan.provenance_of, selected)))
            assert (naive is None) == (fast is None)
            if naive is None:
                break
            assert fast[1] == naive[1], q.to_text()
            assert v.marginal(selected, fast[0]) == fast[1]
            selected.append(naive[0])


def test_provenance_plan_refuses_exactly_the_queries_without_a_free_connex_tree():
    # Random heads over random self-join-free acyclic bodies: nullary,
    # projected, full and reordered.  A plan over the query's own join
    # tree either builds and ranks like the naive oracle, or the query
    # has no free-connex tree; nothing else is raised.
    rng = random.Random(1107)
    refused = nullary = 0
    for _ in range(500):
        q, rels = random_tree_query(rng, max_atoms=5, allow_self_join=False)
        names = sorted({v.name for a in q.atoms for v in a.source_vars})
        head = rng.sample(names, rng.randint(0, len(names)))
        q = ConjunctiveQuery.build(
            "Q", head, [(a.relation, [v.name for v in a.source_vars]) for a in q.atoms])
        db = random_database(rng, rels, density=rng.uniform(0.4, 0.8))
        # An acyclic body is free-connex exactly when adding the head edge
        # keeps it acyclic.
        split = free_connex_split(q)
        edges = [frozenset(a.vars) for a in q.atoms] + [frozenset(q.head_vars)]
        assert (split is None) == (_gyo_reduce(edges) is None)
        try:
            plan = ProvenancePlan(q, db)
        except EngineCompatibilityError:
            assert split is None, q.to_text()
            refused += 1
            continue
        assert split is not None, q.to_text()
        nullary += not head
        fast = plan.next(frozenset())
        naive = cqnext_naive(q, db, [], provenance_volume(q, db))
        assert (fast is None) == (naive is None), q.to_text()
        if naive is not None:
            assert fast[1] == naive[1], q.to_text()
    assert refused and nullary  # both sides of the property were exercised


def test_unplannable_decomposition_is_an_engine_mismatch():
    q = parse_cq(TRIANGLE)
    db = db_of({"R": 3, "S": 3, "T": 3},
               [mk("R", "1", "2", "p"), mk("S", "2", "3", "q"), mk("T", "3", "1", "r"),
                mk("R", "2", "3", "p"), mk("S", "3", "1", "q"), mk("T", "1", "2", "r")])
    with pytest.raises(EngineCompatibilityError, match="acyclic query"):
        ProvenancePlan(q, db)
    with pytest.raises(EngineCompatibilityError, match="acyclic query"):
        greedy_combined(q, db, 2, engine="provenance")
    res = greedy_combined(q, db, 2)
    assert res.engine == "naive"
    assert res == greedy_combined(q, db, 2, engine="naive")
    assert res.total == 6


def test_provenance_wrapper_weighting(d3):
    q = parse_cq("Q(x) <- R(x,y).")
    heavy = {mk("R", "a", "b"): Fraction(10)}
    plan = ProvenancePlan(q, d3, weight_of=lambda f: heavy.get(f, Fraction(1)))
    got = plan.next(frozenset())
    ans, gain = got
    assert ans == mk("Q", "a")
    assert gain == 11  # both facts support the single answer


# Combined greedy -------------------------------------------------------------


def positive_prefix(res):
    n = sum(1 for g in res.gains if g > 0)
    return res.selected[:n], res.gains[:n]


def test_combined_auto_uses_provenance_on_projected_query(d1, q1):
    res = greedy_combined(q1, d1, 2)
    assert [tuple(v.text() for v in f.values) for f in res.selected] == [("a", "a")]
    assert res.total == 3


def test_combined_explicit_engine_mismatches_raise(d1, q1):
    with pytest.raises(EngineCompatibilityError):
        greedy_combined(q1, d1, 2, volume=elem_volume(), engine="tropical")
    with pytest.raises(EngineCompatibilityError):
        greedy_combined(q1, d1, 2, volume=pos_volume(), engine="provenance")
    with pytest.raises(EngineCompatibilityError):
        greedy_combined(q1, d1, 2, engine="provenance")  # self-join
    with pytest.raises(InputError):
        greedy_combined(q1, d1, 2, engine="warp")


def test_combined_stops_at_first_zero_gain(d1):
    q = parse_cq("Q(x,y) <- R(x,y).")
    for engine in ("naive", "auto"):
        res = greedy_combined(q, d1, 3, volume=elem_volume(), engine=engine)
        assert res.selected == (mk("Q", "a", "b"),)
        assert res.gains == (2,)
        assert res.engine == "naive"


def test_combined_k_zero(d1, q1):
    res = greedy_combined(q1, d1, 0)
    assert res.selected == () and res.total == 0


def test_combined_tropical_equals_naive_greedy_with_tie_free_weights():
    rng = random.Random(9090)
    for _ in range(15):
        q, rels = random_tree_query(rng, allow_self_join=True)
        db = random_database(rng, rels)
        answers = enumerate_answers(q, db).ordered()
        if not answers:
            continue
        arity = len(q.head_vars)
        weights = {}
        for ans in answers:
            for i, val in enumerate(ans.values, start=1):
                if (val, i) not in weights:
                    weights[(val, i)] = Fraction(rng.randint(1, 10**6))
        v = pos_weighted(weights, Fraction(1))
        k = rng.randint(1, 4)
        fast = greedy_combined(q, db, k, volume=v, engine="tropical")
        slow = greedy_combined(q, db, k, volume=v, engine="naive")
        # zero-gain rounds are all ties, so engines may stop at different
        # points; the positive-gain prefix and the total are determined
        assert positive_prefix(fast) == positive_prefix(slow)
        assert fast.total == slow.total


def test_combined_provenance_equals_naive_on_free_connex_instances():
    rng = random.Random(555)
    for _ in range(10):
        q, db, _ = random_free_connex_instance(rng)
        base = provenance_volume(q, db)
        weights = {f: Fraction(rng.randint(1, 10**6)) for f in db.all_facts()}
        v = VolumeAssignment("provenance", base.ball_fn,
                             WeightedMeasure(weights, Fraction(1)),
                             universe=base.universe)
        k = rng.randint(1, 3)
        fast = greedy_combined(q, db, k, volume=v, engine="provenance")
        slow = greedy_combined(q, db, k, volume=v, engine="naive")
        assert positive_prefix(fast) == positive_prefix(slow)
        assert fast.total == slow.total


def test_combined_auto_falls_back_to_naive_for_elem(d1):
    q = parse_cq("Q(x,y) <- R(x,y).")
    res = greedy_combined(q, d1, 3, volume=elem_volume())
    assert res.total == 2


def test_the_ranker_follows_the_balls_not_the_name():
    db = db_of({"R": 2, "S": 2}, [mk("R", "a", "b"), mk("R", "c", "b"),
                                  mk("S", "b", "d"), mk("S", "b", "a")])
    q = parse_cq("Q(x,y,z) <- R(x,y), S(y,z).")
    elem = elem_volume()
    want = greedy_diversify(enumerate_answers(q, db).answers, 3, elem)
    assert want.gains == (3, 1, 0)
    for name in ("provenance", "pos", "pos-w", "elem"):
        v = VolumeAssignment(name, elem.ball_fn, CountMeasure())
        res = greedy_combined(q, db, 3, volume=v)
        assert (res.selected, res.gains, res.engine) == (want.selected[:2], (3, 1), "naive")
        for engine in ("provenance", "tropical"):
            with pytest.raises(EngineCompatibilityError):
                greedy_combined(q, db, 3, volume=v, engine=engine)
    with pytest.raises(EngineCompatibilityError, match="positional volumes only, not 'pos'"):
        TropicalPlan(q, db, VolumeAssignment("pos", elem.ball_fn, CountMeasure()))
    # Positional balls rank under any name; the provenance ranker serves only
    # the balls built for this query and database.
    assert greedy_combined(q, db, 3, volume=VolumeAssignment(
        "mine", pos_ball, CountMeasure())).engine == "tropical"
    projected = parse_cq("Q(x,y) <- R(x,y), S(y,z).")
    same = provenance_volume(parse_cq("Q(x,y) <- R(x,y), S(y,z)."), db)
    assert greedy_combined(projected, db, 3, volume=same).engine == "provenance"
    copy = db_of({"R": 2, "S": 2}, db.all_facts())
    for v, other in ((provenance_volume(projected, copy), db), (same, copy)):
        res = greedy_combined(projected, other, 3, volume=v)
        assert res == greedy_combined(projected, other, 3, volume=provenance_volume(
            projected, other), engine="naive")


# Six primes near 10^6: weights over them scale by about 10^36, past int64.
PRIMES = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099)


def test_scores_past_int64_stay_exact():
    db = db_of({"A": 2}, [mk("A", x, y) for x in "ab" for y in "ab"])
    q = parse_cq("P(x,y,z) <- A(x,y), A(y,z).")
    points = [(intern(v), pos) for pos in (1, 2, 3) for v in "ab"]
    pos_w = pos_weighted({point: Fraction(p + 7 * i + 1, p) for i, (point, p) in
                          enumerate(zip(points, PRIMES))}, Fraction(0))
    naive = greedy_combined(q, db, 4, volume=pos_w, engine="naive")
    tropical = greedy_combined(q, db, 4, volume=pos_w, engine="tropical")
    assert (tropical.selected, tropical.gains, tropical.total) == \
        (naive.selected, naive.gains, naive.total)
    assert tropical.total == sum(pos_w.measure.weights.values())
    plan = TropicalPlan(q, db, pos_w)
    plan.next(())
    assert plan._cover.dtype is object and plan._cover.scale == math.prod(PRIMES)

    projected = parse_cq("Q(x) <- A(x,y).")
    base = provenance_volume(projected, db)
    facts = db.all_facts()
    weights = {f: Fraction(p + 5 * i + 1, p) for i, (f, p) in enumerate(zip(facts, PRIMES))}
    prov_w = VolumeAssignment("provenance", base.ball_fn, WeightedMeasure(weights, Fraction(0)),
                              universe=base.universe)
    naive = greedy_combined(projected, db, 2, volume=prov_w, engine="naive")
    ranked = greedy_combined(projected, db, 2, volume=prov_w, engine="provenance")
    assert (ranked.selected, ranked.gains, ranked.total) == \
        (naive.selected, naive.gains, naive.total)
    assert ranked.total == sum(weights.values())
    plan = ProvenancePlan(projected, db, weight_of=prov_w.measure.weight_of)
    plan.next(frozenset())
    assert plan._cover.dtype is object

    counted = TropicalPlan(q, db, pos_volume())  # count measures keep int64 scores
    counted.next(())
    assert counted._cover.dtype is np.int64


@pytest.mark.parametrize("volume", [pos_volume(), None])
def test_group_maxima_in_numpy_pick_the_rows_python_picks(monkeypatch, volume):
    # Unit weights tie often; a re-taken group maximum must be its first
    # row of maximal score whichever way it is computed.
    rng = random.Random(12)
    pairs = rng.sample([(u, v) for u in range(30) for v in range(30) if u != v], 300)
    db = db_of({"E": 2, "F": 2}, [mk(r, f"n{u:02d}", f"n{v:02d}") for u, v in pairs
                                  for r in "EF"])
    q = parse_cq("P(a,b,c) <- E(a,b), F(b,c)." if volume else "Q(a,b) <- E(a,b), F(b,c).")
    runs = []
    for cutoff in (0, 10 ** 9):
        monkeypatch.setattr(diverse_cq.optimize, "_PYTHON_MAX_ROWS", cutoff)
        plan = TropicalPlan(q, db, volume) if volume else ProvenancePlan(q, db)
        picks = []
        for _ in range(12):
            answer, gain = plan.best()
            picks.append((answer, gain))
            plan.commit(answer)
        runs.append((picks, plan.rows_rescored))
    assert runs[0] == runs[1]
