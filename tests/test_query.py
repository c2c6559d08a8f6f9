import random

import pytest

import diverse_cq
from diverse_cq import (ConjunctiveQuery, QueryParseError, Schema, free_connex_split,
                        gyo_join_tree, parse_cq, query)
from diverse_cq.query import _connex_rooting, _gyo_reduce, _preorder, _reroot

from conftest import random_tree_query


def assert_join_tree(q, parents):
    """Every re-rooting of `parents` is a join tree of `q`, node `i`
    holding atom `i`: one tree, and the nodes holding each variable are
    connected, so exactly one of them has its parent outside the set."""
    assert len(parents) == len(q.atoms)
    for r in range(len(parents)):
        tree = _reroot(parents, r)
        assert tree[r] is None and tree.count(None) == 1
        assert sorted(_preorder(tree)[0]) == list(range(len(tree)))  # no cycle
        for v in q.variables:
            holders = {i for i, a in enumerate(q.atoms) if v in a.vars}
            assert len([u for u in holders if tree[u] not in holders]) == 1, (v, r)


def test_parse_round_trip():
    q = parse_cq("Q1(x,y) <- R(x,z), R(z,y).")
    assert q.to_text() == "Q1(x,y) <- R(x,z), R(z,y)."
    assert q.head_name == "Q1"
    assert [v.name for v in q.head_vars] == ["x", "y"]
    assert not q.is_full and not q.is_self_join_free


def test_parse_errors_carry_positions():
    with pytest.raises(QueryParseError, match=r"at position 5"):
        parse_cq("Q(x <- R(x).")
    with pytest.raises(QueryParseError, match="end of input"):
        parse_cq("Q(x) <- R(x)")
    with pytest.raises(QueryParseError, match="constants"):
        parse_cq("Q(x) <- R(x, 'b').")
    with pytest.raises(QueryParseError) as info:
        parse_cq("Q(x) ; R(x).")
    assert info.value.position == 6


def test_parse_checks_schema_arity():
    schema = Schema({"R": 2})
    parse_cq("Q(x) <- R(x,y).", schema=schema)
    with pytest.raises(QueryParseError, match="expects 2 arguments"):
        parse_cq("Q(x) <- R(x,y,z).", schema=schema)
    with pytest.raises(QueryParseError, match="not declared in the schema"):
        parse_cq("Q(x) <- S(x).", schema=schema)


def test_head_vars_must_occur_in_body():
    with pytest.raises(QueryParseError, match="head"):
        parse_cq("Q(x,w) <- R(x,y).")


def test_duplicate_variable_rewriting():
    q = parse_cq("Q(x) <- R(x,x).")
    atom = q.atoms[0]
    assert [v.name for v in atom.source_vars] == ["x", "x"]
    assert len(set(atom.vars)) == 2
    assert atom.eq_positions == ((0, 1),)
    assert q.is_full  # fullness is judged on the variables as written


def test_build_avoids_capturing_existing_names():
    q = ConjunctiveQuery.build("Q", ["x", "x_2"], [("R", ["x", "x"]), ("S", ["x_2"])])
    names = [v.name for v in q.atoms[0].vars]
    assert names[0] == "x" and names[1] not in ("x", "x_2")


def test_gyo_accepts_paths_rejects_cycles():
    path = parse_cq("Q(x,y,z) <- R(x,y), S(y,z).")
    parents = gyo_join_tree(path)
    assert parents == [1, None]
    assert_join_tree(path, parents)
    triangle = parse_cq("Q(x,y,z) <- R(x,y), S(y,z), T(z,x).")
    assert gyo_join_tree(triangle) is None
    assert free_connex_split(triangle) is None


def test_random_tree_queries_are_acyclic():
    rng = random.Random(20260821)
    for _ in range(150):
        q, _ = random_tree_query(rng, allow_self_join=True)
        parents = gyo_join_tree(q)
        assert parents is not None
        assert_join_tree(q, parents)


def test_rerooting_preserves_validity():
    q = parse_cq("Q(x,y,z,w) <- R(x,y), S(y,z), T(z,w).")
    parents = gyo_join_tree(q)
    assert parents == [1, 2, None]
    assert [_reroot(parents, r) for r in range(3)] == [
        [None, 0, 1], [1, None, 1], [1, 2, None]]
    assert_join_tree(q, parents)


def test_connex_rooting_tries_the_built_tree_then_rerootings_in_node_order():
    # The built tree R - S - T is rooted at T, which is not in the head.
    # Re-rooting at R and at S both give a connex part {R, S}; R comes first.
    q = parse_cq("Q(x,y) <- R(x,y), S(x,y), T(y,z).")
    parents = gyo_join_tree(q)
    assert parents == [1, 2, None]
    bags = [frozenset(a.vars) for a in q.atoms]
    headset = frozenset(q.head_vars)
    assert _connex_rooting(_reroot(parents, 1), bags, headset) == (
        [1, None, 1], frozenset({0, 1}))
    assert _connex_rooting(parents, bags, headset) == ([None, 0, 1], frozenset({0, 1}))


def test_free_connex_full_queries_always_pass():
    q = parse_cq("Q(x,y,z) <- R(x,y), S(y,z).")
    assert free_connex_split(q) == ([0, 1], [])


def test_free_connex_projection_with_hanging_component():
    # Neither rooting of the body tree has a connex part, so the split
    # comes from the extended tree: both atoms hang below the head node.
    q = parse_cq("Q(x) <- R(x,z), S(z,w).")
    assert free_connex_split(q) == ([], [([0, 1], [None, 0])])


def test_free_connex_split_over_the_extended_tree():
    # The body tree S - R - T has no connex root: R holds z, and neither
    # S nor T alone covers the head.  The extended tree roots at the
    # head edge {x, y}, with S and T connex and R hanging below it.
    q = parse_cq("Q(x,y) <- R(x,y,z), S(x), T(y).")
    assert _connex_rooting(gyo_join_tree(q), [frozenset(a.vars) for a in q.atoms],
                           frozenset(q.head_vars)) is None
    assert free_connex_split(q) == ([1, 2], [([0], [None])])


def test_composition_of_two_paths_is_not_free_connex():
    q = parse_cq("Q(x,y) <- R(x,z), R(z,y).")
    assert gyo_join_tree(q) is not None
    assert free_connex_split(q) is None
    # ... because the extended hypergraph is cyclic.
    assert _gyo_reduce([frozenset(a.vars) for a in q.atoms] + [frozenset(q.head_vars)]) is None


def test_extended_gyo_handles_disconnected_bodies():
    assert free_connex_split(parse_cq("Q(x,y) <- R(x), S(y).")) == ([0, 1], [])
    # Here only the extended tree has a connex part, and it joins the two
    # halves of the body through the head node.
    q = parse_cq("Q(x,y) <- R(x,z), S(y,w).")
    assert free_connex_split(q) == ([], [([0], [None]), ([1], [None])])


def test_public_names_import():
    namespace: dict = {}
    exec("from diverse_cq import *", namespace)
    assert set(diverse_cq.__all__) <= set(namespace)
    # Join trees are parent lists, so the query module exports no class
    # or helper for them beyond these two functions.
    from_query = {name for name in diverse_cq.__all__
                  if getattr(getattr(diverse_cq, name), "__module__", None) == query.__name__}
    assert from_query == {"Atom", "ConjunctiveQuery", "Variable", "free_connex_split",
                          "gyo_join_tree", "parse_cq"}
