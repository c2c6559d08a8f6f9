import random

import pytest

from diverse_cq import (ConjunctiveQuery, QueryParseError, Schema,
                        extended_gyo_decomposition, free_connex_subtree, gyo_join_tree,
                        parse_cq)

from conftest import random_tree_query


def assert_join_tree(q, td):
    """Node `i` holds atom `i`, and the nodes holding each variable are
    connected: exactly one of them has its parent outside the set."""
    assert [n.bag for n in td.nodes] == [frozenset(a.vars) for a in q.atoms]
    for v in q.variables:
        holders = {n.ident for n in td.nodes if v in n.bag}
        assert len([u for u in holders if td.nodes[u].parent not in holders]) == 1, v


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
    td = gyo_join_tree(path)
    assert td is not None
    assert_join_tree(path, td)
    triangle = parse_cq("Q(x,y,z) <- R(x,y), S(y,z), T(z,x).")
    assert gyo_join_tree(triangle) is None
    assert free_connex_subtree(triangle) is None


def test_random_tree_queries_are_acyclic():
    rng = random.Random(20260821)
    for _ in range(150):
        q, _ = random_tree_query(rng, allow_self_join=True)
        td = gyo_join_tree(q)
        assert td is not None
        assert_join_tree(q, td)


def test_rerooting_preserves_validity():
    q = parse_cq("Q(x,y,z,w) <- R(x,y), S(y,z), T(z,w).")
    td = gyo_join_tree(q)
    for node in td.nodes:
        flipped = td.rerooted(node.ident)
        assert flipped.root_id == node.ident
        assert_join_tree(q, flipped)


def test_free_connex_full_queries_always_pass():
    q = parse_cq("Q(x,y,z) <- R(x,y), S(y,z).")
    fc = free_connex_subtree(q)
    assert fc is not None
    assert fc.hanging_components() == []


def test_free_connex_projection_with_hanging_component():
    q = parse_cq("Q(x) <- R(x,z), S(z,w).")
    fc = free_connex_subtree(q)
    assert fc is not None
    hanging = fc.hanging_components()
    assert len(hanging) == 1
    covered = {i for comp in hanging for i in comp}
    assert covered <= {0, 1} and covered


def test_composition_of_two_paths_is_not_free_connex():
    q = parse_cq("Q(x,y) <- R(x,z), R(z,y).")
    assert free_connex_subtree(q) is None
    assert extended_gyo_decomposition(q) is None


def test_extended_gyo_handles_disconnected_bodies():
    q = parse_cq("Q(x,y) <- R(x), S(y).")
    fc = extended_gyo_decomposition(q)
    assert fc is not None
