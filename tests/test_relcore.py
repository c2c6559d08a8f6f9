import copy
import json
import os
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diverse_cq
from diverse_cq import (Database, Fact, LoadError, Schema, fraction_text, intern,
                        intern_number, load_database)
from diverse_cq.relcore import fact_key

from conftest import db_of, mk


def test_intern_detects_numbers():
    assert intern("3").payload == Fraction(3)
    assert intern("0.5").payload == Fraction(1, 2)
    assert intern("-2").is_number
    assert not intern("a").is_number
    assert intern("3x").payload == "3x"


def test_intern_pools_values():
    assert intern("a") is intern("a")
    assert intern("7") is intern_number(7)
    assert intern("1.0") is intern("1")


def test_values_equal_only_interned_values():
    assert intern("a") != "a"
    assert {intern("a"): 1}.get("a") is None
    assert intern("1") != Fraction(1)


def test_separately_built_facts_are_equal():
    a = Fact("R", [intern("1.0"), intern("x")])
    b = Fact("R", (intern(v) for v in ("1", "x")))
    assert a == b and hash(a) == hash(b)
    assert a != Fact("S", a.values)


def test_value_ordering_numbers_before_text():
    vals = [intern(x) for x in ("b", "10", "a", "2")]
    assert [v.text() for v in sorted(vals)] == ["2", "10", "a", "b"]


def test_fraction_text():
    assert fraction_text(Fraction(4)) == "4"
    assert fraction_text(Fraction(-3, 2)) == "-3/2"


def test_fact_identity_and_order():
    assert mk("R", "a", "b") == mk("R", "a", "b")
    assert hash(mk("R", "a")) == hash(mk("R", "a"))
    assert mk("R", "a", "b") < mk("R", "a", "c") < mk("S", "a", "a")
    assert mk("R", "a", "b").arity == 2


def test_fact_is_the_named_tuple_of_relation_and_values():
    f = Fact("R", [intern("a"), intern("2.5")])
    assert f == ("R", f.values) and len(f) == 2 and f.arity == 2
    assert f._fields == ("relation", "values") and repr(f) == "R(a,5/2)"
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert type(g) is Fact and g == f and g.values[0] is f.values[0]


FACT_ROWS = st.lists(st.tuples(st.sampled_from(["R", "S", "T"]),
                               st.lists(st.sampled_from(["a", "b", "x1", "1x", "Z", "-3", "0",
                                                         "2", "12", "0.5", "1.0", "2.50"]),
                                        min_size=1, max_size=3)),
                     max_size=30)


@settings(max_examples=200, deadline=None)
@given(FACT_ROWS)
def test_facts_hash_and_order_as_before(rows):
    facts = [Fact(rel, [intern(c) for c in cells]) for rel, cells in rows]
    # tuple order is the order of the values' sort keys; the hash is the tuple's
    assert sorted(facts) == sorted(
        facts, key=lambda f: (f.relation, [v.sort_key for v in f.values]))
    for f in facts:
        assert hash(f) == hash((f.relation, f.values))
        assert f == Fact(f.relation, list(f.values))


@settings(max_examples=200, deadline=None)
@given(FACT_ROWS, st.randoms(use_true_random=False))
def test_fact_key_orders_as_sorted(rows, rng):
    facts = [Fact(rel, [intern(c) for c in cells]) for rel, cells in rows]
    rng.shuffle(facts)
    assert sorted(facts, key=fact_key) == sorted(facts)


def test_schema_contains_and_arity():
    s = Schema({"R": 2, "S": 1})
    assert "R" in s and "T" not in s
    assert s.arity("S") == 1


def test_database_from_facts_dedups_and_sorts():
    db = db_of({"R": 1}, [mk("R", "b"), mk("R", "a"), mk("R", "b")])
    assert mk("R", "a") in db
    assert mk("R", "c") not in db and mk("U", "a") not in db
    assert not db._relations  # membership searches the code columns, decoding no fact
    assert [f.values[0].text() for f in db.relation("R")] == ["a", "b"]
    assert db.size("R") == 2


CELLS = st.one_of(st.sampled_from(["a", "b", "x1", "1x", "Z"]),
                  st.integers(-3, 12).map(str),
                  st.sampled_from(["0.5", "1.0", "2.50", "-0.25", "1e1"]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(CELLS, CELLS), max_size=25))
def test_relation_is_sorted_facts(rows):
    facts = [Fact("R", [intern(c) for c in row]) for row in rows]
    db = Database(Schema({"R": 2}), {"R": facts})
    assert list(db.relation("R")) == sorted(set(facts))


def test_database_rejects_wrong_arity():
    with pytest.raises(LoadError):
        db_of({"R": 2}, [mk("R", "a")])


def test_database_lookup_index():
    db = db_of({"R": 2}, [mk("R", "a", "b"), mk("R", "a", "c"), mk("R", "b", "b")])
    hits = db.lookup("R", 0, intern("a"))
    assert sorted(hits) == [mk("R", "a", "b"), mk("R", "a", "c")]
    assert db.lookup("R", 1, intern("z")) == ()


def test_code_columns_rank_values_and_are_built_at_construction():
    db = db_of({"R": 2, "S": 1, "T": 3}, [mk("R", "b", "10"), mk("R", "2", "a"),
                                          mk("R", "b", "2"), mk("S", "c")])
    assert sorted(db._codes) == ["R", "S", "T"]  # every relation's, read-only, at load
    assert not any(c.flags.writeable for c in db._codes.values())
    assert not db._relations  # no fact is decoded at construction
    assert db.fact_id(mk("R", "b", "2")) == 1 and mk("S", "c") in db
    assert not db._relations  # nor by `fact_id` and `in`, which search the code columns
    assert db.values == sorted({v for f in db.all_facts() for v in f.values})
    assert [v.text() for v in db.values] == ["2", "10", "a", "b", "c"]  # numbers first
    codes = db.codes("R")
    assert codes.dtype == np.int64 and codes.shape == (2, 3) and not codes.flags.writeable
    assert [[db.values[c] for c in col] for col in codes.tolist()] == \
        [[f.values[j] for f in db.relation("R")] for j in range(2)]
    assert db.codes("R") is codes and db.codes("T").shape == (3, 0)
    assert db.code(intern("a")) == 2 and db.code(intern("zz")) is None
    for i, f in enumerate(db.facts()):
        assert db.fact_id(f) == i and db.fact(i) == f
    assert db.facts() == tuple(db.all_facts())
    assert db.fact_id(mk("S", "b")) is None and db.fact_id(mk("U", "b")) is None
    assert db.offset("S") == 3


def test_load_database_round_trip(tmp_path):
    (tmp_path / "schema.txt").write_text("R/2\nS/1\n")
    (tmp_path / "R.csv").write_text("a,b\na,b\n1,2\n")
    (tmp_path / "S.csv").write_text("x\n")
    db = load_database(tmp_path)
    assert db.size("R") == 2 and db.size("S") == 1
    assert mk("R", "1", "2") in db
    assert db.load_report["R"]["rows_read"] == 3
    assert db.load_report["R"]["rows_kept"] == 2


def test_load_database_errors(tmp_path):
    with pytest.raises(LoadError):
        load_database(tmp_path / "nowhere")
    (tmp_path / "schema.txt").write_text("R+2\n")
    with pytest.raises(LoadError, match="Name/arity"):
        load_database(tmp_path)
    (tmp_path / "schema.txt").write_text("R/2\n")
    (tmp_path / "R.csv").write_text("a,b,c\n")
    with pytest.raises(LoadError, match="expected 2"):
        load_database(tmp_path)


def test_load_database_requires_every_relation_file(tmp_path):
    (tmp_path / "schema.txt").write_text(textwrap.dedent("""\
        R/2
        S/1
        """))
    (tmp_path / "R.csv").write_text("a,b\n")
    with pytest.raises(LoadError, match="missing relation file"):
        load_database(tmp_path)


def _write_db(root: Path, cell) -> Path:
    """Three binary relations of 30 seeded pairs over eight values."""
    import random
    rng = random.Random(4)
    root.mkdir()
    (root / "schema.txt").write_text("R/2\nS/2\nT/2\n")
    for rel in "RST":
        pairs = {(rng.randrange(8), rng.randrange(8)) for _ in range(30)}
        (root / f"{rel}.csv").write_text(
            "".join(f"{cell(a)},{cell(b)}\n" for a, b in sorted(pairs)))
    return root


def test_diversify_output_does_not_depend_on_hashing(tmp_path):
    # Values hash by identity, so set order varies with object addresses
    # as well as with the string hash seed; reports must not.
    dbs = [_write_db(tmp_path / "text", lambda v: f"v{v}"),
           _write_db(tmp_path / "nums", lambda v: f"{v}.5" if v % 3 else str(v))]
    argvs = [["diversify", "--data", str(db), "--query", query, "-k", "4", *flags]
             for db in dbs
             for query, flags in (
                 ("Q(x,y) <- R(x,y), S(y,z), T(z,w).", ["--mode", "greedy-combined"]),
                 ("P(x,y,z) <- R(x,y), S(y,z).",
                  ["--mode", "greedy-combined", "--volume", "pos"]),
                 ("Q(x,w) <- R(x,y), S(y,w).", ["--volume", "provenance", "--lazy"]),
                 ("Q(x,y) <- R(x,y), S(y,z), T(z,x).", ["--volume", "elem"]))]
    script = ("import io, json, sys\n"
              "from contextlib import redirect_stdout\n"
              "from diverse_cq import cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    out = io.StringIO()\n"
              "    with redirect_stdout(out):\n"
              "        assert cli.main(argv) == 0\n"
              "    doc = json.loads(out.getvalue())\n"
              "    del doc['timings']\n"
              "    print(json.dumps(doc, sort_keys=True))\n")
    src = str(Path(diverse_cq.__file__).parents[1])
    outputs = set()
    for seed in ("0", "1", "123"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              capture_output=True, text=True, env=env, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    assert len(outputs.pop().splitlines()) == len(argvs)
