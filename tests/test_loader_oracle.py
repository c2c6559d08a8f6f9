"""`load_database` against the loader it replaced.

`load_database` interns each distinct raw cell once, and `Database`
encodes the relations at construction: one sorted value list, code
columns, and a fact order from `np.lexsort` over the codes.
`reference_load` is the earlier loader, kept as the oracle: one
`intern(cell.strip())` per cell, relations sorted by their values' sort
keys, and a dictionary encoding built afterwards from those facts.
"""

import tempfile
from itertools import chain
from operator import attrgetter
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diverse_cq import Fact, Schema, intern, load_database


def reference_load(directory: Path):
    """(relations, values, codes, facts, load report) of the CSV database
    under `directory`, the way the earlier loader and `Database` built them."""
    schema = Schema.load(directory / "schema.txt")
    relations, report = {}, {}
    for name in sorted(schema.arities):
        arity = schema.arity(name)
        facts = []
        for line in (directory / f"{name}.csv").read_text().splitlines():
            row = line.split(",")
            if all(cell.strip() == "" for cell in row):
                continue
            facts.append(Fact(name, [intern(cell.strip()) for cell in row]))
        report[name] = {"rows_read": len(facts), "rows_kept": len(set(facts)), "arity": arity}
        relations[name] = tuple(sorted(set(facts), key=lambda f: [v.sort_key for v in f.values]))
    values = sorted({v for facts in relations.values() for f in facts for v in f.values},
                    key=attrgetter("sort_key"))
    code = {v: i for i, v in enumerate(values)}
    codes = {name: np.array([[code[f.values[j]] for f in facts]
                             for j in range(schema.arity(name))], dtype=np.int64)
             for name, facts in relations.items()}
    facts = tuple(chain.from_iterable(relations[name] for name in sorted(relations)))
    return relations, values, codes, facts, report


# "1.0", "1e1", "10.0" and "+2" read as the numbers "1", "10" and "2".
CELL = st.tuples(st.sampled_from(["", " ", "  "]),
                 st.sampled_from(["a", "b", "x1", "1x", "Z", "ab", "1", "1.0", "10", "1e1",
                                  "10.0", "-3", "0.5", ".5", "+2", "2", "0"]),
                 st.sampled_from(["", " "])).map("".join)


@st.composite
def csv_databases(draw):
    """A schema of one to three relations and each one's CSV lines: rows
    of padded numeric and text cells, some repeated, and blank lines."""
    names = draw(st.lists(st.sampled_from("RSTU"), min_size=1, max_size=3, unique=True))
    tables = {}
    for name in names:
        arity = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(CELL, min_size=arity, max_size=arity).map(",".join),
                             max_size=15))
        if rows:
            rows += draw(st.lists(st.sampled_from(rows), max_size=5))  # repeated rows
        rows += draw(st.lists(st.sampled_from(["", " ", ",".join([" "] * arity)]), max_size=2))
        tables[name] = (arity, draw(st.permutations(rows)))
    return tables


@settings(max_examples=150, deadline=None)
@given(csv_databases())
def test_load_database_matches_the_reference_loader(tables):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "schema.txt").write_text("".join(f"{n}/{a}\n" for n, (a, _) in tables.items()))
        for name, (_, rows) in tables.items():
            (root / f"{name}.csv").write_text("".join(f"{r}\n" for r in rows))
        relations, values, codes, facts, report = reference_load(root)
        db = load_database(root)
    assert db.facts() == facts
    assert db.values == values
    assert db.load_report == report
    for name in tables:
        assert db.relation(name) == relations[name]
        got = db.codes(name)
        assert got.dtype == np.int64 and got.shape == codes[name].shape
        assert np.array_equal(got, codes[name])
