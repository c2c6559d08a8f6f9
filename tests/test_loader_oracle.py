"""`load_database` against the loaders it replaced.

`load_database` reads each CSV file straight into code columns: every
distinct raw cell is stripped and interned once, and each relation is
deduplicated and ordered by one `np.lexsort` over its codes.  Two
earlier loaders are kept as oracles.  `reference_load` builds one
`intern(cell.strip())` per cell, sorts the relations by their values'
sort keys and derives the dictionary encoding from those facts.
`previous_load` is the loader that built one `Fact` per CSV row and
handed the rows to `Database`; its `LoadError` texts are the ones
`load_database` must keep.
"""

import csv
import tempfile
from itertools import chain
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverse_cq import Database, Fact, LoadError, Schema, intern, load_database


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


def previous_load(directory: Path) -> Database:
    """The loader that built one `Fact` per CSV row, row by row."""
    schema = Schema.load(directory / "schema.txt")
    relations: dict[str, list[Fact]] = {}
    for name in sorted(schema.arities):
        arity = schema.arity(name)
        path = directory / f"{name}.csv"
        relations[name] = facts = []
        try:
            with path.open(newline="", encoding="utf-8") as handle:
                for lineno, row in enumerate(csv.reader(handle), start=1):
                    if not "".join(row).strip():  # blank, or blank cells only
                        continue
                    if len(row) != arity:
                        raise LoadError(
                            f"{path}, line {lineno}: expected {arity} values, got {len(row)}")
                    facts.append(Fact(name, [intern(cell.strip()) for cell in row]))
        except csv.Error as exc:
            raise LoadError(f"{path}: malformed CSV ({exc})") from exc
    db = Database(schema, relations)
    db.load_report = {name: {"rows_read": len(facts), "rows_kept": db.size(name),
                             "arity": schema.arity(name)} for name, facts in relations.items()}
    return db


def outcome(load, root: Path):
    """What a loader makes of the database under `root`: its error text, or
    its facts, values, code columns and load report."""
    try:
        db = load(root)
    except LoadError as exc:
        return "error", str(exc)
    codes = {name: db.codes(name).tolist() for name in db.schema.arities}
    return "db", db.facts(), db.values, codes, db.load_report


# Unquoted cells are padded where they are written; a quoted cell keeps its
# commas and inner spaces, and is never padded, which would unquote it.
CORE = st.sampled_from(["a", "b", "x1", "1", "1.0", "10", "1e1", "-3", ".5", "+2", "0"])
QUOTED = st.sampled_from(['"a,b"', '"1,0"', '" x "', '"a"', '""', '"q, r, s"', '"b"'])
PAD = st.sampled_from(["", " ", "  ", "\t"])
BLANK_ROWS = st.sampled_from(["", " ", " , ", ",", ",,", " , , ", "\t,"])


@st.composite
def padded(draw, row):
    return ",".join(cell if cell.startswith('"') else draw(PAD) + cell + draw(PAD)
                    for cell in row)


@st.composite
def awkward_databases(draw):
    """A schema of one to three relations and each one's CSV text: rows of
    plain and quoted cells, some repeated with other padding, blank rows
    of any width, empty lines, either line ending, and now and then a row
    of the wrong width."""
    names = draw(st.lists(st.sampled_from("RSTU"), min_size=1, max_size=3, unique=True))
    tables = {}
    for name in names:
        arity = draw(st.integers(1, 3))
        rows = draw(st.lists(st.lists(st.one_of(CORE, QUOTED), min_size=arity,
                                      max_size=arity), max_size=10))
        if rows:
            rows += draw(st.lists(st.sampled_from(rows), max_size=5))  # repeated rows
        lines = [draw(padded(row)) for row in rows]
        lines += draw(st.lists(BLANK_ROWS, max_size=3))
        if draw(st.integers(0, 9)) == 0:
            width = draw(st.sampled_from([w for w in (1, 2, 3, 4) if w != arity]))
            lines.append(draw(padded(draw(st.lists(CORE, min_size=width, max_size=width)))))
        ending = draw(st.sampled_from(["\n", "\r\n"]))
        text = ending.join(draw(st.permutations(lines)))
        tables[name] = (arity, text + draw(st.sampled_from(["", ending])))
    return tables


@settings(max_examples=200, deadline=None)
@given(awkward_databases())
def test_load_database_matches_the_previous_loader_on_awkward_csv(tables):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "schema.txt").write_text("".join(f"{n}/{a}\n" for n, (a, _) in tables.items()))
        for name, (_, text) in tables.items():
            (root / f"{name}.csv").write_bytes(text.encode())
        assert outcome(load_database, root) == outcome(previous_load, root)


LONG = '"' + "y" * (csv.field_size_limit() + 1) + '"'


@pytest.mark.parametrize("text", [
    "a,b\n\n c , d \na,b,c\n",  # the wrong width after an empty line
    " , , \n\r\na\n",  # a row of blank cells, then a row too narrow
    f"a,b\n{LONG},b\n",  # a field past the csv module's limit
    f"a\n{LONG},b\n",  # the wrong width before the malformed line
    f"{LONG},b\na\n",  # the malformed line before the wrong width
])
def test_load_errors_keep_the_previous_loader_text(tmp_path, text):
    (tmp_path / "schema.txt").write_text("R/2\nS/1\n")
    (tmp_path / "R.csv").write_bytes(text.encode())
    (tmp_path / "S.csv").write_text("x\n")
    got, want = outcome(load_database, tmp_path), outcome(previous_load, tmp_path)
    assert got[0] == "error" and got == want
