"""Relational core: interned data values, facts, schemas, and databases.

Every cell is interned to one canonical `DataValue` per payload, and
values compare and hash by identity: the intern pool is the dictionary
encoding, so hashing a value, a row of values or a fact's values runs in
C.  A fact is the named tuple `(relation, values)`, and it hashes,
compares and orders as that tuple, also in C.  Databases are immutable
once built: relations are deduplicated fact sets under set semantics,
and every column carries a hash index, built on the relation's first
probe, so the backtracking join can probe by bound value instead of
scanning.

For the set-at-a-time steps of the join-tree evaluator and rankers, a
database also keeps one int64 numpy code column per relation position:
a value's code is its rank in the database's sorted value order, so
code order is value order and a row of codes orders as its facts do.
The columns are built on first use, never at load.  They serve only
vectorized joins, groupings and sorts; answers, ball points and dict
keys stay identity-hashed `DataValue`s, decoded from a code by one list
index, so no Python-level code layer sits beside the intern pool.
"""

from __future__ import annotations

import csv
import re
from collections import namedtuple
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from itertools import chain
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import LoadError

_NUMBER_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?\Z")

_SENTINEL = object()


class DataValue:
    """A constant appearing in some database column.

    The payload is either an exact decimal (stored as a Fraction) or a
    text symbol.  Parsing tries the numeric reading first, so "1.0" and
    "1" intern to the same value while "x1" stays text.  Construction
    goes through :func:`intern`; equal payloads share one object, so
    equality is identity, and hashing runs in C instead of in a Python
    method.  A value never equals a raw payload: `intern("a") != "a"`.
    """

    __slots__ = ("payload", "sort_key")

    _pool: dict = {}

    def __init__(self, payload, _guard=None):
        if _guard is not _SENTINEL:
            raise TypeError("DataValue instances are created via intern()")
        self.payload = payload
        # Numbers order before text; ordering never compares across kinds.
        kind = 0 if isinstance(payload, Fraction) else 1
        self.sort_key = (kind, payload)

    @property
    def is_number(self) -> bool:
        return isinstance(self.payload, Fraction)

    def text(self) -> str:
        """Canonical display form (used by the CLI and reprs)."""
        if isinstance(self.payload, Fraction):
            return fraction_text(self.payload)
        return self.payload

    def __lt__(self, other):
        if not isinstance(other, DataValue):
            return NotImplemented
        return self.sort_key < other.sort_key

    def __le__(self, other):
        if not isinstance(other, DataValue):
            return NotImplemented
        return self.sort_key <= other.sort_key

    def __reduce__(self):
        # copies and unpickled values are the pooled value, so they stay equal
        return _pooled, (self.payload,)

    def __repr__(self):
        return f"DataValue({self.text()!r})"


def fraction_text(q: Fraction) -> str:
    """Render a Fraction compactly: integers bare, otherwise num/den."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def intern(text: str) -> DataValue:
    """Return the canonical DataValue for a raw cell.

    Total over all inputs: numeric-looking payloads become exact
    decimals, everything else is kept as text.
    """
    if isinstance(text, DataValue):
        return text
    raw = str(text)
    if _NUMBER_RE.match(raw):
        try:
            return _pooled(Fraction(Decimal(raw)))
        except InvalidOperation:  # pragma: no cover - regex forbids this
            pass
    return _pooled(raw)


def intern_number(number) -> DataValue:
    """Intern an int/Fraction directly (used by generators and tests)."""
    return _pooled(Fraction(number))


def _pooled(payload) -> DataValue:
    """The one value of `payload`, made on first use."""
    value = DataValue._pool.get(payload)
    if value is None:
        value = DataValue._pool[payload] = DataValue(payload, _guard=_SENTINEL)
    return value


class Fact(namedtuple("Fact", ("relation", "values"))):
    """A ground tuple R(a1, ..., an): the pair (relation name, interned values).

    Equality, hashing and ordering are the tuple's.  Values are interned,
    so the first value in which two facts differ also differs in its
    `sort_key`, and facts of one relation order by their values' sort keys.
    """

    __slots__ = ()

    def __new__(cls, relation: str, values: Iterable[DataValue]):
        return super().__new__(cls, relation, tuple(values))

    @property
    def arity(self) -> int:
        return len(self.values)

    def __repr__(self):
        inner = ",".join(v.text() for v in self.values)
        return f"{self.relation}({inner})"


def fact_key(fact: Fact) -> tuple:
    """A key that orders facts as `sorted()` does, with every comparison
    in C: the relation, then its values' sort keys.  Values are interned,
    so two facts first differ in a value whose sort key differs too."""
    return fact.relation, tuple([v.sort_key for v in fact.values])


_SCHEMA_LINE_RE = re.compile(r"([A-Za-z_]\w*)\s*/\s*(\d+)\Z")


@dataclass(frozen=True)
class Schema:
    """Relation name -> arity map."""

    arities: Mapping[str, int]

    def __post_init__(self):
        for name, arity in self.arities.items():
            if arity < 1:
                raise LoadError(f"relation {name}: arity must be positive, got {arity}")

    def arity(self, relation: str) -> int:
        try:
            return self.arities[relation]
        except KeyError:
            raise LoadError(f"unknown relation {relation!r}") from None

    def __contains__(self, relation: str) -> bool:
        return relation in self.arities

    @classmethod
    def parse(cls, text: str, source: str = "<schema>") -> "Schema":
        arities: dict[str, int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            m = _SCHEMA_LINE_RE.match(line)
            if m is None:
                raise LoadError(f"{source}, line {lineno}: expected 'Name/arity', got {line!r}")
            name, arity = m.group(1), int(m.group(2))
            if name in arities:
                raise LoadError(f"{source}, line {lineno}: duplicate declaration of {name}")
            if arity < 1:
                raise LoadError(f"{source}, line {lineno}: arity must be positive")
            arities[name] = arity
        if not arities:
            raise LoadError(f"{source}: no relation declarations found")
        return cls(arities)

    @classmethod
    def load(cls, path: Path) -> "Schema":
        path = Path(path)
        if not path.is_file():
            raise LoadError(f"missing schema file {path}")
        return cls.parse(path.read_text(encoding="utf-8"), source=str(path))


class Database:
    """Immutable collection of relations with per-column value indexes,
    each relation's built on its first probe."""

    __slots__ = ("schema", "_relations", "_index", "load_report",
                 "_values", "_code", "_codes", "_offsets", "_rows", "_facts")

    def __init__(self, schema: Schema, relations: Mapping[str, Iterable[Fact]],
                 load_report: Mapping[str, dict] | None = None):
        self.schema = schema
        rels: dict[str, tuple[Fact, ...]] = {}
        for name in schema.arities:
            facts = sorted(set(relations.get(name, ())),
                           key=lambda f: [v.sort_key for v in f.values])
            arity = schema.arity(name)
            for f in facts:
                if f.relation != name:
                    raise LoadError(f"fact {f!r} filed under relation {name}")
                if f.arity != arity:
                    raise LoadError(f"fact {f!r}: expected arity {arity}, got {f.arity}")
            rels[name] = tuple(facts)
        self._relations = rels
        self._index: dict[str, tuple[dict, ...]] = {}  # built by the first `lookup`
        self.load_report = dict(load_report or {})
        self._values: list[DataValue] | None = None  # built on first use
        self._code: dict[DataValue, int] = {}
        self._codes: dict[str, np.ndarray] = {}
        self._offsets: dict[str, int] | None = None  # built by the first `offset`
        self._rows: dict[str, dict] = {}  # per relation, fact -> row; built by `_row`
        self._facts: tuple[Fact, ...] | None = None

    def relation(self, name: str) -> tuple[Fact, ...]:
        """All facts of a relation in sorted order."""
        try:
            return self._relations[name]
        except KeyError:
            raise LoadError(f"unknown relation {name!r}") from None

    def size(self, name: str) -> int:
        return len(self.relation(name))

    def lookup(self, name: str, column: int, value: DataValue) -> tuple[Fact, ...]:
        """Facts of `name` whose `column` holds `value` (hash probe)."""
        index = self._index.get(name)
        if index is None:
            cols = []
            for c in range(self.schema.arity(name)):
                col: dict = {}
                for f in self.relation(name):
                    col.setdefault(f.values[c], []).append(f)
                cols.append({v: tuple(fs) for v, fs in col.items()})
            index = self._index[name] = tuple(cols)
        return index[column].get(value, ())

    def __contains__(self, fact: Fact) -> bool:
        return self._row(fact) is not None

    def _row(self, fact: Fact) -> int | None:
        """The fact's index in its relation, or None when it is not stored."""
        rows = self._rows.get(fact.relation)
        if rows is None:
            facts = self._relations.get(fact.relation)
            if facts is None:
                return None
            rows = self._rows[fact.relation] = dict(zip(facts, range(len(facts))))
        return rows.get(fact)

    def _encoding(self) -> tuple[list[DataValue], dict[DataValue, int]]:
        if self._values is None:
            cells = chain.from_iterable(map(itemgetter(1), chain.from_iterable(
                self._relations.values())))
            self._values = sorted(set(cells), key=attrgetter("sort_key"))
            self._code = dict(zip(self._values, range(len(self._values))))
        return self._values, self._code

    @property
    def values(self) -> list[DataValue]:
        """Every value of the database in sorted order: code -> value."""
        return self._encoding()[0]

    def code(self, value: DataValue) -> int | None:
        """The value's code, or None when no fact holds it."""
        return self._encoding()[1].get(value)

    def codes(self, name: str) -> np.ndarray:
        """The relation's code columns as one read-only int64 array of
        shape (arity, facts): row `j` is position `j`, in fact order."""
        got = self._codes.get(name)
        if got is None:
            facts = self.relation(name)
            cells = chain.from_iterable(map(itemgetter(1), facts))
            arity = self.schema.arity(name)
            flat = np.fromiter(map(self._encoding()[1].__getitem__, cells), np.int64,
                               count=arity * len(facts))
            got = self._codes[name] = np.ascontiguousarray(flat.reshape(-1, arity).T)
            got.setflags(write=False)
        return got

    def offset(self, name: str) -> int:
        """Index in `facts()` of the relation's first fact."""
        if self._offsets is None:
            self._offsets, at = {}, 0
            for rel in sorted(self._relations):
                self._offsets[rel] = at
                at += len(self._relations[rel])
        try:
            return self._offsets[name]
        except KeyError:
            raise LoadError(f"unknown relation {name!r}") from None

    def fact_id(self, fact: Fact) -> int | None:
        """The fact's index in `facts()`, or None when it is not stored."""
        row = self._row(fact)
        return None if row is None else self.offset(fact.relation) + row

    def facts(self) -> tuple[Fact, ...]:
        """Every fact, relations in name order and each in sorted order."""
        if self._facts is None:
            self._facts = tuple(chain.from_iterable(
                self._relations[name] for name in sorted(self._relations)))
        return self._facts

    def all_facts(self) -> list[Fact]:
        return list(self.facts())

    @classmethod
    def from_facts(cls, schema: Schema, facts: Iterable[Fact]) -> "Database":
        grouped: dict[str, list[Fact]] = {}
        for f in facts:
            grouped.setdefault(f.relation, []).append(f)
        unknown = set(grouped) - set(schema.arities)
        if unknown:
            raise LoadError(f"facts reference undeclared relations: {sorted(unknown)}")
        return cls(schema, grouped)


def load_database(directory, schema: Schema | None = None) -> Database:
    """Load `<Relation>.csv` files (no header) under `directory`.

    When no schema is passed, `schema.txt` in the directory is read.
    Rows are deduplicated.  Whitespace around unquoted cells is stripped.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise LoadError(f"database directory {directory} does not exist")
    if schema is None:
        schema = Schema.load(directory / "schema.txt")
    relations: dict[str, list[Fact]] = {}
    report: dict[str, dict] = {}
    for name in sorted(schema.arities):
        arity = schema.arity(name)
        path = directory / f"{name}.csv"
        if not path.is_file():
            raise LoadError(f"missing relation file {path}")
        facts: list[Fact] = []
        rows_read = 0
        try:
            with path.open(newline="", encoding="utf-8") as handle:
                for lineno, row in enumerate(csv.reader(handle), start=1):
                    if not row or all(cell.strip() == "" for cell in row):
                        continue
                    if len(row) != arity:
                        raise LoadError(
                            f"{path}, line {lineno}: expected {arity} values, got {len(row)}")
                    rows_read += 1
                    facts.append(Fact(name, [intern(cell.strip()) for cell in row]))
        except csv.Error as exc:
            raise LoadError(f"{path}: malformed CSV ({exc})") from exc
        relations[name] = facts
        report[name] = {"rows_read": rows_read, "rows_kept": len(set(facts)), "arity": arity}
    return Database(schema, relations, load_report=report)
