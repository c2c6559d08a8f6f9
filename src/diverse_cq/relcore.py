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

A database is dictionary-encoded at construction: one int64 numpy code
column per relation position, a value's code being its rank in sorted
value order, so code order is value order and facts are stored in code
order.  The columns serve only vectorized joins, groupings and sorts;
answers, ball points and dict keys stay identity-hashed `DataValue`s,
decoded from a code by one list index, so no Python-level code layer
sits beside the intern pool.
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
    """Immutable collection of relations, dictionary-encoded at construction:
    the sorted `values` (code -> value), each relation's read-only code
    columns and its fact order by `np.lexsort` over them, and the offsets
    of `facts()`.  Only `lookup`'s per-column indexes, each relation's
    built on its first probe, and the fact -> id dict wait for first use."""

    __slots__ = ("schema", "load_report", "values", "_code", "_relations", "_codes",
                 "_offsets", "_facts", "_ids", "_index")

    def __init__(self, schema: Schema, relations: Mapping[str, Iterable[Fact]],
                 load_report: Mapping[str, dict] | None = None):
        self.schema = schema
        self.load_report = dict(load_report or {})
        rels: dict[str, list[Fact]] = {}
        for name in sorted(schema.arities):
            facts = list(relations.get(name, ()))
            arity = schema.arity(name)
            for f in facts:  # in the order given, so the first bad fact is reported
                if f.relation != name:
                    raise LoadError(f"fact {f!r} filed under relation {name}")
                if f.arity != arity:
                    raise LoadError(f"fact {f!r}: expected arity {arity}, got {f.arity}")
            rels[name] = list(set(facts))
        cells = chain.from_iterable(map(itemgetter(1), chain.from_iterable(rels.values())))
        self.values: list[DataValue] = sorted(set(cells), key=attrgetter("sort_key"))
        self._code = dict(zip(self.values, range(len(self.values))))
        self._relations: dict[str, tuple[Fact, ...]] = {}  # in name order
        self._codes: dict[str, np.ndarray] = {}
        self._offsets: dict[str, int] = {}
        at = 0
        for name, facts in rels.items():
            cells = chain.from_iterable(map(itemgetter(1), facts))
            flat = np.fromiter(map(self._code.__getitem__, cells), np.int64,
                               count=schema.arity(name) * len(facts))
            codes = flat.reshape(-1, schema.arity(name)).T
            order = np.lexsort(codes[::-1])  # by position 0 first; code order is value order
            self._codes[name] = codes = np.ascontiguousarray(codes[:, order])
            codes.setflags(write=False)
            self._relations[name] = tuple(map(facts.__getitem__, order.tolist()))
            self._offsets[name], at = at, at + len(facts)
        self._facts = tuple(chain.from_iterable(self._relations.values()))
        self._ids: dict[Fact, int] | None = None  # built by the first `fact_id` or `in`
        self._index: dict[str, tuple[dict, ...]] = {}  # built by the first `lookup`

    @staticmethod
    def _of(table: dict, name: str):
        try:
            return table[name]
        except KeyError:
            raise LoadError(f"unknown relation {name!r}") from None

    def relation(self, name: str) -> tuple[Fact, ...]:
        """All facts of a relation in sorted order."""
        return self._of(self._relations, name)

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
        return self.fact_id(fact) is not None

    def code(self, value: DataValue) -> int | None:
        """The value's code, its index in `values`, or None when no fact holds it."""
        return self._code.get(value)

    def codes(self, name: str) -> np.ndarray:
        """The relation's code columns, built at construction, as one
        read-only int64 array of shape (arity, facts): row `j` is
        position `j`, in fact order."""
        return self._of(self._codes, name)

    def offset(self, name: str) -> int:
        """Index in `facts()` of the relation's first fact."""
        return self._of(self._offsets, name)

    def fact_id(self, fact: Fact) -> int | None:
        """The fact's index in `facts()`, or None when it is not stored."""
        if self._ids is None:
            self._ids = dict(zip(self._facts, range(len(self._facts))))
        return self._ids.get(fact)

    def facts(self) -> tuple[Fact, ...]:
        """Every fact, relations in name order and each in sorted order."""
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
    cells = _Cells()
    for name in sorted(schema.arities):
        arity = schema.arity(name)
        path = directory / f"{name}.csv"
        if not path.is_file():
            raise LoadError(f"missing relation file {path}")
        relations[name] = facts = []
        try:
            with path.open(newline="", encoding="utf-8") as handle:
                for lineno, row in enumerate(csv.reader(handle), start=1):
                    if not "".join(row).strip():  # blank, or blank cells only
                        continue
                    if len(row) != arity:
                        raise LoadError(
                            f"{path}, line {lineno}: expected {arity} values, got {len(row)}")
                    facts.append(Fact(name, map(cells.__getitem__, row)))
        except csv.Error as exc:
            raise LoadError(f"{path}: malformed CSV ({exc})") from exc
    db = Database(schema, relations)
    db.load_report = {name: {"rows_read": len(facts), "rows_kept": db.size(name),
                             "arity": schema.arity(name)} for name, facts in relations.items()}
    return db


class _Cells(dict):
    """Raw CSV cell -> its value: each distinct cell of a load is stripped
    and interned once."""

    def __missing__(self, raw: str) -> DataValue:
        self[raw] = value = intern(raw.strip())
        return value
