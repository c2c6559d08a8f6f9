"""Relational core: interned data values, facts, schemas, and databases.

Every cell is interned to one canonical `DataValue` per payload, and
values compare and hash by identity, so hashing a value, a row of values
or a fact's values runs in C.  A fact is the named tuple `(relation,
values)`, and it hashes, compares and orders as that tuple, also in C.

A database is stored dictionary-encoded, from the CSV onward: the sorted
distinct values, and per relation one int64 numpy code column per
position, a value's code being its rank in sorted value order.  Code
order is value order, so each relation's rows, deduplicated under set
semantics, are kept in code order.  The loader maps raw cells straight
to codes; `Database(schema, relations)` and `from_facts` encode their
facts into the same columns.  Planning, ranking, acyclic evaluation,
`in`, `fact_id`, `fact_ids` and `find_rows` read only the columns.  A
relation's facts are decoded from its codes, by one list index per
value, when first asked for, and kept; so is the hash index `lookup`
gives the backtracking join.  `fact` and `facts_at` decode only the rows
they are asked for.  Answers, ball points and dict keys stay identity-hashed
`DataValue`s and `Fact`s, so no Python-level code layer sits beside the
intern pool.
"""

from __future__ import annotations

import csv
import re
from collections import namedtuple
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

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
    """Immutable collection of relations, stored as dictionary-encoded
    code columns: the sorted `values` (code -> value) and, per relation,
    a read-only int64 array with one column of codes per position, its
    rows deduplicated and in code order, which is value order.  Sizes,
    offsets and the fact count come from the arrays' shapes.

    `in`, `fact_id`, `fact_ids`, `find_rows`, planning, ranking and
    acyclic evaluation read only the code columns; `fact` and `facts_at`
    decode only the rows asked for.  A relation's `Fact` tuples are
    decoded on its first `relation` or `lookup`, or on `facts()`, and
    kept, as are `lookup`'s per-column indexes.
    """

    __slots__ = ("schema", "load_report", "values", "_code", "_codes", "_offsets",
                 "_starts", "_names", "_relations", "_index")

    def __init__(self, schema: Schema, relations: Mapping[str, Iterable[Fact]],
                 load_report: Mapping[str, dict] | None = None):
        unknown = set(relations) - set(schema.arities)
        if unknown:
            raise LoadError(f"facts reference undeclared relations: {sorted(unknown)}")
        ids = _Ids()  # value -> its position in `ids`
        raw: dict[str, np.ndarray] = {}
        for name in sorted(schema.arities):
            facts = list(relations.get(name, ()))
            arity = schema.arity(name)
            for f in facts:  # in the order given, so the first bad fact is reported
                if f.relation != name:
                    raise LoadError(f"fact {f!r} filed under relation {name}")
                if f.arity != arity:
                    raise LoadError(f"fact {f!r}: expected arity {arity}, got {f.arity}")
            cells = chain.from_iterable(map(itemgetter(1), facts))
            raw[name] = np.fromiter(map(ids.__getitem__, cells), np.int64,
                                    count=arity * len(facts)).reshape(-1, arity).T
        self._store(schema, list(ids), raw, load_report)

    def _store(self, schema: Schema, pool: list, raw: Mapping[str, np.ndarray],
               load_report: Mapping[str, dict] | None) -> None:
        """The column core of every database: `raw[name]` holds a relation's
        rows as columns of indexes into `pool`, whose values may repeat.
        Sorts the values the rows hold once, turns the indexes into codes
        with one fancy index, and orders and deduplicates each relation's
        rows with one `np.lexsort`."""
        self.schema = schema
        self.load_report = dict(load_report or {})
        used = np.zeros(len(pool), dtype=bool)
        for ids in raw.values():
            used[ids] = True
        self.values: list[DataValue] = sorted(set(compress(pool, used.tolist())),
                                              key=attrgetter("sort_key"))
        self._code = dict(zip(self.values, range(len(self.values))))
        remap = np.array([self._code.get(v, -1) for v in pool], dtype=np.int64)
        self._codes: dict[str, np.ndarray] = {}  # in name order
        self._offsets: dict[str, int] = {}
        at = 0
        for name in sorted(schema.arities):
            codes = remap[raw[name]]
            codes = codes[:, np.lexsort(codes[::-1])]  # by position 0 first
            fresh = np.ones(codes.shape[1], dtype=bool)
            fresh[1:] = (codes[:, 1:] != codes[:, :-1]).any(axis=0)
            self._codes[name] = codes = np.ascontiguousarray(codes[:, fresh])
            codes.setflags(write=False)
            self._offsets[name], at = at, at + codes.shape[1]
        self._starts = [*self._offsets.values(), at]  # the offsets, then the fact count
        self._names = list(self._offsets)
        self._relations: dict[str, tuple[Fact, ...]] = {}  # decoded on first use
        self._index: dict[str, tuple[dict, ...]] = {}  # built by the relation's first `lookup`

    @classmethod
    def _from_columns(cls, schema: Schema, pool: list,
                      raw: Mapping[str, np.ndarray]) -> "Database":
        db = cls.__new__(cls)
        db._store(schema, pool, raw, None)
        return db

    @staticmethod
    def _of(table: dict, name: str):
        try:
            return table[name]
        except KeyError:
            raise LoadError(f"unknown relation {name!r}") from None

    def relation(self, name: str) -> tuple[Fact, ...]:
        """All facts of a relation in sorted order, decoded on first use."""
        facts = self._relations.get(name)
        if facts is None:
            codes = self._of(self._codes, name)
            facts = self._relations[name] = tuple(_decode(name, codes, self.values))
        return facts

    def size(self, name: str) -> int:
        return self.codes(name).shape[1]

    def fact_count(self) -> int:
        """The number of facts of all relations."""
        return self._starts[-1]

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
        """The relation's code columns as one read-only int64 array of
        shape (arity, facts): row `j` is position `j`, in fact order."""
        return self._of(self._codes, name)

    def offset(self, name: str) -> int:
        """Index in `facts()` of the relation's first fact."""
        return self._of(self._offsets, name)

    def find_row(self, columns: np.ndarray, values: Iterable[DataValue]) -> int | None:
        """The row of `columns`, code columns with distinct rows in
        lexicographic order, that holds the codes of `values`, or None: one
        binary search per column, where a code's rows end at the next code's."""
        lo, hi = 0, columns.shape[1]
        for col, value in zip(columns, values):
            code = self._code.get(value, -1)  # a value no fact holds matches no row
            first, stop = col[lo:hi].searchsorted((code, code + 1)).tolist()
            lo, hi = lo + first, lo + stop
        return lo if lo < hi else None

    def find_rows(self, columns: np.ndarray, probes: Sequence[tuple]) -> np.ndarray:
        """`find_row` of each of `probes`, value tuples of the columns'
        width, as one int64 array, -1 for no row: one search of their
        packed codes among the packed rows of `columns`, so a call costs
        O(probes log rows) plus O(rows)."""
        code = self._code.get
        cells = np.fromiter((code(v, -1) for p in probes for v in p), np.int64,
                            count=len(columns) * len(probes))
        cells = cells.reshape(len(probes), len(columns)).T
        held = (cells >= 0).all(axis=0)  # a value no fact holds matches no row
        keys, probe = _pack([columns, cells[:, held]], max(1, len(self.values)))
        row = keys.searchsorted(probe)
        hit = keys[np.minimum(row, len(keys) - 1)] == probe if len(keys) else row < 0
        out = np.full(len(probes), -1, dtype=np.int64)
        out[held.nonzero()[0][hit]] = row[hit]
        return out

    def _columns(self, fact) -> np.ndarray | None:
        """The code columns of the relation `fact` names, when it is a
        `Fact` or a plain `(name, values)` pair whose values are a tuple of
        the relation's width; else None."""
        name, values = fact if isinstance(fact, tuple) and len(fact) == 2 else (None, None)
        codes = self._codes.get(name)
        if codes is None or not isinstance(values, tuple) or len(values) != len(codes):
            return None
        return codes

    def fact_id(self, fact: Fact) -> int | None:
        """The index in `facts()` of the stored fact equal to `fact`, a
        `Fact` or a plain `(name, values)` pair, or None; decodes no fact."""
        codes = self._columns(fact)
        row = None if codes is None else self.find_row(codes, fact[1])
        return None if row is None else self._offsets[fact[0]] + row

    def fact_ids(self, facts: Iterable) -> np.ndarray:
        """`fact_id` of each of `facts` as one int64 array, -1 for a fact
        not stored; decodes no fact.  Each relation's facts are found by
        one `find_rows` call, so a call costs O(facts log rows) plus
        O(rows) per relation."""
        facts = list(facts)
        out = np.full(len(facts), -1, dtype=np.int64)
        asked: dict[str, tuple[list, list]] = {}  # name -> (indexes in facts, their values)
        for i, fact in enumerate(facts):
            if self._columns(fact) is not None:
                at, values = asked.setdefault(fact[0], ([], []))
                at.append(i)
                values.append(fact[1])
        for name, (at, values) in asked.items():
            row = self.find_rows(self._codes[name], values)
            hit = row >= 0
            out[np.array(at)[hit]] = self._offsets[name] + row[hit]
        return out

    def fact(self, i: int) -> Fact:
        """The fact whose index in `facts()` is `i`; decodes only its row."""
        return self.facts_at([i])[0]

    def facts_at(self, ids) -> list[Fact]:
        """The facts whose indexes in `facts()` are `ids`, in the order
        asked: one `_decode` of the asked rows per relation they fall in,
        so no relation is decoded whole."""
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        wrong = (ids < 0) | (ids >= self._starts[-1])
        if wrong.any():
            raise IndexError(f"fact id {ids[wrong][0]} is not in range({self._starts[-1]})")
        of = np.searchsorted(self._starts, ids, "right") - 1  # each id's relation
        out: list = [None] * len(ids)
        for r in np.unique(of).tolist():
            at = (of == r).nonzero()[0]
            name = self._names[r]
            rows = self._codes[name][:, ids[at] - self._starts[r]]
            for i, f in zip(at.tolist(), _decode(name, rows, self.values)):
                out[i] = f
        return out

    def facts(self) -> tuple[Fact, ...]:
        """Every fact, relations in name order and each in sorted order;
        decodes every relation."""
        return tuple(chain.from_iterable(map(self.relation, self._codes)))

    def all_facts(self) -> list[Fact]:
        return list(chain.from_iterable(map(self.relation, self._codes)))

    @classmethod
    def from_facts(cls, schema: Schema, facts: Iterable[Fact]) -> "Database":
        grouped: dict[str, list[Fact]] = {}
        for f in facts:
            grouped.setdefault(f.relation, []).append(f)
        return cls(schema, grouped)


# Packed keys stay below this bound, so key arithmetic never overflows int64.
_KEY_BOUND = 2 ** 62


def _pack(blocks: Sequence[np.ndarray], radix: int) -> list[np.ndarray]:
    """One int64 key per row of each code block, all blocks (columns x
    rows, codes below `radix`) over the same variables: equal rows get
    equal keys, and keys order as the rows do, lexicographically.  When
    the next column could overflow, the keys so far are re-ranked densely
    over all blocks first."""
    keys = [np.zeros(b.shape[1], dtype=np.int64) for b in blocks]
    span = 1  # every key is below `span`
    for j in range(blocks[0].shape[0]):
        if span > _KEY_BOUND // radix:
            uniq, dense = np.unique(np.concatenate(keys), return_inverse=True)
            keys = np.split(dense.reshape(-1).astype(np.int64),
                            np.cumsum([len(k) for k in keys])[:-1])
            span = len(uniq)
        keys = [k * radix + b[j] for k, b in zip(keys, blocks)]
        span *= radix
    return keys


def _decode(name: str, codes: np.ndarray, values: Sequence) -> Iterator[Fact]:
    """The facts named `name` whose values' codes are the columns of `codes`."""
    rows = (zip(*(map(values.__getitem__, col) for col in codes.tolist()))
            if len(codes) else repeat((), codes.shape[1]))
    return map(Fact._make, zip(repeat(name), rows))


def load_database(directory, schema: Schema | None = None) -> Database:
    """Load `<Relation>.csv` files (no header) under `directory` straight
    into code columns; no `Fact` is built until one is asked for.

    When no schema is passed, `schema.txt` in the directory is read.
    Whitespace around unquoted cells is stripped, each distinct raw cell
    once per load.  Rows that are blank or hold only blank cells are
    skipped, and the rest are deduplicated.  Each file is read in one
    pass; its first non-blank row of another width than the relation's
    arity is an error.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise LoadError(f"database directory {directory} does not exist")
    if schema is None:
        schema = Schema.load(directory / "schema.txt")
    cells = _Ids()  # raw cell -> its position in `cells`
    raw: dict[str, np.ndarray] = {}
    for name in sorted(schema.arities):
        arity = schema.arity(name)
        path = directory / f"{name}.csv"
        if not path.is_file():
            raise LoadError(f"missing relation file {path}")
        rows = _read_rows(path, arity)
        raw[name] = np.fromiter(map(cells.__getitem__, chain.from_iterable(rows)), np.int64,
                                count=arity * len(rows)).reshape(-1, arity).T
    stripped = [cell.strip() for cell in cells]
    blank = np.array([not cell for cell in stripped], dtype=bool)
    for name, ids in raw.items():  # drop the rows of blank cells only
        raw[name] = ids[:, ~blank[ids].all(axis=0)]
    db = Database._from_columns(schema, list(map(intern, stripped)), raw)
    db.load_report = {name: {"rows_read": ids.shape[1], "rows_kept": db.size(name),
                             "arity": schema.arity(name)} for name, ids in raw.items()}
    return db


def _read_rows(path: Path, arity: int) -> list[list[str]]:
    """The rows of the CSV file at `path` that have `arity` cells, read in
    one pass.  A row of another width must be blank: the first that is
    not, then a malformed line, is the error, as when reading row by row."""
    rows: list[list[str]] = []
    error = None
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            rows.extend(csv.reader(handle))  # keeps the rows read before an error
    except csv.Error as exc:
        error = exc
    widths = np.fromiter(map(len, rows), np.int64, count=len(rows))
    odd = np.flatnonzero(widths != arity).tolist()
    for i in odd:
        if "".join(rows[i]).strip():
            raise LoadError(f"{path}, line {i + 1}: expected {arity} values, got {len(rows[i])}")
    if error is not None:
        raise LoadError(f"{path}: malformed CSV ({error})") from error
    if odd:  # blank rows, empty lines among them
        rows = list(compress(rows, (widths == arity).tolist()))
    return rows


class _Ids(dict):
    """Key -> its position among the distinct keys, in order of first use."""

    def __missing__(self, key) -> int:
        self[key] = i = len(self)
        return i
