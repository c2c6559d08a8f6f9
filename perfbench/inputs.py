"""Seeded inputs of the selection benchmark: workload sizes, CSV databases, requests.

Everything here is plain standard library, so `run.py` can generate
inputs without importing the program.  The same seed always
gives the same files and the same request stream.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload.

    The database is a pool of `relations` binary relations, each holding
    `rows` distinct pairs over `domain` values per column.  Every request
    fills the query template's `{}` slots with distinct pool relations and
    asks for `k` diverse answers.
    """

    name: str
    prefix: str
    relations: int
    rows: int
    domain: int
    k: int
    query: str

    @property
    def atoms(self) -> int:
        return self.query.count("{}")

    @property
    def numeric(self) -> bool:
        """Euclidean balls need numeric cells; the others use text symbols."""
        return self.name == "euclid"

    def relation_names(self) -> list[str]:
        return [f"{self.prefix}{i}" for i in range(self.relations)]


PATH_QUERY = "P(x0,x1,x2,x3) <- {}(x0,x1), {}(x1,x2), {}(x2,x3)."
PROJECTED_QUERY = "Q(x,y) <- {}(x,y), {}(y,z), {}(z,w)."
POINTS_QUERY = "Q(x,y) <- {}(x,y)."

# Sized so that one request takes a few tenths of a second on a 2-core
# machine: a 20 s run then holds dozens of requests, enough for a median
# and a tail beyond it.  Average degrees (rows / domain) are 5, 6, 6.25:
# long paths, and dozens of witnesses per projected answer.
SPECS = {
    "tropical-path": Spec("tropical-path", "E", 8, 1000, 200, 10, PATH_QUERY),
    "provenance-proj": Spec("provenance-proj", "R", 6, 1500, 250, 10, PROJECTED_QUERY),
    "materialized-greedy": Spec("materialized-greedy", "R", 6, 400, 64, 10,
                                PROJECTED_QUERY),
    "euclid": Spec("euclid", "P", 12, 25, 41, 5, POINTS_QUERY),
}


@dataclass(frozen=True)
class Request:
    index: int
    relations: tuple[str, ...]
    text: str

    @property
    def lazy(self) -> bool:
        """materialized-greedy alternates plain and lazy greedy."""
        return self.index % 2 == 1


def cell(spec: Spec, value: int) -> str:
    if spec.numeric:
        return str(value)
    return f"v{value:0{len(str(spec.domain - 1))}d}"


def relation_rows(spec: Spec, seed: int) -> dict[str, list[tuple[str, str]]]:
    """Distinct random pairs per pool relation, in sampling order."""
    rng = random.Random(f"{spec.name}:{seed}:data")
    d = spec.domain
    out = {}
    for name in spec.relation_names():
        codes = rng.sample(range(d * d), spec.rows)
        out[name] = [(cell(spec, c // d), cell(spec, c % d)) for c in codes]
    return out


def write_database(spec: Spec, seed: int, directory: Path) -> None:
    """Write `schema.txt` and one headerless `<Relation>.csv` per relation."""
    directory.mkdir(parents=True, exist_ok=True)
    rows = relation_rows(spec, seed)
    (directory / "schema.txt").write_text(
        "".join(f"{name}/2\n" for name in rows), encoding="utf-8")
    for name, pairs in rows.items():
        (directory / f"{name}.csv").write_text(
            "".join(f"{a},{b}\n" for a, b in pairs), encoding="utf-8")


def requests(spec: Spec, seed: int) -> Iterator[Request]:
    """Endless request stream; each draws distinct relations from the pool."""
    rng = random.Random(f"{spec.name}:{seed}:requests")
    names = spec.relation_names()
    for i in itertools.count():
        rels = tuple(rng.sample(names, spec.atoms))
        yield Request(i, rels, spec.query.format(*rels))
