"""Golden results of `greedy_combined` under every engine and volume.

`golden_greedy_combined.json` holds seeded instances (query text, facts,
k and fractional point weights) and, for each engine and volume, the
selected answers, gains, total and engine used, or the error raised.
The picks include tie-breaks, so any change to how a ranker orders rows
shows here.  `PYTHONPATH=src python tests/test_greedy_combined_golden.py`
rewrites the file from the generators in conftest; do that only for an
intended change of results, and say why in the change log.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from diverse_cq import (Database, Schema, VolumeAssignment, WeightedMeasure, elem_volume,
                        fraction_text, greedy_combined, intern, parse_cq, pos_volume,
                        pos_weighted, provenance_volume)

from conftest import mk

GOLDEN = Path(__file__).with_name("golden_greedy_combined.json")
ENGINES = ("auto", "naive", "tropical", "provenance")
VOLUMES = ("default", "pos", "pos-w", "elem", "provenance-w")

# Shapes every ranker must keep: a cyclic body, a projection that is not
# free-connex, a projected self-join, and repeated variables in an atom.
FIXED_QUERIES = (
    "Q(x,y,z) <- R(x,y), S(y,z), T(z,x).",
    "Q(x,y) <- R(x,z), S(z,y).",
    "Q(x,y) <- R(x,z), R(z,y).",
    "Q(x,y) <- R(x,x), S(x,y).",
    "Q(x) <- R(x,y,y), S(y,z).",
)


def _fraction(rng) -> Fraction:
    return Fraction(rng.randint(0, 12), rng.choice((2, 3, 7)))


def _instance(rng, q, db, rels) -> dict:
    values = sorted({v.text() for f in db.all_facts() for v in f.values})
    arity = len(q.head_vars)
    return {
        "query": q.to_text(),
        "schema": rels,
        "facts": [[f.relation, *(v.text() for v in f.values)] for f in db.all_facts()],
        "k": rng.randint(1, 4),
        "pos_weights": [[x, p, str(_fraction(rng))] for x in values
                        for p in range(1, arity + 1) if rng.random() < 0.7],
        "pos_default": str(_fraction(rng)),
        "fact_weights": [[fact, str(_fraction(rng))] for fact in
                         [[f.relation, *(v.text() for v in f.values)] for f in db.all_facts()]
                         if rng.random() < 0.7],
        "fact_default": str(_fraction(rng)),
    }


def generate() -> list[dict]:
    """The pinned instances, from fixed seeds."""
    from conftest import random_database, random_free_connex_instance, random_tree_query

    cases = []
    for seed in range(36):
        rng = random.Random(seed)
        if seed % 3 == 0:
            q, db, rels = random_free_connex_instance(rng)
        else:
            q, rels = random_tree_query(rng, max_atoms=4, allow_self_join=seed % 3 == 2)
            db = random_database(rng, rels)
        cases.append((f"seed{seed}", _instance(rng, q, db, rels)))
    for seed in (299, 347):  # full queries that repeat a variable inside an atom
        rng = random.Random(seed)
        q, rels = random_tree_query(rng)
        cases.append((f"repeat{seed}", _instance(rng, q, random_database(rng, rels), rels)))
    for i, text in enumerate(FIXED_QUERIES):
        rng = random.Random(1000 + i)
        q = parse_cq(text)
        rels = {a.relation: a.arity for a in q.atoms}
        cases.append((f"fixed{i}", _instance(rng, q, random_database(rng, rels, 0.6), rels)))
    return [{"case": name, **inst} for name, inst in cases]


def _volume(name: str, inst: dict, q, db):
    if name == "default":
        return None
    if name == "pos":
        return pos_volume()
    if name == "elem":
        return elem_volume()
    if name == "pos-w":
        weights = {(intern(x), p): Fraction(w) for x, p, w in inst["pos_weights"]}
        return pos_weighted(weights, Fraction(inst["pos_default"]))
    base = provenance_volume(q, db)
    weights = {mk(*fact): Fraction(w) for fact, w in inst["fact_weights"]}
    return VolumeAssignment("provenance", base.ball_fn,
                            WeightedMeasure(weights, Fraction(inst["fact_default"])),
                            universe=base.universe)


def results(inst: dict) -> dict:
    """Outcome of every engine under every volume, keyed "engine volume"."""
    q = parse_cq(inst["query"])
    db = Database.from_facts(Schema(dict(inst["schema"])),
                             [mk(*fact) for fact in inst["facts"]])
    out = {}
    for volume in VOLUMES:
        for engine in ENGINES:
            try:
                res = greedy_combined(q, db, inst["k"], engine=engine,
                                      volume=_volume(volume, inst, q, db))
            except Exception as exc:  # the error type and text are pinned too
                got = {"error": f"{type(exc).__name__}: {exc}"}
            else:
                got = {"selected": [[v.text() for v in f.values] for f in res.selected],
                       "gains": [fraction_text(g) for g in res.gains],
                       "total": fraction_text(res.total),
                       "engine": res.engine}
            out[f"{engine} {volume}"] = got
    return out


def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


# Read at collection; a missing file fails the coverage test below.
@pytest.mark.parametrize("inst", _load() if GOLDEN.is_file() else [],
                         ids=lambda inst: inst["case"])
def test_greedy_combined_matches_golden(inst):
    got = results(inst)
    assert got.keys() == inst["runs"].keys()
    for key, want in inst["runs"].items():
        assert got[key] == want, f"{inst['case']} {key}: {inst['query']}"


def test_golden_file_covers_every_engine_volume_and_shape():
    cases = _load()
    assert len(cases) >= 40
    assert all(len(c["runs"]) == len(ENGINES) * len(VOLUMES) for c in cases)
    texts = {c["query"] for c in cases}
    assert "Q(v1,v2,v3) <- R0(v1,v2,v2), R1(v2,v3)." in texts
    assert any(len({a.relation for a in q.atoms}) < len(q.atoms)
               for q in map(parse_cq, texts))
    used = {run.get("engine") for c in cases for run in c["runs"].values()}
    assert {"naive", "tropical", "provenance"} <= used


if __name__ == "__main__":
    golden = [{**inst, "runs": results(inst)} for inst in generate()]
    with GOLDEN.open("w", encoding="utf-8") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(inst, sort_keys=True) for inst in golden))
        fh.write("\n]\n")
