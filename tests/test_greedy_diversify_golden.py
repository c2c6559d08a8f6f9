"""Golden results of `greedy_diversify`, plain and lazy, under every discrete volume.

`golden_greedy_diversify.json` holds, for every instance of
`golden_greedy_combined.json`, the selected answers, gains and total of
materialized greedy over `enumerate_answers(q, db).ordered()`, or the
error raised, under the provenance, pos, pos-w, elem and weighted
provenance volumes.  The picks include tie-breaks and zero-gain picks,
so any change to how greedy scores or orders candidates shows here.
`PYTHONPATH=src python tests/test_greedy_diversify_golden.py` rewrites
the file; do that only for an intended change of results, and say why
in the change log.
"""

import json
from pathlib import Path

import pytest

from diverse_cq import (Database, Schema, enumerate_answers, fraction_text, greedy_diversify,
                        parse_cq, provenance_volume)

from conftest import mk
from test_greedy_combined_golden import GOLDEN as INSTANCES, _volume

GOLDEN = Path(__file__).with_name("golden_greedy_diversify.json")
VOLUMES = ("provenance", "pos", "pos-w", "elem", "provenance-w")


def results(inst: dict) -> dict:
    """Outcome of plain and lazy greedy under every volume, keyed "mode volume"."""
    q = parse_cq(inst["query"])
    db = Database.from_facts(Schema(dict(inst["schema"])),
                             [mk(*fact) for fact in inst["facts"]])
    answers = enumerate_answers(q, db).ordered()
    out = {}
    for volume in VOLUMES:
        v = provenance_volume(q, db) if volume == "provenance" else _volume(volume, inst, q, db)
        for lazy in (False, True):
            try:
                res = greedy_diversify(answers, inst["k"], v, lazy=lazy)
            except Exception as exc:  # the error type and text are pinned too
                got = {"error": f"{type(exc).__name__}: {exc}"}
            else:
                got = {"selected": [[x.text() for x in f.values] for f in res.selected],
                       "gains": [fraction_text(g) for g in res.gains],
                       "total": fraction_text(res.total)}
            out[f"{'lazy' if lazy else 'plain'} {volume}"] = got
    return out


def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


# Read at collection; a missing file fails the coverage test below.
@pytest.mark.parametrize("case", _load() if GOLDEN.is_file() else [],
                         ids=lambda case: case["case"])
def test_greedy_diversify_matches_golden(case):
    inst = next(i for i in json.loads(INSTANCES.read_text(encoding="utf-8"))
                if i["case"] == case["case"])
    got = results(inst)
    assert got.keys() == case["runs"].keys()
    for key, want in case["runs"].items():
        assert got[key] == want, f"{case['case']} {key}: {inst['query']}"


def test_golden_file_covers_every_instance_mode_and_volume():
    cases = _load()
    instances = json.loads(INSTANCES.read_text(encoding="utf-8"))
    assert [c["case"] for c in cases] == [i["case"] for i in instances]
    assert all(len(c["runs"]) == 2 * len(VOLUMES) for c in cases)
    runs = [run for c in cases for run in c["runs"].values()]
    assert any("0" in run.get("gains", ()) for run in runs)  # zero-gain picks are pinned
    assert any("/" in run.get("total", "") for run in runs)  # and fractional totals


if __name__ == "__main__":
    instances = json.loads(INSTANCES.read_text(encoding="utf-8"))
    golden = [{"case": inst["case"], "runs": results(inst)} for inst in instances]
    with GOLDEN.open("w", encoding="utf-8") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(case, sort_keys=True) for case in golden))
        fh.write("\n]\n")
