"""A database decodes a relation's `Fact` tuples only when they are asked
for.  Ranked requests, acyclic evaluation and materialized provenance
greedy read the code columns alone, so on a loaded CSV database they
leave every relation undecoded, weighted runs included: their weights
are read through `Database.facts_at`, which decodes only the rows asked
for.  Materialized provenance greedy decodes no answer but its picks."""

from fractions import Fraction

from diverse_cq import (Database, VolumeAssignment, WeightedMeasure, enumerate_answers,
                        greedy_combined, greedy_diversify, load_database, parse_cq, pos_volume,
                        provenance_volume)

from conftest import mk

PATH = parse_cq("P(x,y,z,w) <- R(x,y), S(y,z), T(z,w).")
PROJECTED = parse_cq("Q(x,y) <- R(x,y), S(y,z), T(z,w).")


def write_database(root):
    (root / "schema.txt").write_text("R/2\nS/2\nT/2\nU/1\n")
    for i, name in enumerate("RST"):
        rows = [f"v{(a * 7 + i) % 9},v{(a * 5 + 2 * i) % 9}" for a in range(40)]
        (root / f"{name}.csv").write_text("\n".join(rows) + "\n")
    (root / "U.csv").write_text("v1\n")


def requests(db):
    answers = enumerate_answers(PROJECTED, db)
    vol = provenance_volume(PROJECTED, db)
    return (greedy_combined(PATH, db, 4, volume=pos_volume(), engine="tropical"),
            greedy_combined(PROJECTED, db, 4, engine="provenance"),
            answers.answers,
            greedy_diversify(answers.answers, 4, vol),
            greedy_diversify(answers.answers, 4, vol, lazy=True))


def test_requests_decode_no_fact_of_a_loaded_database(tmp_path):
    write_database(tmp_path)
    db = load_database(tmp_path)
    got = requests(db)
    assert not db._relations and not db._index  # no fact decoded
    assert got[2]._answers is None  # greedy over the coded answers decoded only its picks
    assert all(len(r.selected) == 4 for r in got[:2] + got[3:]) and len(got[2]) > 4
    # the same requests over the same facts, all decoded first
    eager = Database.from_facts(db.schema, load_database(tmp_path).facts())
    eager.facts()
    assert requests(eager) == got


def test_a_probe_decodes_only_its_own_relation(tmp_path):
    write_database(tmp_path)
    db = load_database(tmp_path)
    first = db.codes("S")[:, 0]
    fact = mk("S", *(db.values[c].text() for c in first))
    assert fact in db and db.fact_id(fact) == db.offset("S")
    assert mk("T", "zz", "zz") not in db and mk("V", "v1") not in db
    assert not db._relations  # a probe searches the code columns
    assert db.fact(db.offset("U")) == mk("U", "v1")
    assert not db._relations and not db._index  # `fact` decodes only its row


def weighted_requests(db, weights):
    vol = provenance_volume(PROJECTED, db)
    weighted = VolumeAssignment("provenance", vol.ball_fn, WeightedMeasure(weights),
                                universe=vol.universe)
    answers = enumerate_answers(PROJECTED, db).answers
    return (greedy_combined(PROJECTED, db, 4, volume=weighted, engine="provenance"),
            greedy_diversify(answers, 4, weighted),
            greedy_diversify(answers, 4, weighted, lazy=True))


def test_weighted_provenance_runs_decode_no_relation(tmp_path):
    write_database(tmp_path)
    eager = load_database(tmp_path)
    facts = eager.facts()
    weights = {f: Fraction(i % 5, 3) for i, f in enumerate(facts) if i % 2}
    db = load_database(tmp_path)
    got = weighted_requests(db, weights)
    assert not db._relations and not db._index  # weights read row by row
    assert all(len(r.selected) == 4 for r in got[1:]) and got[0].selected
    assert weighted_requests(eager, weights) == got
