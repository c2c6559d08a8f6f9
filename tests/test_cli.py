import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from jsonschema import Draft7Validator

from diverse_cq import (ExplicitMatrixDistance, HammingDistance, cli, delta_min,
                        delta_sum, engine)

from conftest import TRIANGLE, mk

Q1 = "Q1(x,y) <- R(x,z), R(z,y)."
IDENT = "A(x,y) <- R(x,y)."

SCHEMA = json.loads(
    (Path(cli.__file__).parent / "report_schema.json").read_text())
VALIDATOR = Draft7Validator(SCHEMA)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    d1 = root / "d1"
    d1.mkdir()
    (d1 / "schema.txt").write_text("R/2\n")
    (d1 / "R.csv").write_text("a,a\na,b\nb,a\n")

    d3 = root / "d3"
    d3.mkdir()
    (d3 / "schema.txt").write_text("R/2\n")
    (d3 / "R.csv").write_text("a,b\na,c\n")

    empty = root / "empty"
    empty.mkdir()
    (empty / "schema.txt").write_text("R/2\n")
    (empty / "R.csv").write_text("")

    wide = root / "wide"  # 17 answers under IDENT
    wide.mkdir()
    (wide / "schema.txt").write_text("R/2\n")
    (wide / "R.csv").write_text("".join(f"{i},{i % 3}\n" for i in range(17)))

    nums = root / "nums"
    nums.mkdir()
    (nums / "schema.txt").write_text("N/2\n")
    (nums / "N.csv").write_text("0,0\n1,0\n9,9\n")

    (root / "w.txt").write_text("# heavier third value\nc@2,3\n")
    (root / "ew.txt").write_text("a,5\n")
    (root / "m.csv").write_text("a,b,c\n0,1,2\n1,0,1\n2,1,0\n")
    (root / "tree.json").write_text(json.dumps(
        {"edge_length": 0, "children": [
            {"edge_length": 1, "children": [{"edge_length": 1, "label": "a"},
                                            {"edge_length": 1, "label": "b"}]},
            {"edge_length": 2, "label": "c"}]}))
    (root / "maw.json").write_text(json.dumps(
        {"universe": ["x", "y"], "lambda": [{"set": ["x", "y"], "weight": 3}]}))
    return root


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def report(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    doc = json.loads(out)
    errors = list(VALIDATOR.iter_errors(doc))
    assert not errors, [e.message for e in errors]
    return doc


def test_eval_counts_and_dumps(capsys, work):
    doc = report(capsys, ["eval", "--data", str(work / "d1"), "--query", Q1, "--dump"])
    assert doc["command"] == "eval"
    assert doc["payload"]["count"] == 4
    assert doc["payload"]["answers"] == [["a", "a"], ["a", "b"], ["b", "a"], ["b", "b"]]
    assert ["a", "a"] in doc["payload"]["answers"] and ["b", "b"] in doc["payload"]["answers"]
    assert set(doc["inputs"]) == {"data/schema.txt", "data/R.csv"}


def test_eval_empty_database(capsys, work):
    doc = report(capsys, ["eval", "--data", str(work / "empty"), "--query", Q1])
    assert doc["payload"]["count"] == 0


def test_eval_reads_query_from_file(capsys, work):
    qfile = work / "q.txt"
    qfile.write_text(Q1 + "\n")
    doc = report(capsys, ["eval", "--data", str(work / "d1"), "--query", str(qfile)])
    assert doc["payload"]["count"] == 4
    assert "query" in doc["inputs"]


def test_eval_reports_read_and_kept_rows(capsys, tmp_path):
    data = tmp_path / "dup"
    data.mkdir()
    (data / "schema.txt").write_text("R/2\n")
    (data / "R.csv").write_text("a,b\na,b\nb,c\n")
    doc = report(capsys, ["eval", "--data", str(data), "--query", IDENT])
    assert doc["payload"]["count"] == 2
    assert doc["payload"]["load"] == {"R": {"rows_read": 3, "rows_kept": 2, "arity": 2}}


def test_malformed_query_exits_2_with_position(capsys, work):
    code, _, err = run(capsys, ["eval", "--data", str(work / "d1"),
                                "--query", "Q1(x <- R(x)."])
    assert code == 2
    assert "at position" in err


def test_missing_inputs_exit_2(capsys, work):
    assert run(capsys, ["eval", "--query", Q1])[0] == 2
    assert run(capsys, ["eval", "--data", str(work / "d1")])[0] == 2
    assert run(capsys, ["eval", "--data", str(work / "nope"), "--query", Q1])[0] == 2


def test_diversify_exact_identity_elements(capsys, work):
    doc = report(capsys, ["diversify", "--data", str(work / "d1"), "--query", IDENT,
                          "-k", "3", "--volume", "elem", "--mode", "exact"])
    assert doc["payload"]["total"] == "2"
    assert doc["payload"]["optimal"] is True


def test_diversify_k_zero(capsys, work):
    doc = report(capsys, ["diversify", "--data", str(work / "d1"), "--query", IDENT,
                          "-k", "0", "--volume", "elem"])
    assert doc["payload"]["selected"] == []
    assert doc["payload"]["total"] == "0"


def test_diversify_weighted_positions(capsys, work):
    doc = report(capsys, ["diversify", "--data", str(work / "d3"), "--query", IDENT,
                          "-k", "2", "--volume", "pos-w", "--mode", "exact",
                          "--measure", f"weighted:{work / 'w.txt'}:default=1"])
    assert doc["payload"]["total"] == "5"
    assert "measure" in doc["inputs"]


def test_diversify_weighted_elements(capsys, work):
    doc = report(capsys, ["diversify", "--data", str(work / "d3"), "--query", IDENT,
                          "-k", "1", "--volume", "elem-w",
                          "--measure", f"weighted:{work / 'ew.txt'}"])
    assert doc["payload"]["total"] == "6"  # a weighs 5, partner value 1


def test_diversify_lazy_matches_plain(capsys, work):
    plain = report(capsys, ["diversify", "--data", str(work / "d1"), "--query", IDENT,
                            "-k", "2", "--volume", "pos"])
    lazy = report(capsys, ["diversify", "--data", str(work / "d1"), "--query", IDENT,
                           "-k", "2", "--volume", "pos", "--lazy"])
    assert plain["payload"]["selected"] == lazy["payload"]["selected"]
    assert plain["payload"]["gains"] == lazy["payload"]["gains"]


def test_diversify_combined_auto(capsys, work):
    doc = report(capsys, ["diversify", "--data", str(work / "d1"), "--query", Q1,
                          "-k", "2", "--mode", "greedy-combined"])
    assert doc["payload"]["volume"] == "provenance"
    assert doc["payload"]["total"] == "3"
    assert doc["payload"]["selected"][0] == ["a", "a"]


def test_diversify_combined_reports_engine_used(capsys, work):
    base = ["diversify", "--data", str(work / "d1"), "--query", IDENT, "-k", "2",
            "--mode", "greedy-combined"]
    for volume, used in ((None, "provenance"), ("pos", "tropical"), ("elem", "naive")):
        doc = report(capsys, base + (["--volume", volume] if volume else []))
        assert doc["payload"]["engine"] == "auto"
        assert doc["payload"]["engine_used"] == used


def test_diversify_combined_unplannable_td(capsys, tmp_path):
    data = tmp_path / "tri"
    data.mkdir()
    (data / "schema.txt").write_text("R/3\nS/3\nT/3\n")
    (data / "R.csv").write_text("1,2,p\n2,3,p\n")
    (data / "S.csv").write_text("2,3,q\n3,1,q\n")
    (data / "T.csv").write_text("3,1,r\n1,2,r\n")
    base = ["diversify", "--data", str(data), "--query", TRIANGLE, "-k", "2",
            "--mode", "greedy-combined"]
    doc = report(capsys, base)["payload"]
    assert doc["engine_used"] == "naive" and doc["total"] == "6"
    code, out, err = run(capsys, base + ["--engine", "provenance"])
    assert code == 2 and out == ""
    assert "provenance ranking needs an acyclic query" in err


def test_diversify_stops_at_the_witness_pair_cap(capsys, work, monkeypatch):
    monkeypatch.setattr(engine, "WITNESS_PAIR_LIMIT", 1)
    code, out, err = run(capsys, ["diversify", "--data", str(work / "d3"), "--query",
                                  "Q(x) <- R(x,y).", "-k", "1", "--mode", "greedy-combined"])
    assert code == 2 and out == ""
    assert "witness tables need at least 2 (row, fact) pairs; the cap is 1" in err


def test_self_join_provenance_balls_stop_at_the_witness_pair_cap(capsys, work, monkeypatch):
    # A self-join body shares no subtree's fold: both skipped subtrees' facts
    # go into the answers' rows, 9 (answer, fact) pairs in all, each fold 3.
    argv = ["diversify", "--data", str(work / "d1"), "--query",
            "Q(y,z) <- R(x,y), R(y,z), R(z,w).", "-k", "2", "--volume", "provenance"]
    monkeypatch.setattr(engine, "WITNESS_PAIR_LIMIT", 9)
    assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(engine, "WITNESS_PAIR_LIMIT", 8)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "witness tables need at least 9 (row, fact) pairs; the cap is 8" in err


D1 = ["--data", "<d1>", "--query", IDENT]
COMPARE = [*D1, "-k", "1", "--distance", "hamming"]


@pytest.mark.parametrize("argv, message", [
    (["eval", *D1, "--td", "td.json"], "unrecognized arguments: --td"),
    (["compare", *D1, "-k", "1", "--volume", "elem", "--distance", "hamming",
      "--td", "td.json"], "unrecognized arguments: --td"),
    (["convert", "--volume-dump", *D1, "--volume", "elem", "--td", "td.json"],
     "unrecognized arguments: --td"),
    (["bench", "--data", "<d1>"], "unrecognized arguments: --data"),
    (["bench", "--query", IDENT], "unrecognized arguments: --query"),
    (["eval", *D1, "--td-width", "2"], "unrecognized arguments: --td-width"),
    (["diversify", *D1, "-k", "1", "--mode", "greedy-combined", "--td-width", "2"],
     "unrecognized arguments: --td-width"),
    (["diversify", *D1, "-k", "1", "--volume", "elem", "--td", "td.json"],
     "unrecognized arguments: --td"),
    (["diversify", *D1, "-k", "1", "--volume", "elem", "--mode", "exact",
      "--td", "td.json"], "unrecognized arguments: --td"),
    (["diversify", *D1, "-k", "1", "--volume", "elem", "--engine", "auto"],
     "--engine is read by --mode greedy-combined only"),
    (["diversify", *D1, "-k", "1", "--volume", "elem", "--mode", "exact",
      "--engine", "naive"], "--engine is read by --mode greedy-combined only"),
    (["diversify", *D1, "-k", "1", "--volume", "elem", "--mode", "exact", "--lazy"],
     "--lazy is read by --mode greedy only"),
    (["diversify", *D1, "-k", "1", "--mode", "greedy-combined", "--lazy"],
     "--lazy is read by --mode greedy only"),
    (["diversify", *D1, "-k", "1", "--volume", "elem", "--max-subsets", "5"],
     "--max-subsets is read by --mode exact only"),
    (["diversify", *D1, "-k", "1", "--mode", "greedy-combined", "--max-subsets", "5"],
     "--max-subsets is read by --mode exact only"),
    (["diversify", *D1, "-k", "1", "--volume", "pos", "--measure", "weighted:w.txt"],
     "--measure is read by --volume elem-w|pos-w only"),
    (["diversify", *D1, "-k", "1", "--mode", "greedy-combined",
      "--measure", "weighted:w.txt"], "--measure is read by --volume elem-w|pos-w only"),
    (["diversify", *D1, "-k", "1", "--volume", "elem", "--mc-samples", "10"],
     "--mc-samples is read by --volume ball:r=<r> only"),
    (["diversify", *D1, "-k", "1", "--mode", "greedy-combined", "--mc-samples", "10"],
     "--mc-samples is read by --volume ball:r=<r> only"),
    (["compare", *COMPARE, "--volume", "pos", "--measure", "weighted:nofile"],
     "--measure is read by --volume elem-w|pos-w only"),
    (["compare", *COMPARE, "--volume", "provenance", "--measure", "weighted:<w>"],
     "--measure is read by --volume elem-w|pos-w only"),
    (["compare", *COMPARE, "--volume", "elem", "--mc-samples", "5"],
     "--mc-samples is read by --volume ball:r=<r> only"),
    (["convert", "--multiattr", "<maw>", "--volume", "pos", "--mc-samples", "7",
      "--data", "nowhere", "--query", "garbage"], "--volume is read by --volume-dump only"),
    (["convert", "--ultrametric", "<tree>", "--data", "<d1>"],
     "--data is read by --volume-dump only"),
    (["convert", "--multiattr", "<maw>", "--query", IDENT],
     "--query is read by --volume-dump only"),
    (["convert", "--ultrametric", "<tree>", "--measure", "weighted:<w>"],
     "--measure is read by --volume elem-w|pos-w only"),
    (["convert", "--multiattr", "<maw>", "--mc-samples", "7"],
     "--mc-samples is read by --volume ball:r=<r> only"),
    (["convert", "--volume-dump", *D1, "--volume", "elem", "--measure", "weighted:<w>"],
     "--measure is read by --volume elem-w|pos-w only"),
    (["convert", "--volume-dump", *D1, "--volume", "pos", "--mc-samples", "7"],
     "--mc-samples is read by --volume ball:r=<r> only"),
    (["diversify", *D1, "-k", "1", "--volume", "ball:r=1", "--lazy"],
     "--lazy is read by discrete volumes only"),
    (["diversify", *D1, "-k", "1", "--mode", "greedy-combined", "--td", "td.json"],
     "unrecognized arguments: --td"),
    (["diversify", *D1, "-k", "-1", "--volume", "elem"],
     "argument -k: expected a non-negative integer, got '-1'"),
    (["diversify", *D1, "-k", "1", "--volume", "elem", "--mode", "exact",
      "--max-subsets", "-5"], "argument --max-subsets: expected a non-negative integer"),
    (["compare", *D1, "-k", "-2", "--distance", "hamming", "--volume", "elem"],
     "argument -k: expected a non-negative integer"),
    (["compare", *COMPARE, "--volume", "elem", "--max-weitzman", "-1"],
     "argument --max-weitzman: expected a non-negative integer"),
    (["bench", "--edges", "-1"], "argument --edges: expected a non-negative integer"),
    (["bench", "--nodes", "-3"], "argument --nodes: expected a non-negative integer"),
    (["bench", "--cap", "-1"], "argument --cap: expected a non-negative integer"),
    (["bench", "-k", "-1"], "argument -k: expected a non-negative integer"),
    (["bench", "--cap", "ten"], "argument --cap: expected a non-negative integer, got 'ten'"),
    (["compare", *D1, "-k", "1", "--volume", "elem", "--distance", "cosine"],
     "unknown distance 'cosine'; expected hamming or matrix:<file>"),
    (["convert", "--volume-dump", "--data", "<wide>", "--query", IDENT, "--volume", "ball:r=1"],
     "only discrete volume assignments convert to subset weights"),
    (["bench", "--path-length", "0"], "--path-length must be at least 1, got 0"),
    (["bench", "--path-length", "-2"], "--path-length must be at least 1, got -2"),
])
def test_flags_no_step_reads_exit_2(capsys, work, argv, message):
    files = {"<d1>": "d1", "<maw>": "maw.json", "<tree>": "tree.json", "<w>": "w.txt",
             "<wide>": "wide"}
    argv = [str(work / files[a]) if a in files else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert message in err


def count_evaluations(monkeypatch) -> list:
    """Record each evaluation of a query: an acyclic body's join-tree pass
    that finds the answers' head codes, or the one that builds the
    provenance volume's balls with them, and a streamed enumeration, which
    every cyclic body's evaluation runs."""
    calls = []

    def counting(run):
        def count(q, *args):
            calls.append(q)
            return run(q, *args)
        return count

    for name in ("iter_answers", "_tree_heads", "_tree_balls"):
        monkeypatch.setattr(engine, name, counting(getattr(engine, name)))
    return calls


@pytest.mark.parametrize("query", [Q1, IDENT])
@pytest.mark.parametrize("flags", [
    ["--volume", "provenance"],
    ["--volume", "provenance", "--lazy"],
    ["--volume", "provenance", "--mode", "exact"],
    ["--mode", "greedy-combined", "--engine", "naive"],
    ["--volume", "pos"],
])
def test_diversify_evaluates_the_query_once(capsys, work, monkeypatch, query, flags):
    calls = count_evaluations(monkeypatch)
    report(capsys, ["diversify", "--data", str(work / "d1"), "--query", query, "-k", "2",
                    *flags])
    assert len(calls) == 1


@pytest.mark.parametrize("query", [Q1, IDENT])
@pytest.mark.parametrize("argv", [
    ["compare", "-k", "2", "--distance", "hamming", "--volume", "provenance"],
    ["compare", "-k", "2", "--distance", "hamming", "--volume", "pos"],
    ["convert", "--volume-dump", "--volume", "provenance"],
    ["convert", "--volume-dump", "--volume", "pos"],
])
def test_compare_and_convert_evaluate_the_query_once(capsys, work, monkeypatch, query, argv):
    calls = count_evaluations(monkeypatch)
    report(capsys, [*argv, "--data", str(work / "d1"), "--query", query])
    assert len(calls) == 1


@pytest.mark.parametrize("dump", [False, True])
def test_eval_decodes_answers_only_to_dump_them(capsys, work, monkeypatch, dump):
    loaded, evaluated = [], []
    load_database, enumerate_answers = cli.load_database, cli.enumerate_answers

    def load(path):
        loaded.append(load_database(path))
        return loaded[-1]

    def evaluate(q, db):
        evaluated.append(enumerate_answers(q, db))
        return evaluated[-1]

    monkeypatch.setattr(cli, "load_database", load)
    monkeypatch.setattr(cli, "enumerate_answers", evaluate)
    doc = report(capsys, ["eval", "--data", str(work / "wide"), "--query", IDENT,
                          *(["--dump"] if dump else [])])
    assert doc["payload"]["count"] == 17
    assert not loaded[0]._relations  # the evaluation read the code columns only
    assert (evaluated[0].answers._answers is not None) is dump


def test_diversify_bad_flags_exit_2(capsys, work):
    base = ["diversify", "--data", str(work / "d1"), "--query", IDENT, "-k", "1"]
    assert run(capsys, base + ["--volume", "warp"])[0] == 2
    assert run(capsys, base + ["--volume", "ball:r=fast"])[0] == 2
    assert run(capsys, base + ["--volume", "pos-w"])[0] == 2  # no --measure
    assert run(capsys, base + ["--volume", "pos-w", "--measure", "flat:x"])[0] == 2
    assert run(capsys, base + ["--volume", "elem", "--mode", "exact",
                               "--max-subsets", "1"])[0] == 2


def test_diversify_ball_volume(capsys, work):
    doc = report(capsys, ["diversify", "--data", str(work / "nums"),
                          "--query", "P(x,y) <- N(x,y).", "-k", "2",
                          "--volume", "ball:r=1", "--mc-samples", "2000"])
    assert len(doc["payload"]["selected"]) == 2
    assert float(doc["payload"]["total"]) > 0


NUMS_2D = ["--query", "P(x,y) <- N(x,y)."]


@pytest.mark.parametrize("argv,message", [
    (["diversify", *NUMS_2D, "-k", "2", "--volume", "ball:r=1e400"], "bad ball radius"),
    (["diversify", *NUMS_2D, "-k", "2", "--volume", "ball:r=1e300"], "no finite box volume"),
    (["diversify", *NUMS_2D, "-k", "2", "--volume", "ball:r=1e300", "--mode", "exact"],
     "no finite box volume"),
    (["diversify", "--query", "P(x) <- N(x,y).", "-k", "2", "--volume", "ball:r=1e308"],
     "no finite length"),
    (["diversify", *NUMS_2D, "-k", "0", "--volume", "ball:r=1", "--mc-samples", "-3"],
     "sample count must be positive"),
    (["diversify", *NUMS_2D, "-k", "0", "--volume", "ball:r=-1"], "radius must be positive"),
    (["diversify", *NUMS_2D, "-k", "0", "--volume", "ball:r=0"], "radius must be positive"),
    (["compare", *NUMS_2D, "-k", "2", "--distance", "hamming", "--volume", "ball:r=1e300"],
     "no finite box volume"),
    (["diversify", "--query", "P() <- N(x,y).", "-k", "2", "--volume", "ball:r=1"],
     "error: ball centers need at least one coordinate"),
    (["compare", "--query", "P() <- N(x,y).", "-k", "2", "--distance", "hamming",
      "--volume", "ball:r=1"], "error: ball centers need at least one coordinate"),
    (["diversify", *NUMS_2D, "-k", "1", "--volume", "ball:x=1"],
     "cannot parse --volume 'ball:x=1'; expected ball:r=<r>"),
    (["diversify", *NUMS_2D, "-k", "2", "--volume", "ball:r=1", "--seed", "-1"],
     "error: seed must be non-negative"),
    (["diversify", "--query", "P(x) <- N(x,y).", "-k", "2", "--volume", "ball:r=1",
      "--seed", "-1"], "error: seed must be non-negative"),
    (["diversify", *NUMS_2D, "-k", "2", "--volume", "ball:r=1", "--mc-samples", "100000001"],
     "error: 100000001 Monte-Carlo samples exceed the cap of 100000000"),
])
def test_bad_ball_parameters_exit_2(capsys, work, argv, message):
    code, out, err = run(capsys, [*argv, "--data", str(work / "nums")])
    assert code == 2 and out == ""
    assert message in err


def test_combined_ball_volume_runs_the_naive_step(capsys, work):
    base = ["diversify", "--data", str(work / "nums"), *NUMS_2D, "-k", "3",
            "--volume", "ball:r=1", "--mc-samples", "2000", "--seed", "3"]
    greedy = report(capsys, base)["payload"]
    combined = report(capsys, base + ["--mode", "greedy-combined"])["payload"]
    assert combined["engine_used"] == "naive"
    # greedy-combined stops at the first pick that adds no volume
    cut = next((i for i, g in enumerate(greedy["gains"]) if g <= 0), len(greedy["gains"]))
    assert combined["selected"] == greedy["selected"][:cut]
    assert combined["gains"] == greedy["gains"][:cut]


@pytest.mark.parametrize("volume, line, message", [
    ("elem-w", "a 3", "expected point,weight"),
    ("elem-w", "a,heavy", "bad weight"),
    ("pos-w", "a,3", "positional weights are written value@position"),
    ("pos-w", "a@first,3", "bad position 'first'"),
    ("pos-w", "a@0,3", "positions are 1-based"),
])
def test_bad_weight_file_lines_exit_2(capsys, work, tmp_path, volume, line, message):
    path = tmp_path / "w.txt"
    good = "b@1,1" if volume == "pos-w" else "b,1"
    path.write_text(f"# one good line, then a bad one\n{good}\n{line}\n")
    code, out, err = run(capsys, ["diversify", "--data", str(work / "d1"), "--query", IDENT,
                                  "-k", "1", "--volume", volume,
                                  "--measure", f"weighted:{path}"])
    assert code == 2 and out == ""
    assert f"{path}, line 3: {message}" in err


def test_compare_reports_the_farthest_pair_on_any_answer_count(capsys, work):
    doc = report(capsys, ["compare", "--data", str(work / "wide"), "--query", IDENT,
                          "-k", "2", "--volume", "elem", "--distance", "hamming"])
    assert doc["payload"]["answer_count"] == 17
    assert doc["payload"]["anomalies"]["sum_submodularity"] == {
        "element": ["0", "0"], "larger_set": [["1", "1"]], "removed": ["1", "1"],
        "gain_into_larger": "4", "gain_into_smaller": "0"}


def exhaustive_anomalies(answers, dist) -> dict:
    """The subset search `compare` once ran, kept as the oracle of
    `cli._anomalies`: for every answer t, subset B of the others and u in B,
    the first largest excess of t's sum gain into B over its gain into B - u;
    then the first farthest pair against the minimum over all answers.
    Sums are cached by subset, which changes no result."""
    sums = {}

    def total(s):
        key = frozenset(s)
        if key not in sums:
            sums[key] = delta_sum(key, dist)
        return sums[key]

    best = None
    for t in answers:
        rest = [x for x in answers if x != t]
        for size in range(1, len(rest) + 1):
            for combo in itertools.combinations(rest, size):
                big = list(combo)
                gain_large = total(big + [t]) - total(big)
                for u in big:
                    small = [x for x in big if x != u]
                    gain_small = total(small + [t]) - total(small)
                    diff = gain_large - gain_small
                    if diff > 0 and (best is None or diff > best[0]):
                        best = (diff, t, big, u, gain_large, gain_small)
    witness = None
    if best is not None:
        _, t, big, u, gain_large, gain_small = best
        witness = {
            "element": cli._fact_values(t),
            "larger_set": [cli._fact_values(x) for x in big],
            "removed": cli._fact_values(u),
            "gain_into_larger": cli._fmt(gain_large),
            "gain_into_smaller": cli._fmt(gain_small),
        }
    monotonicity = None
    if len(answers) >= 2:
        best_pair, best_d = None, None
        for i, a in enumerate(answers):
            for b in answers[i + 1:]:
                d = dist.d(a, b)
                if best_d is None or d > best_d:
                    best_pair, best_d = (a, b), d
        all_min = delta_min(answers, dist)
        monotonicity = {
            "pair": [cli._fact_values(best_pair[0]), cli._fact_values(best_pair[1])],
            "pair_min": cli._fmt(best_d),
            "all_min": cli._fmt(all_min),
            "violated": best_d > all_min,
        }
    return {"sum_submodularity": witness, "min_monotonicity": monotonicity}


@pytest.mark.parametrize("distance", ["hamming", "matrix"])
def test_anomalies_match_the_exhaustive_search(distance):
    # Few symbols and small integer distances, so farthest pairs tie often.
    rng = random.Random(f"anomalies-{distance}")
    names = tuple(f"e{i}" for i in range(8))
    for _ in range(300):
        if distance == "hamming":
            symbols = "abcd"[:rng.randint(2, 4)]
            pool = list(itertools.product(symbols, repeat=rng.randint(1, 3)))
            dist = HammingDistance()
        else:
            pool = [(name,) for name in names]
            rows = [[Fraction(0)] * len(names) for _ in names]
            for i, j in itertools.combinations(range(len(names)), 2):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(0, 3))
            dist = cli._MatrixAnswerDistance(
                ExplicitMatrixDistance(names, tuple(map(tuple, rows))))
        cells = rng.sample(pool, min(len(pool), rng.randint(0, 8)))
        answers = sorted(mk("Q", *values) for values in cells)
        assert cli._anomalies(answers, dist) == exhaustive_anomalies(answers, dist), answers


def test_compare_single_answer(capsys, work):
    doc = report(capsys, ["compare", "--data", str(work / "d3"), "--query",
                          "B(x) <- R(x,y).", "-k", "2", "--volume", "elem",
                          "--distance", "hamming"])
    methods = doc["payload"]["methods"]
    assert doc["payload"]["answer_count"] == 1
    for m in methods.values():
        assert m["totals"]["sum"] == "0"
        assert m["totals"]["min"] == "0"
        assert m["totals"]["weitzman"] == "0"
        assert m["totals"]["volume"] == "1"  # the ball of the one answer
    assert doc["payload"]["anomalies"]["min_monotonicity"] is None


def test_compare_volume_monotone_in_k(capsys, work):
    totals = []
    for k in (1, 2, 3):
        doc = report(capsys, ["compare", "--data", str(work / "d1"), "--query", IDENT,
                              "-k", str(k), "--volume", "pos",
                              "--distance", "hamming"])
        totals.append(Fraction(doc["payload"]["methods"]["volume"]["totals"]["volume"]))
    assert totals[0] <= totals[1] <= totals[2]


def test_compare_matrix_distance(capsys, work):
    doc = report(capsys, ["compare", "--data", str(work / "d3"), "--query",
                          "B(y) <- R(x,y).", "-k", "2", "--volume", "elem",
                          "--distance", f"matrix:{work / 'm.csv'}"])
    assert doc["payload"]["methods"]["sum"]["totals"]["sum"] != "0"
    assert "distance" in doc["inputs"]


def test_compare_matrix_needs_single_column_answers(capsys, work):
    code, _, err = run(capsys, ["compare", "--data", str(work / "d1"), "--query",
                                IDENT, "-k", "2", "--volume", "elem",
                                "--distance", f"matrix:{work / 'm.csv'}"])
    assert code == 2
    assert "single-column" in err


def test_convert_ultrametric(capsys, work):
    doc = report(capsys, ["convert", "--ultrametric", str(work / "tree.json")])
    payload = doc["payload"]
    assert payload["check"] == {
        "subsets_checked": 7, "verdict": "PASS",
        "property": "union volume = subtree diversity + radius, subsets up to size 4"}
    assert payload["radius"] == "2"
    assert payload["leaves"] == ["a", "b", "c"]


def test_convert_ultrametric_skips_the_check_above_the_limit(capsys, tmp_path):
    leaves = [{"edge_length": 1, "label": f"l{i:02d}"} for i in range(11)]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"edge_length": 0, "children": leaves}))
    payload = report(capsys, ["convert", "--ultrametric", str(path)])["payload"]
    assert len(payload["leaves"]) == 11
    assert payload["check"] == {"skipped": "universe larger than 10"}


def test_convert_single_weight(capsys, work):
    doc = report(capsys, ["convert", "--multiattr", str(work / "maw.json")])
    payload = doc["payload"]
    assert payload["check"]["verdict"] == "PASS"
    assert payload["weights"] == [{"set": ["x", "y"], "weight": "3"}]
    assert payload["balls"]["x"] == payload["balls"]["y"]


def test_convert_volume_dump_round_trip(capsys, work):
    doc = report(capsys, ["convert", "--volume-dump", "--data", str(work / "d3"),
                          "--query", IDENT, "--volume", "elem"])
    assert doc["payload"]["check"]["verdict"] == "PASS"
    assert doc["payload"]["check"]["subsets_checked"] == 3


def test_convert_volume_dump_has_no_answer_cap(capsys, work):
    payload = report(capsys, ["convert", "--volume-dump", "--data", str(work / "wide"),
                              "--query", IDENT, "--volume", "elem"])["payload"]
    assert len(payload["universe"]) == 17
    assert payload["weights"]
    assert payload["check"] == {"skipped": "universe larger than 10"}


LEAF = {"edge_length": 1, "label": "a"}


@pytest.mark.parametrize("flag, doc, message", [
    ("--multiattr", {"universe": ["x"], "lambda": [{"set": ["x"], "weight": "abc"}]},
     "weights must be numbers or numeric strings, not 'abc'"),
    ("--multiattr", {"universe": ["x"], "lambda": [{"set": ["x"], "weight": "1/0"}]},
     "weights must be numbers or numeric strings, not '1/0'"),
    ("--multiattr", {"universe": ["x"], "lambda": [{"set": ["x"], "weight": True}]},
     "weights must be numbers or numeric strings, not True"),
    ("--multiattr", {"universe": ["x"], "lambda": 5}, "'lambda' must be a list"),
    ("--multiattr", {"universe": 5, "lambda": []}, "'universe' must be a list"),
    ("--multiattr", {"universe": ["a", "b"], "lambda": [{"set": "ab", "weight": 1}]},
     "'set' must be a list, not 'ab'"),
    ("--ultrametric", {"children": [{**LEAF, "edge_length": "abc"}]},
     "edge lengths must be numbers or numeric strings, not 'abc'"),
    ("--ultrametric", {"children": [{**LEAF, "edge_length": True}]},
     "edge lengths must be numbers or numeric strings, not True"),
    ("--ultrametric", {"children": 5}, "'children' must be a list"),
])
def test_convert_malformed_json_exits_2(capsys, tmp_path, flag, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["convert", flag, str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ") and message in err


def test_convert_requires_exactly_one_source(capsys, work):
    assert run(capsys, ["convert"])[0] == 2
    assert run(capsys, ["convert", "--ultrametric", str(work / "tree.json"),
                        "--multiattr", str(work / "maw.json")])[0] == 2


def test_bench_small(capsys):
    doc = report(capsys, ["bench", "--nodes", "6", "--edges", "12",
                          "--path-length", "2", "-k", "2", "--cap", "50"])
    payload = doc["payload"]
    assert payload["combined"]["rounds"] <= 2
    assert payload["materialize_then_greedy"]["answers_enumerated"] <= 50
    assert payload["combined"]["materialized_answers"] == 0


def test_bench_rejects_impossible_graphs(capsys):
    assert run(capsys, ["bench", "--nodes", "2", "--edges", "100"])[0] == 2


def test_bench_samples_edges_of_a_large_graph(capsys):
    # The edges are drawn from 10^10 possible pairs without listing them.
    payload = report(capsys, ["bench", "--nodes", "100000", "--edges", "50"])["payload"]
    assert payload["nodes"] == 100000 and payload["edges"] == 50


def test_bench_cap_zero_enumerates_nothing(capsys):
    payload = report(capsys, ["bench", "--nodes", "6", "--edges", "12", "--path-length", "2",
                              "--cap", "0"])["payload"]
    assert payload["materialize_then_greedy"]["answers_enumerated"] == 0
    assert payload["materialize_then_greedy"]["total_on_sample"] == "0"
    assert payload["combined"]["rounds"] > 0


def test_payloads_are_rerun_identical(capsys, work):
    argvs = [
        ["eval", "--data", str(work / "d1"), "--query", Q1, "--dump"],
        ["diversify", "--data", str(work / "d1"), "--query", Q1, "-k", "2",
         "--volume", "provenance"],
        ["bench", "--nodes", "6", "--edges", "10", "--path-length", "2",
         "-k", "2", "--cap", "30", "--seed", "3"],
    ]
    for argv in argvs:
        a = report(capsys, argv)["payload"]
        b = report(capsys, argv)["payload"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_seed_changes_bench_payload(capsys):
    base = ["bench", "--nodes", "8", "--edges", "20", "--path-length", "2", "-k", "2",
            "--cap", "30"]
    a = report(capsys, base)["payload"]
    b = report(capsys, base + ["--seed", "9"])["payload"]
    assert a != b


def test_console_entry_point(work):
    # The child imports the package this test imported, installed or not.
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "diverse_cq.cli", "eval",
         "--data", str(work / "d1"), "--query", Q1],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["count"] == 4


def test_argparse_errors_map_to_exit_2(capsys, work):
    assert cli.main(["diversify", "--data", str(work / "d1"), "--query", IDENT]) == 2
    capsys.readouterr()
