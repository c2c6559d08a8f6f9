"""Golden CLI runs: exit code, stdout digest and stderr of every command.

`golden_cli.json` holds seeded instances (the files of a database
directory, weight files and a query) and, for each, command lines with
their exit code, the sha256 of stdout with the `timings` block emptied,
and stderr.  The runs cover `eval --dump`, `diversify` under every mode
and engine, with and without `--lazy`, under the elem, pos, elem-w,
pos-w, provenance and ball volumes, `compare` and `convert
--volume-dump`.  Every run goes through `cli.main` in process, from a
temporary directory with relative paths, so `argv` and the input
digests are the same wherever the tests run.
`PYTHONPATH=src python tests/test_cli_golden.py` rewrites the file; do
that only for an intended change of results, and say why in the change
log.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import tempfile
from pathlib import Path

import pytest

from diverse_cq import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")
VOLUMES = ("elem", "pos", "elem-w", "pos-w", "provenance", "ball")
ENGINES = ("auto", "naive", "tropical", "provenance")

# Cells of the three kinds of database; "2.0" and "2" intern to one value.
TEXT = ("a", "b", "c", "d")
NUMBERS = ("0", "1", "2", "0.5", "1.5", "2.0", "-1", "3.0")
MIXED = ("a", "b", "1", "2.5", "3.0")

SCHEMA = {"R": 2, "S": 2, "T": 3}
# Shapes every command must keep: self-joins, projections that are and
# are not free-connex, cyclic bodies, a nullary head and repeated variables.
FIXED_QUERIES = (
    "Q(x,y) <- R(x,y).",
    "Q(y,x) <- R(x,y).",
    "Q(x,y) <- R(x,z), R(z,y).",
    "Q(x,y,z) <- R(x,y), S(y,z).",
    "Q(x) <- R(x,y), S(y,z).",
    "Q(x,z) <- R(x,y), S(y,z).",
    "Q(x,y,z) <- R(x,y), S(y,z), R(z,x).",
    "Q(x,y,z) <- R(x,y), S(y,z), T(z,x,w).",
    "Q() <- R(x,y), S(y,z).",
    "Q(x,y) <- R(x,x), S(x,y).",
    "Q(x,z) <- T(x,y,y), S(y,z).",
    "Q(x) <- T(x,y,z), R(y,z).",
)

_TIMINGS = re.compile(r'"timings": \{[^{}]*\}')


def run(argv: list[str]) -> dict:
    """One in-process CLI run: its exit code, stdout digest and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stdout = _TIMINGS.sub('"timings": {}', out.getvalue())
    return {"argv": argv, "exit": code,
            "stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
            "stderr": err.getvalue()}


def write_files(files: dict, directory: Path) -> None:
    for name, text in files.items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def run_in(directory: Path, argvs) -> list[dict]:
    """Run each command line from `directory`."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [run(argv) for argv in argvs]
    finally:
        os.chdir(cwd)


# ---------------------------------------------------------------------------
# The seeded instances and their command lines


def _random_query(rng) -> tuple[str, dict]:
    """A random acyclic body (self-joins and repeated variables included)
    under a random, possibly empty, projection."""
    from conftest import random_tree_query

    q, rels = random_tree_query(rng, max_atoms=3, allow_self_join=True)
    names = sorted({v.name for a in q.atoms for v in a.source_vars})
    head = sorted(rng.sample(names, rng.randint(0, len(names))))
    body = ", ".join(a.text() for a in q.atoms)
    return f"Q({','.join(head)}) <- {body}.", rels


def _files(rng, schema: dict, cells: tuple, query: str) -> dict:
    def weight():
        return f"{rng.randint(0, 9)}/{rng.choice((1, 2, 3))}"

    domain = sorted(rng.sample(cells, min(len(cells), rng.randint(3, 4))))
    files = {"db/schema.txt": "".join(f"{r}/{a}\n" for r, a in sorted(schema.items())),
             "q.txt": query + "\n"}
    for rel, arity in sorted(schema.items()):
        rows = [[]]
        for _ in range(arity):
            rows = [row + [v] for row in rows for v in domain]
        density = 0.45 if arity < 3 else 0.2
        files[f"db/{rel}.csv"] = "".join(",".join(row) + "\n" for row in rows
                                         if rng.random() < density)
    files["we.txt"] = "".join(f"{v},{weight()}\n" for v in domain if rng.random() < 0.7)
    files["wp.txt"] = "".join(f"{v}@{p},{weight()}\n" for v in domain
                              for p in range(1, 4) if rng.random() < 0.5)
    return files


def _argvs(rng, query: str) -> list[list[str]]:
    k = str(rng.randint(1, 3))
    default = rng.choice(("", ":default=1/2", ":default=2"))
    flags = {
        "elem-w": ["--volume", "elem-w", "--measure", f"weighted:we.txt{default}"],
        "pos-w": ["--volume", "pos-w", "--measure", f"weighted:wp.txt{default}"],
        "ball": ["--volume", f"ball:r={rng.choice(('1', '1/2', '3/2', '2.5'))}",
                 "--mc-samples", str(rng.choice((16, 32, 64))),
                 "--seed", str(rng.randint(0, 99))],
    }
    base = ["--data", "db", "--query", query]
    argvs = [["eval", "--data", "db", "--query", "q.txt", "--dump"],
             ["diversify", *base, "-k", k, "--mode", "greedy-combined"]]
    for volume in VOLUMES:
        vol = flags.get(volume, ["--volume", volume])
        argvs += [["diversify", *base, "-k", k, *vol],
                  ["diversify", *base, "-k", k, *vol, "--lazy"],
                  ["diversify", *base, "-k", k, *vol, "--mode", "exact"]]
        argvs += [["diversify", *base, "-k", k, *vol, "--mode", "greedy-combined",
                   "--engine", engine] for engine in ENGINES]
        argvs.append(["compare", *base, "-k", k, *vol, "--distance", "hamming"])
        argvs.append(["convert", "--volume-dump", *base, *vol])
    return argvs


def generate() -> list[dict]:
    """The pinned instances, from fixed seeds, with their runs."""
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(48):
            rng = random.Random(seed)
            cells = (TEXT, NUMBERS, MIXED)[seed % 3]
            if seed < 2 * len(FIXED_QUERIES):
                query, schema = FIXED_QUERIES[seed // 2], SCHEMA
            else:
                query, schema = _random_query(rng)
            files = _files(rng, schema, cells, query)
            directory = Path(tmp) / f"seed{seed}"
            write_files(files, directory)
            cases.append({"case": f"seed{seed}", "files": files,
                          "runs": run_in(directory, _argvs(rng, query))})
    return cases


def _load() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


# Read at collection; a missing file fails the coverage test below.
@pytest.mark.parametrize("case", _load() if GOLDEN.is_file() else [],
                         ids=lambda case: case["case"])
def test_cli_matches_golden(case, tmp_path):
    write_files(case["files"], tmp_path)
    got = run_in(tmp_path, [r["argv"] for r in case["runs"]])
    for have, want in zip(got, case["runs"]):
        assert have == want, f"{case['case']}: {' '.join(want['argv'])}"


def test_golden_file_covers_every_command_mode_engine_and_volume():
    cases = _load()
    runs = [r for c in cases for r in c["runs"]]
    assert len(runs) >= 2000
    argvs = [" ".join(r["argv"]) for r in runs]
    for part in ("eval ", "compare ", "convert --volume-dump", "--lazy", "--dump",
                 *(f"--mode {m}" for m in ("exact", "greedy-combined")),
                 *(f"--engine {e}" for e in ENGINES),
                 *(f"--volume {v}" for v in VOLUMES if v != "ball"), "--volume ball:r="):
        assert any(part in a for a in argvs), part
    assert {r["exit"] for r in runs} == {0, 2}
    queries = {c["files"]["q.txt"].strip() for c in cases}
    assert set(FIXED_QUERIES) <= queries
    cells = {cell for c in cases for name, text in c["files"].items() if name.endswith(".csv")
             for cell in re.split(r"[,\n]", text)}
    assert {"0.5", "2.0", "2.5", "3.0", "a"} <= cells


if __name__ == "__main__":
    golden = generate()
    with GOLDEN.open("w", encoding="utf-8") as fh:
        fh.write("[\n")
        fh.write(",\n".join(json.dumps(case, sort_keys=True) for case in golden))
        fh.write("\n]\n")
