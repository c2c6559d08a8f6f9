"""Smoke test of the selection benchmark at toy sizes.

    python -m pytest -q perfbench

Runs every workload once untraced and once traced, checks that each
metric BENCHMARK.json names is emitted with its unit, and that two runs
with the same seed select the same answers with the same totals.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from inputs import SPECS  # noqa: E402

TOY = {
    "tropical-path": dict(relations=4, rows=40, domain=12),
    "provenance-proj": dict(relations=4, rows=40, domain=12),
    "materialized-greedy": dict(relations=4, rows=30, domain=8),
    "euclid": dict(relations=4, rows=6, k=3),
}


def _declared(kind: str) -> dict:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def test_toy_specs_cover_every_workload():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(SPECS) == sorted(TOY)


@pytest.mark.parametrize("workload", sorted(TOY))
def test_metrics_emitted_and_selections_repeat(workload):
    spec = replace(SPECS[workload], **TOY[workload])
    plain = run.run(spec, seed=7, seconds=0.5, trace=False)
    traced = run.run(spec, seed=7, seconds=0.5, trace=True)
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0, result["lines"]
        assert result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == _declared(kind)
    common = min(len(plain["log"]), len(traced["log"]))
    assert common >= 2
    assert (json.dumps(plain["log"][:common]).encode()
            == json.dumps(traced["log"][:common]).encode())


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "euclid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
