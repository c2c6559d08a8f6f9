"""Selection benchmark for diverse-cq.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tropical-path --seed 1 --seconds 20 --trace 0

Generates the workload's CSV database from the seed, then starts fresh
single-threaded processes that run the library from `src/`: several that
only load the database (their median is `setup_s`) and one that serves
the request stream as a closed loop for `--seconds`.  Every request's
output is checked.  The last line of stdout is one JSON object with the
end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

from inputs import SPECS, Spec, write_database

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_RUNS = 7
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "select_s_p50": "s",
    "select_s_tail": "s",
    "picks_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

# Per-layer metric -> unit.  Times are medians over requests of the time a
# request spent in that span; `count/req` values are means over requests.
PER_LAYER_UNITS = {
    "relcore.load_s": "s",
    "relcore.facts": "count",
    "relcore.values": "count",
    "query.parse_s": "s",
    "engine.enumerate_s": "s",
    "engine.answers": "count/req",
    "engine.homomorphisms": "count/req",
    "engine.answers_per_homomorphism": "ratio",
    "volume.provenance_build_s": "s",
    "volume.measure_evals": "count/req",
    "volume.mc_s": "s",
    "volume.mc_estimates": "count/req",
    "volume.mc_gain_increases": "count/req",
    "optimize.plan_build_s": "s",
    "optimize.next_first_s": "s",
    "optimize.next_later_s": "s",
    "optimize.rounds": "count/req",
    "optimize.provenance_of_s": "s",
    "optimize.greedy_s": "s",
    "optimize.engine_disagreements": "count/req",
    "trace.select_s_p50": "s",
    "trace.overhead": "ratio",
    "trace.requests": "count",
}


class BenchError(Exception):
    """A worker process failed; no result can be printed."""


def _worker(config: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED=str(config["seed"] % 2 ** 32),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(config)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{config['mode']} worker passed the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{config['mode']} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, 1-based rank) of the highest percentile with at
    least TAIL_BEYOND requests beyond it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n, rank


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(worker: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    lat, wall = worker["latencies"], worker["wall_latencies"]
    n = len(lat)
    value, pct, rank = tail(lat) if lat else (0.0, 0.0, 0)
    metrics = {
        "setup_s": _median([s["setup_s"] for s in setups]),
        "select_s_p50": _median(lat),
        "select_s_tail": value,
        "picks_per_s": worker["picks"] / sum(lat) if lat else 0.0,
        "peak_rss_mib": worker["peak_rss_mib"],
    }
    wall_tail = tail(wall)[0] if wall else 0.0
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes; wall "
                   f"{_median([s['setup_wall_s'] for s in setups]):.6g} s",
        "select_s_p50": f"{n} requests; wall {_median(wall):.6g} s",
        "select_s_tail": f"p{pct:.1f}: rank {rank} of {n}, {n - rank} beyond; "
                         f"wall {wall_tail:.6g} s",
        "picks_per_s": f"{worker['picks']} picks; wall "
                       f"{worker['picks'] / sum(wall) if wall else 0.0:.6g} 1/s",
        "peak_rss_mib": "serving process",
    }
    lines = [f"{name} {metrics[name]:.6g} {END_TO_END_UNITS[name]} ({notes[name]})"
             for name in END_TO_END_UNITS]
    lines.append(f"error_rate {worker['failed'] / worker['attempted']:.6g} ratio "
                 f"({worker['failed']} of {worker['attempted']} requests failed)")
    return metrics, lines


def per_layer(worker: dict) -> tuple[dict, list[str]]:
    served = worker["requests"]
    index = set(served)
    busy: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    load_s = 0.0
    for name, start, end, _parent, request in worker["spans"]:
        if request is None:
            load_s += end - start
        elif request in index:
            busy[name][request] += end - start
    work: dict[str, float] = defaultdict(float)
    for name, amount, request in worker["counts"]:
        if request in index:
            work[name] += amount
    n = max(1, len(served))
    metrics = {"relcore.load_s": load_s,
               "relcore.facts": worker["setup"]["facts"],
               "relcore.values": worker["setup"]["values"]}
    for name, unit in PER_LAYER_UNITS.items():
        if name in metrics or name.startswith("trace."):
            continue
        if unit == "s":
            per_request = busy[name[:-2]]
            metrics[name] = _median([per_request.get(r, 0.0) for r in served])
        else:
            metrics[name] = work[name] / n
    homs = work["engine.homomorphisms"]
    metrics["engine.answers_per_homomorphism"] = work["engine.answers"] / homs if homs else 0.0
    traced = worker["traced_latencies"]
    untraced = worker["wall_latencies"]
    metrics["trace.select_s_p50"] = _median(traced)
    # Each request ran both ways back to back, so compare within pairs.
    metrics["trace.overhead"] = _median([t / u - 1.0 for t, u in zip(traced, untraced)])
    metrics["trace.requests"] = len(served)
    lines = [f"{name} {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER_UNITS.items()]
    lines.append(f"(untraced select_s_p50 {_median(untraced):.6g} s in the same process)")
    return metrics, lines


def run(spec: Spec, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object plus report lines and the
    log of selections, which is identical for identical seeds."""
    deadline = time.monotonic() + TIME_LIMIT_S
    WORK.mkdir(exist_ok=True)
    data = WORK / f"{spec.name}-seed{seed}-pid{os.getpid()}"
    try:
        write_database(spec, seed, data)
        base = {"spec": asdict(spec), "data": str(data), "seed": seed}
        setups = [] if trace else [_worker(dict(base, mode="setup"), deadline)
                                   for _ in range(SETUP_RUNS - 1)]
        worker = _worker(dict(base, mode="serve", seconds=seconds, trace=int(trace)),
                         deadline)
    finally:
        shutil.rmtree(data, ignore_errors=True)
    setups.append(worker["setup"])
    if trace:
        metrics, lines = per_layer(worker)
        units = PER_LAYER_UNITS
        spans_file = WORK / f"trace-{spec.name}-seed{seed}.json"
        spans_file.write_text(json.dumps({"spans": worker["spans"],
                                          "counts": worker["counts"]}))
        lines.append(f"(spans written to {spans_file.relative_to(ROOT)})")
    else:
        metrics, lines = end_to_end(worker, setups)
        units = END_TO_END_UNITS
    env = worker["env"]
    header = (f"# workload {spec.name} seed {seed} seconds {seconds} trace {int(trace)}; "
              f"python {env['python']} numpy {env['numpy']} "
              f"nproc {len(os.sched_getaffinity(0))}; one client, closed loop")
    problems = [f"request {p['request']}: {'; '.join(p['problems'][:3])}"
                for p in worker["problems"]]
    return {"correct": worker["failed"] == 0, "attempted": worker["attempted"],
            "failed": worker["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
            "lines": [header, *lines, *problems], "log": worker["log"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "diverse_cq" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run it from the root "
              "of a diverse-cq checkout", file=sys.stderr)
        return 2
    try:
        result = run(SPECS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in result.pop("lines"):
        print(line)
    del result["log"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
