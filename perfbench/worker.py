"""One workload process of the selection benchmark.

Started by `run.py` with `src/` on the import path and a JSON config as
its only argument.  It loads the generated database, then either reports
its set-up time and exits (`"mode": "setup"`), or serves the workload's
request stream as a closed loop, one request at a time, for
`"seconds"` (`"mode": "serve"`).  It prints one JSON object on stdout.

With `"trace": 1` every request runs twice, once untraced and once with
spans around each call into `relcore`, `query`, `engine`, `volume` and
`optimize`; the order alternates between requests so neither side always
runs on warm caches.  The traced side drives the rankers through the
public plan API and must pick exactly what the untraced side picked.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy

from diverse_cq import (EuclideanBallVolume, Fact, ProvenancePlan, TropicalPlan,
                        VolumeAssignment, enumerate_answers, fraction_text,
                        greedy_combined, greedy_diversify, homomorphisms, load_database,
                        parse_cq, pos_volume, provenance_volume)
from inputs import Spec, requests

RADIUS = 3.0
MC_SAMPLES = 20_000


class Tracer:
    """Spans and counts kept in memory; spans of one request share its index."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span index, request]
        self.counts: list[list] = []  # [name, amount, request]
        self.request = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.request]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount=1):
        self.counts.append([name, amount, self.request])


class HostSpeed:
    """Converts wall time into seconds at a fixed reference speed of the host.

    Other tenants of a shared machine slow every Python operation, by up to
    2x for seconds at a time.  They slow this probe too: a fixed mix of
    tuple hashing, set and dict lookups over about 3 MB, and Fraction sums,
    like the library's inner loops.  A measured call is scaled by
    NOMINAL_S over the mean probe time just before and after it, which
    cancels the host's speed but keeps every change in the program's own
    work.
    """

    # One probe on the quiet 2-core Xeon (KVM) the benchmark was sized on.
    NOMINAL_S = 0.0046

    def __init__(self):
        keys = [(f"v{i:05d}", i * 7 % 1000) for i in range(20_000)]
        self._probe_keys = keys[::3] * 3
        self._members = frozenset(keys[::2])
        self._by_second: dict[int, list] = {}
        for k in keys:
            self._by_second.setdefault(k[1], []).append(k)

    def probe(self) -> float:
        start = time.perf_counter()
        hits = 0
        for k in self._probe_keys:
            if k in self._members:
                hits += 1
            hits += len(self._by_second[k[1]])
        total = Fraction(0)
        for j in range(400):
            total += Fraction(1, j % 7 + 1)
        return time.perf_counter() - start

    def call(self, fn):
        """(result, wall seconds, reference seconds) of fn()."""
        before = self.probe()
        start = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - start
        after = self.probe()
        return out, wall, wall * 2 * self.NOMINAL_S / (before + after)


class NumpyHostSpeed(HostSpeed):
    """HostSpeed for work done mostly inside numpy, which the host's
    contention slows less than the interpreter.  The probe samples points
    in a box and takes their squared distances to a few centres, like the
    Monte-Carlo ball-union estimator."""

    NOMINAL_S = 0.013

    def __init__(self):
        self._centres = numpy.array([[1.0, 2.0], [5.0, 7.0], [9.0, 1.0], [3.0, 3.0],
                                     [8.0, 8.0]])

    def probe(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            pts = numpy.random.default_rng(0).uniform((0.0, 0.0), (40.0, 40.0),
                                                      size=(MC_SAMPLES, 2))
            d2 = ((pts[:, None, :] - self._centres[None, :, :]) ** 2).sum(axis=2)
            int((d2.min(axis=1) <= RADIUS * RADIUS).sum())
        return time.perf_counter() - start


def setup(data: Path, query_text: str, clock: HostSpeed, tr: Tracer | None = None) -> tuple:
    """First load of the database in this process, plus one query parse."""
    def load():
        if tr is None:
            db = load_database(data)
        else:
            with tr.span("relcore.load"):
                db = load_database(data)
        parse_cq(query_text)
        return db

    db, wall, setup_s = clock.call(load)
    facts = db.all_facts()
    return db, {"setup_s": setup_s, "setup_wall_s": wall, "facts": len(facts),
                "values": len({v for f in facts for v in f.values})}


# ---------------------------------------------------------------------------
# Requests, untraced: exactly the calls a user of the library makes.


def select(spec: Spec, db, req):
    q = parse_cq(req.text)
    if spec.name == "tropical-path":
        return q, greedy_combined(q, db, spec.k, volume=pos_volume(), engine="tropical")
    if spec.name == "provenance-proj":
        return q, greedy_combined(q, db, spec.k, engine="provenance")
    if spec.name == "materialized-greedy":
        # mirrors `diversify --mode greedy --volume provenance`
        vol = provenance_volume(q, db)
        answers = enumerate_answers(q, db)
        return q, greedy_diversify(answers.answers, spec.k, vol, lazy=req.lazy)
    answers = enumerate_answers(q, db)
    return q, greedy_diversify(answers.answers, spec.k,
                               EuclideanBallVolume(RADIUS, samples=MC_SAMPLES))


# ---------------------------------------------------------------------------
# Requests, traced: the same work with a span around every call into a layer.


def _traced_tropical(spec, db, req, tr):
    with tr.span("query.parse"):
        q = parse_cq(req.text)
    with tr.span("optimize.plan_build"):
        plan = TropicalPlan(q, db, pos_volume())
    selected, gains = [], []
    for r in range(spec.k):
        tr.count("optimize.rounds")
        with tr.span("optimize.next_first" if r == 0 else "optimize.next_later"):
            hit = plan.next(selected)
        if hit is None or hit[0] in selected:
            break
        selected.append(hit[0])
        gains.append(hit[1])
    return q, selected, gains


def _traced_provenance(spec, db, req, tr):
    with tr.span("query.parse"):
        q = parse_cq(req.text)
    with tr.span("optimize.plan_build"):
        plan = ProvenancePlan(q, db)
    selected, gains = [], []
    covered = frozenset()
    for r in range(spec.k):
        tr.count("optimize.rounds")
        with tr.span("optimize.next_first" if r == 0 else "optimize.next_later"):
            hit = plan.next(covered)
        if hit is None or hit[0] in selected:
            break
        selected.append(hit[0])
        gains.append(hit[1])
        with tr.span("optimize.provenance_of"):
            covered = covered | plan.provenance_of(hit[0])
    return q, selected, gains


class _CountingMeasure:
    def __init__(self, inner, tr: Tracer):
        self.inner = inner
        self.kind = inner.kind
        self.tr = tr

    def of(self, region):
        self.tr.count("volume.measure_evals")
        return self.inner.of(region)


def _traced_materialized(spec, db, req, tr):
    with tr.span("query.parse"):
        q = parse_cq(req.text)
    with tr.span("volume.provenance_build"):
        vol = provenance_volume(q, db)
    counting = VolumeAssignment(vol.name, vol.ball_fn, _CountingMeasure(vol.measure, tr),
                                universe=vol.universe)
    with tr.span("engine.enumerate"):
        answers = enumerate_answers(q, db)
    tr.count("engine.answers", len(answers))
    with tr.span("optimize.greedy"):
        res = greedy_diversify(answers.answers, spec.k, counting, lazy=req.lazy)
    return q, list(res.selected), list(res.gains)


class _TracedEuclid:
    """Delegates to the Monte-Carlo volume, timing and counting each estimate."""

    is_discrete = False

    def __init__(self, inner: EuclideanBallVolume, tr: Tracer):
        self.inner = inner
        self.name = inner.name
        self.tr = tr

    def diversity(self, s):
        self.tr.count("volume.mc_estimates")
        with self.tr.span("volume.mc"):
            return self.inner.diversity(s)


def _traced_euclid(spec, db, req, tr):
    with tr.span("query.parse"):
        q = parse_cq(req.text)
    with tr.span("engine.enumerate"):
        answers = enumerate_answers(q, db)
    tr.count("engine.answers", len(answers))
    vol = _TracedEuclid(EuclideanBallVolume(RADIUS, samples=MC_SAMPLES), tr)
    with tr.span("optimize.greedy"):
        res = greedy_diversify(answers.answers, spec.k, vol)
    gains = list(res.gains)
    tr.count("volume.mc_gain_increases", sum(b > a for a, b in zip(gains, gains[1:])))
    return q, list(res.selected), gains


TRACED = {"tropical-path": _traced_tropical, "provenance-proj": _traced_provenance,
          "materialized-greedy": _traced_materialized, "euclid": _traced_euclid}


def untimed_counts(spec: Spec, db, q, selected, tr: Tracer):
    """Counts that need extra work, made outside every span."""
    if spec.name in ("materialized-greedy", "euclid"):
        tr.count("engine.homomorphisms", sum(1 for _ in homomorphisms(q, db)))
    if spec.name == "materialized-greedy":
        # Known defect: the provenance ranker breaks ties differently from
        # materialized greedy.  Counted, never treated as a failure.
        ranked = greedy_combined(q, db, spec.k, engine="provenance")
        tr.count("optimize.engine_disagreements", int(tuple(selected) != ranked.selected))


# ---------------------------------------------------------------------------
# Output checks, from volumes built here independently of the program's.


def _witness_ball(db, q, t: Fact):
    """The answer's ball under the workload's volume, or None if t is no answer."""
    if t.relation != q.head_name or t.arity != len(q.head_vars):
        return None
    binding = dict(zip(q.head_vars, t.values))
    if q.is_full:
        body = [Fact(a.relation, tuple(binding[v] for v in a.vars)) for a in q.atoms]
        if not all(f in db for f in body):
            return None
        return frozenset((v, i + 1) for i, v in enumerate(t.values))
    facts: set = set()
    for _, witness in homomorphisms(q, db, initial=binding):
        facts.update(witness)
    return frozenset(facts) or None


def check(spec: Spec, db, q, selected, gains, total) -> list[str]:
    """Problems with one request's output; empty when it is correct."""
    problems = []
    if not selected:
        problems.append("no answer selected")
    if len(set(selected)) != len(selected):
        problems.append("duplicate picks")
    if len(gains) != len(selected):
        problems.append("one gain per pick expected")
    balls = [_witness_ball(db, q, t) for t in selected]
    for t, b in zip(selected, balls):
        if b is None:
            problems.append(f"{t!r} is not an answer")
    if problems:
        return problems
    if spec.numeric:
        exact = EuclideanBallVolume(RADIUS, samples=MC_SAMPLES)
        have = 0.0
        for i, g in enumerate(gains):
            now = exact.diversity(selected[:i + 1])
            if now - have != g:
                problems.append(f"gain {i + 1} is {g}, recomputed {now - have}")
            have = now
        if total != have or not math.isclose(sum(gains), total, rel_tol=1e-9):
            problems.append(f"total {total} does not match the gains")
        return problems
    covered: set = set()
    for i, (b, g) in enumerate(zip(balls, gains)):
        if g != len(b - covered):
            problems.append(f"gain {i + 1} is {g}, recomputed {len(b - covered)}")
        covered |= b
    if any(b > a for a, b in zip(gains, gains[1:])):
        problems.append("discrete gains increased")
    if sum(gains, Fraction(0)) != total:
        problems.append(f"total {total} is not the sum of the gains")
    return problems


def _text(x) -> str:
    return fraction_text(x) if isinstance(x, Fraction) else repr(float(x))


def _log_entry(req, selected, gains, total) -> dict:
    return {"request": req.index, "query": req.text,
            "selected": [[v.text() for v in t.values] for t in selected],
            "gains": [_text(g) for g in gains], "total": _text(total)}


# ---------------------------------------------------------------------------


def serve(spec: Spec, data: Path, seed: int, seconds: float, trace: bool) -> dict:
    stream = requests(spec, seed)
    first = next(requests(spec, seed))
    tr = Tracer() if trace else None
    python_clock = HostSpeed()
    db, setup_info = setup(data, first.text, python_clock, tr)
    clock = NumpyHostSpeed() if spec.numeric else python_clock
    latencies, wall_latencies, traced_latencies, log, problems = [], [], [], [], []
    attempted = failed = picks = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        req = next(stream)
        attempted += 1
        try:
            if tr is not None and req.index % 2 == 1:
                traced = _run_traced(spec, db, req, tr, clock)
            (q, res), wall, latency = clock.call(lambda: select(spec, db, req))
            if tr is not None and req.index % 2 == 0:
                traced = _run_traced(spec, db, req, tr, clock)
            bad = check(spec, db, q, list(res.selected), list(res.gains), res.total)
            if tr is not None:
                traced_latency, sel, gains = traced
                if tuple(sel) != res.selected or tuple(gains) != res.gains:
                    bad.append("traced picks differ from the untraced call")
                untimed_counts(spec, db, q, res.selected, tr)
        except Exception as exc:  # a failed request is counted, never fatal
            bad = [f"{type(exc).__name__}: {exc}"]
        if bad:
            failed += 1
            problems.append({"request": req.index, "problems": bad})
            continue
        latencies.append(latency)
        wall_latencies.append(wall)
        if tr is not None:
            traced_latencies.append(traced_latency)
        picks += len(res.selected)
        log.append(_log_entry(req, res.selected, res.gains, res.total))
    out = {"setup": setup_info, "attempted": attempted, "failed": failed,
           "problems": problems[:10], "latencies": latencies,
           "wall_latencies": wall_latencies, "picks": picks,
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "log": log}
    if tr is not None:
        out.update(traced_latencies=traced_latencies, spans=tr.spans, counts=tr.counts,
                   requests=[e["request"] for e in log])
    return out


def _run_traced(spec, db, req, tr, clock):
    """(wall seconds, picks, gains); timed between probes like the untraced call."""
    tr.request = req.index
    (_, selected, gains), wall, _ = clock.call(lambda: TRACED[spec.name](spec, db, req, tr))
    return wall, selected, gains


def main(argv: list[str]) -> int:
    config = json.loads(argv[1])
    spec = Spec(**config["spec"])
    data = Path(config["data"])
    if config["mode"] == "setup":
        _, out = setup(data, next(requests(spec, config["seed"])).text, HostSpeed())
    else:
        out = serve(spec, data, config["seed"], config["seconds"], bool(config["trace"]))
    out["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
