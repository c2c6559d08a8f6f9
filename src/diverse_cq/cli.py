"""Command-line interface.

Every command writes one RunReport JSON document to stdout (schema in
report_schema.json) and diagnostics to stderr.  Reports embed a digest
of each input file, the seed, and per-phase timings; the payload is
byte-identical across reruns with the same inputs and seed.  Exit codes:
0 success, 2 bad input, 1 internal failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from .baselines import (ExplicitMatrixDistance, HammingDistance, TreeLeafDistance,
                        UltrametricTree, WEITZMAN_CAP, delta_min, delta_sum, weitzman,
                        weitzman_ultrametric, ultrametric_to_volume)
from .engine import enumerate_answers, in_value_order, iter_answers
from .errors import DiverseCQError, InputError
from .optimize import (BRUTE_FORCE_CAP, ENGINES, brute_force_diversify,
                       greedy_by_objective, greedy_combined, greedy_diversify)
from .query import ConjunctiveQuery, parse_cq
from .relcore import Database, Fact, Schema, fraction_text, intern, load_database
from .volume import (EuclideanBallVolume, MultiAttributeWeights, elem_volume,
                     elem_weighted, multiattribute_from_volume, pos_volume,
                     pos_weighted, provenance_volume, volume_from_multiattribute)

VOLUME_CHOICES = "elem|pos|elem-w|pos-w|provenance|ball:r=<r>"
CONVERT_CHECK_LIMIT = 10


def _digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class _Phases:
    def __init__(self):
        self.timings: dict[str, float] = {}

    def run(self, name: str, fn):
        start = time.perf_counter()
        out = fn()
        self.timings[name] = round(time.perf_counter() - start, 6)
        return out


def _fmt(x):
    """Fractions to exact strings, floats/ints straight through."""
    if isinstance(x, Fraction):
        return fraction_text(x)
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return str(x)
    return x


def _fact_values(f: Fact) -> list[str]:
    return [v.text() for v in f.values]


def _emit(command: str, argv: list[str], seed: int, inputs: dict, timings: dict,
          payload: dict) -> int:
    report = {
        "command": command,
        "argv": argv,
        "seed": seed,
        "inputs": inputs,
        "timings": timings,
        "payload": payload,
    }
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------------------
# Input loading


def _load_db(args, inputs: dict) -> Database:
    if not getattr(args, "data", None):
        raise InputError("--data is required for this command")
    data = Path(args.data)
    db = load_database(data)
    schema_file = data / "schema.txt"
    if schema_file.is_file():
        inputs["data/schema.txt"] = _digest(schema_file)
    for rel in sorted(db.schema.arities):
        f = data / f"{rel}.csv"
        if f.is_file():
            inputs[f"data/{rel}.csv"] = _digest(f)
    return db


def _load_query(args, db: Database | None, inputs: dict) -> ConjunctiveQuery:
    if not getattr(args, "query", None):
        raise InputError("--query is required for this command")
    raw = args.query
    path = Path(raw)
    if path.is_file():
        inputs["query"] = _digest(path)
        raw = path.read_text(encoding="utf-8").strip()
    return parse_cq(raw, schema=db.schema if db is not None else None)


def _measure_spec(args) -> tuple[Path, Fraction]:
    spec = args.measure
    if not spec:
        raise InputError("weighted volumes need --measure weighted:<file>[:default=<w>]")
    parts = spec.split(":")
    if parts[0] != "weighted" or len(parts) not in (2, 3):
        raise InputError(f"cannot parse --measure {spec!r}; "
                         "expected weighted:<file>[:default=<w>]")
    default = Fraction(1)
    if len(parts) == 3:
        if not parts[2].startswith("default="):
            raise InputError(f"cannot parse --measure option {parts[2]!r}")
        try:
            default = Fraction(parts[2][len("default="):])
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad default weight in --measure: {exc}") from None
    return Path(parts[1]), default


def _read_weights(path: Path, positional: bool, inputs: dict) -> dict:
    if not path.is_file():
        raise InputError(f"missing weight file {path}")
    inputs["measure"] = _digest(path)
    weights: dict = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        point, sep, weight = line.rpartition(",")
        if not sep:
            raise InputError(f"{path}, line {lineno}: expected point,weight")
        try:
            w = Fraction(weight.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{path}, line {lineno}: bad weight ({exc})") from None
        point = point.strip()
        if positional:
            value, sep, pos = point.rpartition("@")
            if not sep:
                raise InputError(
                    f"{path}, line {lineno}: positional weights are written value@position")
            try:
                p = int(pos)
            except ValueError:
                raise InputError(f"{path}, line {lineno}: bad position {pos!r}") from None
            if p < 1:
                raise InputError(f"{path}, line {lineno}: positions are 1-based")
            key = (intern(value), p)
        else:
            key = intern(point)
        weights[key] = w
    return weights


def _build_volume(args, q, db, inputs: dict):
    spec = getattr(args, "volume", None)
    if not spec:
        raise InputError(f"--volume is required; one of {VOLUME_CHOICES}")
    if spec == "elem":
        return elem_volume()
    if spec == "pos":
        return pos_volume()
    if spec in ("elem-w", "pos-w"):
        path, default = _measure_spec(args)
        weights = _read_weights(path, positional=(spec == "pos-w"), inputs=inputs)
        make = pos_weighted if spec == "pos-w" else elem_weighted
        return make(weights, default)
    if spec == "provenance":
        return provenance_volume(q, db)
    if spec.startswith("ball:"):
        tail = spec[len("ball:"):]
        if not tail.startswith("r="):
            raise InputError(f"cannot parse --volume {spec!r}; expected ball:r=<r>")
        try:
            radius = float(Fraction(tail[2:]))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputError(f"bad ball radius: {exc}") from None
        samples = EuclideanBallVolume.samples if args.mc_samples is None else args.mc_samples
        return EuclideanBallVolume(radius, samples=samples, seed=args.seed)
    raise InputError(f"unknown volume {spec!r}; expected one of {VOLUME_CHOICES}")


def _volume_and_answers(args, q, db, inputs: dict, phases):
    """The volume and the answer set, evaluating the query once: the
    provenance volume's universe, else `enumerate_answers`' set, which
    an acyclic body keeps as head codes until the answers are iterated."""
    vol = phases.run("volume", lambda: _build_volume(args, q, db, inputs))
    if args.volume == "provenance":
        return vol, vol.universe
    return vol, phases.run("evaluate", lambda: enumerate_answers(q, db)).answers


# ---------------------------------------------------------------------------
# Commands


def cmd_eval(args, argv: list[str]) -> int:
    inputs: dict = {}
    phases = _Phases()
    db = phases.run("load", lambda: _load_db(args, inputs))
    q = _load_query(args, db, inputs)
    answers = phases.run("evaluate", lambda: enumerate_answers(q, db))
    payload = {"query": q.to_text(), "count": len(answers), "load": db.load_report}
    if args.dump:
        payload["answers"] = [_fact_values(f) for f in answers.ordered()]
    return _emit("eval", argv, args.seed, inputs, phases.timings, payload)


def _reject_unread_flags(args) -> None:
    """Exit 2 on a given flag that the command, mode and volume never read."""
    given = vars(args)
    mode = given.get("mode")
    volume = given.get("volume") or ""
    # `convert` reads --data, --query and the volume flags under --volume-dump only.
    query = (args.command != "convert" or args.volume_dump
             or not (args.multiattr or args.ultrametric))
    for flag, read, reader in (
            ("--engine", mode == "greedy-combined", "--mode greedy-combined"),
            ("--lazy", mode == "greedy", "--mode greedy"),
            ("--lazy", not volume.startswith("ball:"), "discrete volumes"),
            ("--max-subsets", mode == "exact", "--mode exact"),
            ("--volume", query, "--volume-dump"),
            ("--data", query, "--volume-dump"),
            ("--query", query, "--volume-dump"),
            ("--measure", query and volume in ("elem-w", "pos-w"), "--volume elem-w|pos-w"),
            ("--mc-samples", query and volume.startswith("ball:"), "--volume ball:r=<r>")):
        if given.get(flag[2:].replace("-", "_")) is not None and not read:
            raise InputError(f"{flag} is read by {reader} only")


def cmd_diversify(args, argv: list[str]) -> int:
    inputs: dict = {}
    phases = _Phases()
    db = phases.run("load", lambda: _load_db(args, inputs))
    q = _load_query(args, db, inputs)
    payload = {"mode": args.mode, "k": args.k}

    if args.mode == "greedy-combined":
        vol = None
        if args.volume and args.volume != "provenance":
            vol = _build_volume(args, q, db, inputs)
        engine = args.engine or "auto"
        payload["volume"] = args.volume or "provenance"
        payload["engine"] = engine
        result = phases.run("diversify", lambda: greedy_combined(
            q, db, args.k, volume=vol, engine=engine))
        payload["engine_used"] = result.engine
        payload["optimal"] = False
    else:
        vol, answers = _volume_and_answers(args, q, db, inputs, phases)
        payload["volume"] = args.volume
        if args.mode == "exact":
            cap = BRUTE_FORCE_CAP if args.max_subsets is None else args.max_subsets
            result = phases.run("diversify", lambda: brute_force_diversify(
                answers, args.k, vol, max_subsets=cap))
            payload["optimal"] = True
        else:
            result = phases.run("diversify", lambda: greedy_diversify(
                answers, args.k, vol, lazy=bool(args.lazy)))
            payload["optimal"] = False

    payload["selected"] = [_fact_values(f) for f in result.selected]
    payload["gains"] = [_fmt(g) for g in result.gains]
    payload["total"] = _fmt(result.total)
    return _emit("diversify", argv, args.seed, inputs, phases.timings, payload)


class _MatrixAnswerDistance:
    """Matrix distance lifted to single-column answers by value text."""

    def __init__(self, matrix: ExplicitMatrixDistance):
        self.matrix = matrix

    def d(self, a: Fact, b: Fact):
        return self.matrix.d(a.values[0].text(), b.values[0].text())


def _load_distance(args, answers, inputs: dict):
    spec = args.distance
    if spec == "hamming":
        return HammingDistance()
    if spec.startswith("matrix:"):
        path = Path(spec[len("matrix:"):])
        matrix = ExplicitMatrixDistance.from_csv(path)
        inputs["distance"] = _digest(path)
        if any(f.arity != 1 for f in answers):
            raise InputError("matrix distances apply to single-column answers only")
        return _MatrixAnswerDistance(matrix)
    raise InputError(f"unknown distance {spec!r}; expected hamming or matrix:<file>")


def _anomalies(answers, dist) -> dict:
    """Where sum stops being submodular and min stops being monotone.

    Adding t to S | {u} gains exactly 2*d(t,u) more under sum than adding t
    to S, so sum is supermodular and its largest violation of diminishing
    gains is the farthest pair, with S empty.  That pair also has the largest
    min, which adding answers can only lower.  One pass over the pairs finds
    it (the first of ties) and the least distance.
    """
    far, least = None, None
    for i, a in enumerate(answers):
        for b in answers[i + 1:]:
            d = dist.d(a, b)
            if far is None or d > far[2]:
                far = (a, b, d)
            if least is None or d < least:
                least = d
    if far is None:
        return {"sum_submodularity": None, "min_monotonicity": None}
    a, b, d = far
    sum_witness = None
    if d > 0:
        sum_witness = {
            "element": _fact_values(a),
            "larger_set": [_fact_values(b)],
            "removed": _fact_values(b),
            "gain_into_larger": _fmt(Fraction(2 * d)),
            "gain_into_smaller": _fmt(Fraction(0)),
        }
    return {
        "sum_submodularity": sum_witness,
        "min_monotonicity": {
            "pair": [_fact_values(a), _fact_values(b)],
            "pair_min": _fmt(d),
            "all_min": _fmt(least),
            "violated": d > least,
        },
    }


def cmd_compare(args, argv: list[str]) -> int:
    inputs: dict = {}
    phases = _Phases()
    db = phases.run("load", lambda: _load_db(args, inputs))
    q = _load_query(args, db, inputs)
    vol, answers = _volume_and_answers(args, q, db, inputs, phases)
    answers = in_value_order(answers)
    dist = _load_distance(args, answers, inputs)
    k = args.k

    def cap_weitzman(s):
        if len(s) > args.max_weitzman:
            return None
        return weitzman(s, dist, cap=args.max_weitzman)

    def totals_for(selected):
        w = cap_weitzman(selected)
        return {
            "volume": _fmt(vol.diversity(selected)),
            "sum": _fmt(delta_sum(selected, dist)),
            "min": _fmt(delta_min(selected, dist)),
            "weitzman": None if w is None else _fmt(w),
        }

    def pick(selected):
        return {"selected": [_fact_values(f) for f in selected],
                "totals": totals_for(selected)}

    methods = {}

    def build_methods():
        methods["volume"] = pick(list(greedy_diversify(answers, k, vol).selected))
        methods["sum"] = pick(greedy_by_objective(
            answers, k, lambda s: delta_sum(s, dist)).selected)
        methods["min"] = pick(greedy_by_objective(
            answers, k, lambda s: delta_min(s, dist)).selected)
        methods["weitzman"] = pick(greedy_by_objective(
            answers, min(k, args.max_weitzman),
            lambda s: weitzman(s, dist, cap=args.max_weitzman)).selected)

    phases.run("compare", build_methods)

    anomalies = phases.run("anomalies", lambda: _anomalies(answers, dist))

    payload = {"k": k, "volume": args.volume, "distance": args.distance,
               "answer_count": len(answers), "methods": methods, "anomalies": anomalies}
    return _emit("compare", argv, args.seed, inputs, phases.timings, payload)


def _set_label(x) -> str:
    return repr(x) if isinstance(x, Fact) else str(x)


def _weights_table(maw: MultiAttributeWeights) -> list[dict]:
    rows = []
    for subset in sorted(maw.weights, key=lambda s: (len(s), sorted(map(_set_label, s)))):
        w = maw.weights[subset]
        if w == 0:
            continue
        rows.append({"set": sorted(_set_label(x) for x in subset), "weight": _fmt(w)})
    return rows


def _subset_check(universe, left, right, largest=CONVERT_CHECK_LIMIT):
    """Exhaustively compare two set functions on all non-empty subsets
    of at most `largest` elements."""
    elems = sorted(universe, key=_set_label)
    if len(elems) > CONVERT_CHECK_LIMIT:
        return {"skipped": f"universe larger than {CONVERT_CHECK_LIMIT}"}
    checked = 0
    for size in range(1, min(largest, len(elems)) + 1):
        for combo in itertools.combinations(elems, size):
            if left(combo) != right(combo):
                return {"subsets_checked": checked, "verdict": "FAIL",
                        "witness": sorted(_set_label(x) for x in combo)}
            checked += 1
    return {"subsets_checked": checked, "verdict": "PASS"}


def cmd_convert(args, argv: list[str]) -> int:
    inputs: dict = {}
    phases = _Phases()
    picked = [x for x in ("multiattr", "ultrametric", "volume_dump")
              if getattr(args, x, None)]
    if len(picked) != 1:
        raise InputError("pick exactly one of --multiattr, --ultrametric, --volume-dump")

    if args.multiattr:
        path = Path(args.multiattr)
        maw = MultiAttributeWeights.from_json(path)
        inputs["multiattr"] = _digest(path)
        universe = maw.universe
        vol = phases.run("convert", lambda: volume_from_multiattribute(maw))
        check = phases.run("check", lambda: _subset_check(
            universe, maw.diversity, vol.diversity))
        payload = {
            "direction": "multiattribute-to-volume",
            "universe": sorted(universe),
            "weights": _weights_table(maw),
            "balls": {x: sorted(sorted(_set_label(e) for e in s) for s in vol.ball(x))
                      for x in sorted(universe)},
            "check": check,
        }
        return _emit("convert", argv, args.seed, inputs, phases.timings, payload)

    if args.ultrametric:
        path = Path(args.ultrametric)
        tree = UltrametricTree.from_json(path)
        inputs["ultrametric"] = _digest(path)
        vol = phases.run("convert", lambda: ultrametric_to_volume(tree))
        leaves = tree.leaves()

        def check_fn():
            # The union volume less the radius and the recursive Weitzman
            # diversity must both equal the subtree diversity.
            check = _subset_check(
                leaves,
                lambda s: (vol.diversity(s) - tree.radius, weitzman(s, TreeLeafDistance(tree))),
                lambda s: (weitzman_ultrametric(s, tree),) * 2, largest=4)
            if check.get("verdict") == "PASS":
                check["property"] = ("union volume = subtree diversity + radius, "
                                     "subsets up to size 4")
            return check

        check = phases.run("check", check_fn)
        payload = {
            "direction": "ultrametric-to-volume",
            "leaves": list(leaves),
            "radius": _fmt(tree.radius),
            "edge_weights": {str(e): _fmt(tree.edge_length(e))
                             for e in sorted(vol.measure.weights)},
            "balls": {leaf: [str(e) for e in sorted(tree.path_edges(leaf))]
                      for leaf in leaves},
            "check": check,
        }
        return _emit("convert", argv, args.seed, inputs, phases.timings, payload)

    # --volume-dump: answers of a query become the universe of a lambda table.
    db = phases.run("load", lambda: _load_db(args, inputs))
    q = _load_query(args, db, inputs)
    vol, answers = _volume_and_answers(args, q, db, inputs, phases)
    answers = in_value_order(answers)
    maw = phases.run("convert", lambda: multiattribute_from_volume(vol, answers))
    check = phases.run("check", lambda: _subset_check(
        answers, maw.diversity, vol.diversity))
    payload = {
        "direction": "volume-to-multiattribute",
        "volume": args.volume,
        "universe": [repr(f) for f in answers],
        "weights": _weights_table(maw),
        "check": check,
    }
    return _emit("convert", argv, args.seed, inputs, phases.timings, payload)


def cmd_bench(args, argv: list[str]) -> int:
    inputs: dict = {}
    phases = _Phases()
    rng = random.Random(args.seed)
    n, m, length = args.nodes, args.edges, args.path_length
    if length < 1:
        raise InputError(f"--path-length must be at least 1, got {length}")
    if m > n * (n - 1):
        raise InputError(f"{m} distinct edges do not fit on {n} nodes")
    # Sample positions in the row-major list of all n(n-1) pairs (u, v),
    # v != u, without building that list.
    pairs = (divmod(i, n - 1) for i in rng.sample(range(n * (n - 1)), m))
    edges = [(u, j + (j >= u)) for u, j in pairs]
    width = len(str(n - 1))
    schema = Schema({"E": 2})
    facts = [Fact("E", (intern(f"n{u:0{width}d}"), intern(f"n{v:0{width}d}")))
             for u, v in edges]
    db = Database.from_facts(schema, facts)
    names = [f"x{i}" for i in range(length + 1)]
    q = ConjunctiveQuery.build(
        "P", names, [("E", [names[i], names[i + 1]]) for i in range(length)])
    vol = pos_volume()

    combined = phases.run("greedy_combined", lambda: greedy_combined(
        q, db, args.k, volume=vol, engine="tropical"))

    sample = phases.run("enumerate_capped",
                        lambda: list(itertools.islice(iter_answers(q, db), args.cap)))
    sample_greedy = phases.run("greedy_on_sample", lambda: greedy_diversify(
        sample, args.k, vol))

    payload = {
        "nodes": n,
        "edges": m,
        "path_length": length,
        "k": args.k,
        "enumeration_cap": args.cap,
        "combined": {
            "engine": "tropical",
            "materialized_answers": 0,
            "rounds": len(combined.selected),
            "total": _fmt(combined.total),
            "selected": [_fact_values(f) for f in combined.selected],
        },
        "materialize_then_greedy": {
            "answers_enumerated": len(sample),
            "cap_reached": len(sample) >= args.cap,
            "total_on_sample": _fmt(sample_greedy.total),
        },
        "note": "timings are in the report's timings block; this payload is "
                "seed-deterministic",
    }
    return _emit("bench", argv, args.seed, inputs, phases.timings, payload)


# ---------------------------------------------------------------------------
# Parser


def _count(text: str) -> int:
    """argparse type of a count: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diverse-cq",
        description="Diverse answer selection for conjunctive queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0,
                      help="seed for all randomized steps (default 0)")
    common = argparse.ArgumentParser(add_help=False, parents=[seed])
    common.add_argument("--data", help="database directory (schema.txt + <Rel>.csv)")
    common.add_argument("--query", help="query text or a file containing it")

    vol_flags = argparse.ArgumentParser(add_help=False)
    vol_flags.add_argument("--volume", help=f"one of {VOLUME_CHOICES}")
    vol_flags.add_argument("--measure",
                           help="weighted:<file>[:default=<w>] for elem-w/pos-w")
    vol_flags.add_argument("--mc-samples", type=int,
                           help="Monte-Carlo samples for ball volumes "
                                "(default 200000, at most 10^8)")

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a query and report the answer count")
    p.add_argument("--dump", action="store_true", help="include sorted answers")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("diversify", parents=[common, vol_flags],
                       help="select k diverse answers")
    p.add_argument("-k", type=_count, required=True)
    p.add_argument("--mode", choices=["greedy", "exact", "greedy-combined"],
                   default="greedy")
    p.add_argument("--engine", choices=ENGINES,
                   help="next-answer oracle for greedy-combined (default auto)")
    p.add_argument("--lazy", action="store_true", default=None,
                   help="accepted for compatibility: runs the same exact-gain "
                        "greedy step as plain greedy (to be removed)")
    p.add_argument("--max-subsets", type=_count,
                   help=f"exact-mode subset cap (default {BRUTE_FORCE_CAP})")
    p.set_defaults(fn=cmd_diversify)

    p = sub.add_parser("compare", parents=[common, vol_flags],
                       help="volume vs. distance-based diversity on one instance")
    p.add_argument("-k", type=_count, required=True)
    p.add_argument("--distance", required=True, help="hamming or matrix:<file>")
    p.add_argument("--max-weitzman", type=_count, default=WEITZMAN_CAP,
                   help="largest set the recursive diversity is evaluated on")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("convert", parents=[common, vol_flags],
                       help="translate between diversity representations")
    p.add_argument("--multiattr", help="lambda-weight JSON file to turn into a volume")
    p.add_argument("--ultrametric", help="ultrametric tree JSON file to turn into a volume")
    p.add_argument("--volume-dump", action="store_true",
                   help="turn --volume over the query's answers into a lambda table")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("bench", parents=[seed],
                       help="time combined greedy vs. materialize-then-greedy")
    p.add_argument("--nodes", type=_count, default=25)
    p.add_argument("--edges", type=_count, default=300)
    p.add_argument("--path-length", type=int, default=6)
    p.add_argument("-k", type=_count, default=5)
    p.add_argument("--cap", type=_count, default=10_000,
                   help="stop enumerating answers after this many")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _reject_unread_flags(args)
        return args.fn(args, argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DiverseCQError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
