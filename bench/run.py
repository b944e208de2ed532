"""ringoid benchmark: one workload per run, one fresh interpreter per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``.  The seed is the interpreter's hash seed: the process re-executes
itself once with ``PYTHONHASHSEED=N`` pinned, so dict and set iteration order
is fixed per seed while the inputs themselves are fixed mathematical objects.
The seed also draws the sample of basis triples the Karoubi check tests.

End-to-end times are taken in seconds at a reference speed (see speed.py): a
SIGALRM sampler times a fixed piece of pure-Python work every 0.2 s and each
stretch of the program's wall time is scaled by how slow that reference ran,
because this host's speed drifts by up to 2x over seconds and minutes.  The
raw wall times go to the detail file next to the scaled ones.

A run times its set-up in `SETUP_SAMPLES` fresh interpreters started one
after another, each of which times importing ringoid and building the
workload's inputs between reference samples; half run before the timed
rounds and half after them, and the median is ``setup_s``.  The run itself
imports ringoid and builds the inputs once, untimed, then runs whole rounds
of the workload's operations until ``--seconds`` have passed (at least one
round) and reports the median round as ``wall_s`` and the process's peak
resident set as ``peak_rss_mb``; last, it checks every output outside the
timed span.  With ``--trace 1`` the run instead reports the per-layer
metrics of BENCHMARK.json for its first round, from timing wrappers (see
tracing.py), in raw seconds and without the sampler.
The last line of standard output is the result object; a copy and, when
traced, the spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 11
KAROUBI_TRIPLE_SAMPLES = 3000

# The A4 quiver 1 -> 2 -> 3 -> 4 with the zero relations a*b and b*c: a
# connected algebra of finite representation type with 4 simples, so 2^4
# Serre subcategories.  Every path of length 2 is a relation, so maxlen 3
# only fixes the truncation explicitly.
A4_DSL = """\
vertices 1 2 3 4 ;
arrow a: 1 -> 2 ;
arrow b: 2 -> 3 ;
arrow c: 3 -> 4 ;
relation a*b ;
relation b*c ;
field 2 ;
maxlen 3 ;
"""
A4_VERTICES = 4
TORSION_CENSUS = 4

CENSUS_P = 3
# At the default --dim 4, a2 and a2cat take about 8 s and 13 s, so they use --dim 3.
CENSUS_ARGS = {
    "pt": [],
    "dual": [],
    "prod": [],
    "mat2": [],
    "a2": ["--dim", "3"],
    "a2cat": ["--dim", "3"],
}

KAROUBI_P = 2
KAROUBI_BOUND = 2

LAYER_MODULES = ("linalg", "category", "quiver", "modules", "ideals",
                 "completion", "center", "torsion", "ttf", "cli")


def import_ringoid() -> dict:
    """Import the package and return its modules by short name."""
    importlib.import_module("ringoid")
    return {m: importlib.import_module(f"ringoid.{m}") for m in LAYER_MODULES}


def run_cli(mods: dict, argv: list) -> str:
    """One `ringoid <argv>` command in-process; returns what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mods["cli"].main(argv)
    if code != 0:
        raise RuntimeError(f"ringoid {' '.join(argv)} exited {code}")
    return out.getvalue()


class Workload:
    """Inputs built at set-up; `operations` are (label, thunk) pairs; `check`
    takes {label: output} and returns a list of problems."""

    def __init__(self, mods: dict, seed: int):
        self.mods = mods
        self.seed = seed


class CensusP3(Workload):
    def __init__(self, mods, seed):
        super().__init__(mods, seed)
        self.argvs = {
            name: ["census", f"catalog:{name}", "--p", str(CENSUS_P), *extra, "--json"]
            for name, extra in CENSUS_ARGS.items()
        }

    def operations(self):
        return [(name, lambda argv=argv: run_cli(self.mods, argv)) for name, argv in self.argvs.items()]

    def check(self, outputs):
        problems = []
        for name, text in outputs.items():
            problems += checks.check_census(name, CENSUS_P, json.loads(text))
        return problems


class TorsionQuivers(Workload):
    def __init__(self, mods, seed):
        super().__init__(mods, seed)
        cat = mods["quiver"].path_category(mods["quiver"].parse_quiver_dsl(A4_DSL))
        self.text = mods["category"].cat_to_json(cat)
        OUT.mkdir(exist_ok=True)
        self.path = OUT / f"a4-seed{seed}.json"
        self.path.write_text(self.text, encoding="utf-8")

    def operations(self):
        argv = ["gabriel", str(self.path), "--census", str(TORSION_CENSUS), "--json"]
        # Each round sweeps a freshly loaded category, as a separate caller
        # would, so no round reuses state another round left on the object.
        mods = self.mods
        return [
            ("gabriel", lambda: run_cli(mods, argv)),
            ("sweep", lambda: mods["torsion"].hereditary_class_sweep(
                mods["category"].cat_from_json(self.text), TORSION_CENSUS)),
        ]

    def check(self, outputs):
        return (checks.check_gabriel(json.loads(outputs["gabriel"]), A4_VERTICES)
                + checks.check_sweep(outputs["sweep"], A4_VERTICES))


class KaroubiDual(Workload):
    def operations(self):
        argv = ["complete", "catalog:dual", "--p", str(KAROUBI_P), "--bound", str(KAROUBI_BOUND),
                "--idempotents", "--json"]
        return [("complete", lambda: run_cli(self.mods, argv))]

    def check(self, outputs):
        rng = random.Random(self.seed)
        return checks.check_karoubi(json.loads(outputs["complete"]), KAROUBI_BOUND, KAROUBI_P,
                                    rng, KAROUBI_TRIPLE_SAMPLES)


WORKLOADS = {
    "census-p3": CensusP3,
    "torsion-quivers": TorsionQuivers,
    "karoubi-dual": KaroubiDual,
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: print the set-up time of this fresh interpreter and exit")
    return parser.parse_args(argv)


def pin_hash_seed(seed: int) -> None:
    """Re-execute this script under PYTHONHASHSEED=seed unless already so."""
    want = str(seed % 2 ** 32)
    if os.environ.get("PYTHONHASHSEED") != want:
        env = dict(os.environ, PYTHONHASHSEED=want)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def setup_samples(args, count: int) -> list:
    """(scaled, raw) set-up seconds of `count` fresh interpreters, run in turn."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    return [
        json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60).stdout)
        for _ in range(count)
    ]


def metric_specs(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_hash_seed(args.seed)
    if not (ROOT / "src" / "ringoid" / "__init__.py").is_file():
        print(f"no ringoid sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    # Bytecode is compiled once, before the set-up samples, so that set-up
    # time is import time as an installed package sees it, whether or not
    # the environment lets the interpreter write bytecode itself.
    compileall.compile_dir(str(ROOT / "src" / "ringoid"), quiet=1)
    sys.path.insert(0, str(ROOT / "src"))

    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        speed.warm_up()
        before = [speed.reference() for _ in range(3)]
        t0 = time.perf_counter()
        cls(import_ringoid(), args.seed)
        raw = time.perf_counter() - t0
        after = [speed.reference() for _ in range(3)]
        print(json.dumps([speed.scaled(raw, before, after), raw]))
        return 0
    setup_times = setup_samples(args, SETUP_SAMPLES // 2)

    mods = import_ringoid()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(mods)
    workload = cls(mods, args.seed)
    ops = workload.operations()

    rounds = []
    attempted = failed = 0
    functions = None
    clock = speed.RawClock() if tracer is not None else speed.SpeedClock()
    clock.start()
    start = time.perf_counter()
    while True:
        outputs = {}
        op_seconds = {}
        for label, op in ops:
            attempted += 1
            clock.lap()
            try:
                outputs[label] = op()
            except Exception as e:  # an operation that fails is counted, not fatal
                failed += 1
                print(f"{args.workload}: {label} failed: {e!r}", file=sys.stderr)
            op_seconds[label] = clock.lap()
        rounds.append((sum(s for s, _ in op_seconds.values()),
                       sum(r for _, r in op_seconds.values()), outputs, op_seconds))
        if tracer is not None and functions is None:
            # Per-layer numbers are those of the first round, so that counts
            # and distinct-key ratios do not depend on how many rounds fit.
            functions = tracer.functions()
        if time.perf_counter() - start >= args.seconds:
            break
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_times += setup_samples(args, SETUP_SAMPLES - len(setup_times))

    problems = []
    for _, _, outputs, _ in rounds:
        problems += workload.check(outputs)
    for problem in problems:
        print(f"{args.workload}: check failed: {problem}", file=sys.stderr)

    walls = [wall for wall, _, _, _ in rounds]
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(scaled for scaled, _ in setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = metric_specs("end_to_end")
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = tracing.layer_metrics(functions, metric_specs("per_layer"))
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    refs = sorted(clock.samples)
    detail = dict(result, rounds=walls, raw_rounds=[raw for _, raw, _, _ in rounds],
                  op_seconds=[times for _, _, _, times in rounds],
                  setup_samples=setup_times, problems=problems,
                  reference_samples=len(refs),
                  reference_quartiles=statistics.quantiles(refs, n=4) if len(refs) > 1 else refs)
    if tracer is not None:
        detail["functions"] = functions
        tracer.write_spans(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(f"{args.workload}: {len(walls)} round(s), wall {walls}, raw {detail['raw_rounds']}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
