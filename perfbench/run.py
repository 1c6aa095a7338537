"""Benchmark of hyperlog's public API.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

One client asks the questions of a seeded workload in a closed loop
(each question is sent when the previous one has been answered and
checked), from a single process without threads.  Every answer is
checked against an oracle.

--trace 0 measures with tracing off, in whole passes over the questions
until S seconds have passed, and prints the end-to-end metrics; the
latency of a question is the fastest of its passes.
--trace 1 makes one pass over the same questions with evaluation
counting and spans on and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; metric names and units are the
ones BENCHMARK.json declares.  perfbench/README.md says what each metric
measures and which workload it is meant to move.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("loop_questions", "dense_paths")
SETUP_PROBES = 5          # fresh-interpreter set-ups per run; setup_s is their median
VALUES_GRID = 4097        # points of the PathSpec.values timing
VALUES_INPUTS = 8         # inputs whose PathSpec.values is timed
CLI_FLOOR_RUNS = 5        # runs of the bare interpreter
CLI_RUNS = 3              # `hyperlog winding` runs on a workload's loops


def declared_units(section: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def quantile(xs, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, q in (0, 1).

    A Beta-weighted average of all order statistics: unlike the sample
    quantile it does not jump between neighbouring values when a few
    questions of the pass swap places, which matters when a workload has
    few distinct questions of very different cost.
    """
    from scipy.special import betainc

    xs = sorted(xs)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    cdf = betainc(a, b, [k / n for k in range(n + 1)])
    return float(sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs)))


def wall_ms(argv) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
    return (time.perf_counter() - t0) * 1e3


# Runs hyperlog.cli like ``python -m hyperlog.cli`` and reports on
# stderr how long the import and the command itself took.
TIMED_CLI = """\
import sys, time
t0 = time.perf_counter()
import hyperlog.cli
t1 = time.perf_counter()
try:
    code = hyperlog.cli.main(sys.argv[1:])
finally:
    t2 = time.perf_counter()
    sys.stderr.write(f"\\nperfbench-cli {t1 - t0!r} {t2 - t1!r}\\n")
sys.exit(code)
"""


def run_cli(argv) -> tuple:
    """One run of the command line tool in a fresh interpreter; returns
    its exit code and how long its import and its command took, in
    seconds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", TIMED_CLI, *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    _tag, imp, cmd = proc.stderr.splitlines()[-1].split()
    return proc.returncode, float(imp), float(cmd)


def setup_probe(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# timed run


def timed_run(args, _workdir: Path):
    probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    import workloads as W

    pool = W.build(args.workload, args.seed)
    W.ask(pool[0])  # warm-up, untimed
    best = {}               # qid -> fastest latency in ms
    first_answer = {}
    wrong = set()
    reproducible = True
    asked = 0
    # whole passes over the pool, so that every question is asked
    # equally often
    deadline = time.perf_counter() + args.seconds
    while asked % len(pool) or time.perf_counter() < deadline:
        q = pool[asked % len(pool)]
        t0 = time.perf_counter()
        got = W.ask(q)
        ms = (time.perf_counter() - t0) * 1e3
        best[q.qid] = min(ms, best.get(q.qid, ms))
        ok, got = W.judge(q, got)
        asked += 1
        if not ok:
            wrong.add(q.qid)
        # the same question must get the same answer every time it is asked
        reproducible &= first_answer.setdefault(q.qid, got) == got
    every = [best[q.qid] for q in pool]
    lifts = [best[q.qid] for q in pool if q.kind == W.LIFT]
    loops = [best[q.qid] for q in pool if q.kind == W.LOOP]
    n = len(pool)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "questions_per_s": 1e3 * n / sum(every),
        "latency_p50_ms": quantile(every, 0.5),
        "latency_p90_ms": quantile(every, 0.9),
        "lift_p50_ms": quantile(lifts, 0.5),
        "loop_p50_ms": quantile(loops, 0.5),
        "correct_ratio": (n - len(wrong)) / n,
        "peak_rss_mb": max(peak_rss_mb(), max(p["rss_mb"] for p in probes)),
    }
    counts = {
        "latency_p50_ms": n, "latency_p90_ms": n, "questions_per_s": n,
        "lift_p50_ms": len(lifts), "loop_p50_ms": len(loops),
        "setup_s": len(probes),
    }
    print(f"{asked // n} passes over {n} questions; each latency is the"
          " fastest of a question's passes")
    return metrics, counts, n, len(wrong), reproducible, wrong


# ---------------------------------------------------------------------------
# traced run


API_SPANS = {"lift": "lifting.lift_path", "loop": "winding.analyze_loop",
             "branch": "winding.branch_change_report"}


def traced_run(args, workdir: Path):
    import numpy as np
    import workloads as W
    import tracing as T
    import hyperlog as hl
    from hyperlog.pathkit import path_to_json

    tr = T.Tracer()

    def demo(name):
        with T.counting_segment_classes(tr.meter), tr.span("corpus.demo", case=name):
            return hl.demo(name)

    pool = W.build(args.workload, args.seed, demo=demo)
    builds = tr.named("corpus.demo")

    inputs = {}             # id(spec) -> counting copy
    passes = {}             # (id(spec), directives) -> one-pass evaluations
    one_pass = {}           # question span id -> one-pass evaluations
    plain_ms = traced_ms = 0.0
    failed = 0
    wrong = set()
    reproducible = True
    for q in pool:
        if id(q.spec) not in inputs:
            inputs[id(q.spec)] = T.counted(q.spec, tr.meter)
        cspec = inputs[id(q.spec)]
        with tr.span("question", qid=q.qid, kind=q.kind) as root:
            t0 = time.perf_counter()
            got = W.ask(q)
            plain_ms += (time.perf_counter() - t0) * 1e3
            ok, got = W.judge(q, got)
            if not ok:
                failed += 1
                wrong.add(q.qid)
            with tr.span(API_SPANS[q.kind]) as sp:
                got_counted = W.ask(q, cspec)
            traced_ms += sp.ms
            # counting must not change the answer
            reproducible &= W.judge(q, got_counted)[1] == got
            key = (id(q.spec), q.directives)
            if key not in passes:
                passes[key] = T.stage_pass(tr, cspec, q.directives)
            one_pass[root.sid] = passes[key]

    specs = list({id(q.spec): q.spec for q in pool}.values())
    per_point = []
    for spec in specs[:VALUES_INPUTS]:
        grid = np.linspace(spec.a, spec.b, VALUES_GRID)
        t0 = time.perf_counter()
        spec.values(grid)
        per_point.append((time.perf_counter() - t0) * 1e6 / VALUES_GRID)

    interpreter_ms = statistics.median(
        wall_ms([sys.executable, "-c", "pass"]) for _ in range(CLI_FLOOR_RUNS))
    cli = []                # (exit code, import s, command s) per run
    workdir.mkdir(parents=True, exist_ok=True)
    for k, spec in enumerate([s for s in specs if s.closed][:CLI_RUNS]):
        f = workdir / f"loop{k}.json"
        f.write_text(json.dumps(path_to_json(spec)))
        cli.append(run_cli(("winding", "--input", str(f))))
    if any(code not in (0, 2) for code, _, _ in cli):
        raise RuntimeError("hyperlog winding failed on a workload loop")

    n = len(pool)
    metrics = T.layer_metrics(tr, one_pass)
    metrics.update({
        "pathkit.values_us_per_point": statistics.median(per_point),
        "corpus.build_ms": sum(s.ms for s in builds),
        "corpus.build_eval_calls": sum(s.calls for s in builds),
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": 1e3 * statistics.median(imp for _, imp, _ in cli),
        "cli.command_ms": 1e3 * statistics.median(cmd for _, _, cmd in cli),
        "trace.untraced_questions_per_s": 1e3 * n / plain_ms,
        "trace.traced_questions_per_s": 1e3 * n / traced_ms,
    })
    out = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    tr.dump(out)
    return metrics, {}, n, failed, reproducible, wrong


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hyperlog" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no hyperlog sources under src/\n")
        return 2

    workdir = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        metrics, counts, attempted, failed, reproducible, wrong = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        sys.stderr.write(
            f"perfbench: metrics {sorted(set(units) ^ set(metrics))} do not match"
            " BENCHMARK.json\n")
        return 2
    mode = "one traced pass" if args.trace else "closed loop"
    print(f"{args.workload} seed {args.seed}, {mode}: {attempted} questions,"
          f" {failed} answered wrongly, answers reproducible: {reproducible}")
    if wrong:
        print("  answered wrongly: " + ", ".join(sorted(wrong)))
    for name in units:
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:32s} {metrics[name]:14.6g} {units[name]}{n}")
    print(json.dumps({
        "correct": reproducible,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
