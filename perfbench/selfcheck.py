"""Self-check of the benchmark: two traced runs of one seed must give
identical evaluation, sample and contact counts on every workload.

    python3 perfbench/selfcheck.py [--seed N] [--workload W ...]

Exits 1 and names the counts that differ when they do not repeat.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent

# per-layer metrics that count work rather than time it; they depend only
# on the code and the seed
DETERMINISTIC = (
    "pathkit.eval_calls",
    "pathkit.eval_points",
    "pathkit.samples",
    "pathkit.fallback_ratio",
    "obstruction.eval_calls",
    "obstruction.contacts",
    "obstruction.runs",
    "obstruction.evals_per_contact",
    "lifting.eval_calls",
    "lifting.evals_over_one_pass",
    "winding.eval_calls",
    "winding.evals_over_one_pass",
    "corpus.build_eval_calls",
)


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    doc = json.loads(proc.stdout.splitlines()[-1])
    counts = {k: doc["metrics"][k]["value"] for k in DETERMINISTIC}
    counts.update(attempted=doc["attempted"], failed=doc["failed"])
    return counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    status = 0
    for w in args.workload or WORKLOADS:
        first, second = traced(w, args.seed), traced(w, args.seed)
        differ = sorted(k for k in first if first[k] != second[k])
        if differ:
            status = 1
            for k in differ:
                print(f"{w}: {k} differs: {first[k]} vs {second[k]}")
        else:
            print(f"{w}: {len(first)} counts repeat exactly")
    return status


if __name__ == "__main__":
    sys.exit(main())
