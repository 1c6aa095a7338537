"""Time one set-up in a fresh interpreter: import hyperlog and build a
workload's inputs.

    python3 perfbench/setup_probe.py --workload W --seed N

Prints one JSON line with the set-up time in seconds and the peak
resident memory of this interpreter in MB.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402  (imports numpy and hyperlog)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"setup_s": setup_s, "rss_mb": rss_mb}))


if __name__ == "__main__":
    main()
