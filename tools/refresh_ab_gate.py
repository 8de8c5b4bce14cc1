#!/usr/bin/env python3
"""Per-refresh A/B gate: the change's CI-kernel bench against the base's.

    python3 tools/refresh_ab_gate.py --base <bench_table_ci_kernels> \\
        --change <bench_table_ci_kernels>

Runs both binaries with `--smoke --metrics <file>` alternately, RUNS times
each, each pair in the opposite order of the one before, so drift on the host
lands on both sides. A run's per-refresh time is the sum over the count of its
`engine.refresh_seconds` histogram, read from the metrics plane; the
histogram's p50 is quantized to buckets about 9% wide, too coarse for a 15%
bound. Exits 1 when the change's median per-refresh time exceeds BOUND times
the base's median, or when either binary fails its own checks. Both binaries
run on the same host in the same job, so the gate measures the code, not the
host.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

RUNS = 11     # runs per side; odd, so the median is one run's value
BOUND = 1.15  # largest allowed change/base ratio; the `--gate-per-refresh` bound


def per_refresh_seconds(binary, workdir, index):
    metrics = os.path.join(workdir, "metrics_%d.json" % index)
    result = subprocess.run([binary, "--smoke", "--metrics", metrics], cwd=workdir,
                            stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT, timeout=600)
    if result.returncode != 0:
        sys.exit("refresh_ab_gate: %s --smoke exited %d" % (binary, result.returncode))
    with open(metrics) as f:
        histogram = json.load(f)["histograms"].get("engine.refresh_seconds")
    if not histogram or histogram["count"] == 0:
        sys.exit("refresh_ab_gate: %s recorded no engine.refresh_seconds" % binary)
    return histogram["sum"] / histogram["count"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="bench_table_ci_kernels of the base commit")
    parser.add_argument("--change", required=True, help="bench_table_ci_kernels of the change")
    args = parser.parse_args()

    sides = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    times = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="refresh_ab_") as workdir:
        for i in range(RUNS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                run_dir = os.path.join(workdir, side)
                os.makedirs(run_dir, exist_ok=True)
                times[side].append(per_refresh_seconds(sides[side], run_dir, i))

    base = statistics.median(times["base"])
    change = statistics.median(times["change"])
    ratio = change / base
    for side in ("base", "change"):
        values = sorted(times[side])
        print("%-6s median %.6f s per refresh  (min %.6f, max %.6f, %d runs)"
              % (side, statistics.median(values), values[0], values[-1], len(values)))
    verdict = "PASS" if ratio <= BOUND else "FAIL"
    print("per-refresh ratio change/base %.3f (bound %.2f): %s" % (ratio, BOUND, verdict))
    return 0 if ratio <= BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
