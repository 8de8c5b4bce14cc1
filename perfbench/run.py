#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the Unicorn library sources plus the
benchmark into .bench_build/ (Release) and runs the helper self-test once per
build. Each run prints the benchmark's own output, a FINGERPRINT line (host,
build and source revision) and, as the last line, one JSON object with the
keys correct, attempted, failed and metrics; a failed output check makes the
run exit 1 after printing it. A copy of that result, with its fingerprint, is
kept under .bench_build/results/. Traced runs (--trace 1) keep their Chrome
trace under .bench_build/traces/ and validate it with trace_report --check.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "perfbench")
WORKLOADS = ("debug-incremental", "fleet-multitenant", "transfer-warm")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        result = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
    if result.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("command failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "unicorn", "campaign.h")):
        fail("library sources not found at " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, os.path.join(OUT_DIR, "configure.log"), 300)
    run_logged(["cmake", "--build", BUILD_DIR, "-j", "4"], os.path.join(OUT_DIR, "build.log"), 800)


def selftest():
    """Runs the helper self-test once per build of the test binary."""
    binary = os.path.join(BUILD_DIR, "perfbench_selftest")
    stamp = os.path.join(OUT_DIR, "selftest.ok")
    built = str(os.stat(binary).st_mtime_ns)
    if os.path.isfile(stamp) and open(stamp).read() == built:
        return
    work = os.path.join(OUT_DIR, "work", "selftest")
    os.makedirs(work, exist_ok=True)
    run_logged([binary, work], os.path.join(OUT_DIR, "selftest.log"), 300)
    shutil.rmtree(work, ignore_errors=True)
    with open(stamp, "w") as f:
        f.write(built)


def revision():
    """The git commit when there is one, else a digest of the sources built."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return {"git_commit": lines[1]}
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_commit": None, "source_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    selftest()

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(OUT_DIR, "work", tag)
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
        trace_path = os.path.join(OUT_DIR, "traces", tag + ".json")
        cmd += ["--trace-out", trace_path]
    run = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)  # recordings and snapshots are per run
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout[-4000:])
        fail("benchmark run failed (exit %d)" % run.returncode)
    result = json.loads(lines[-1])
    fingerprint = {}
    for line in lines[:-1]:
        if line.startswith("FINGERPRINT "):
            fingerprint = json.loads(line[len("FINGERPRINT "):])
        else:
            print(line)
    fingerprint.update(revision())

    if trace_path is not None:
        check = subprocess.run([os.path.join(BUILD_DIR, "perfbench_trace_report"), "--check",
                                trace_path], capture_output=True, text=True, timeout=120)
        if check.returncode != 0:
            print("CHECK FAILED: trace_report --check rejected " + trace_path)
            result["correct"] = False

    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", tag + ".json"), "w") as f:
        json.dump({"args": vars(args), "fingerprint": fingerprint, "result": result}, f,
                  indent=1)
    print("FINGERPRINT " + json.dumps(fingerprint))
    print(json.dumps(result))
    if not result["correct"]:
        sys.exit(1)  # the result is printed for diagnosis, but a failed check fails the run


if __name__ == "__main__":
    main()
