#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tp1_steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The build goes to .bench_build/perfbench (CMake, Release). Build output
goes to stderr; the benchmark's own lines go to stdout, the last of them
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 1 the run also writes a Chrome trace of host-time spans to
.bench_build/traces/<workload>-<seed>.json, which Perfetto opens.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isdir(os.path.join(ROOT, "src", "core")):
        fail("no src/ next to perfbench/: run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def expected_metrics(trace):
    with open(SPEC) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_harness_test")]).returncode)
    if not args.workload:
        fail("--workload is required")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-%d.json" % (args.workload, args.seed))]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode not in (0, 1) or not lines:
        fail("benchmark exited with code %d" % done.returncode)
    result = json.loads(lines[-1])
    missing = set(expected_metrics(args.trace)) - set(result["metrics"])
    if missing:
        fail("metrics missing from the result: " + ", ".join(sorted(missing)))
    print(lines[-1], flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
