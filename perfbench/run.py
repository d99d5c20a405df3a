#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the Anahy job service.

Usage, from the repository root:

    python3 perfbench/run.py --workload fork_fib --seed 1 --seconds 10 --trace 0

Builds perfbench/jobbench.cpp against the runtime sources under src/ (CMake,
Release, into .bench_build/perfbench, or under $CARGO_TARGET_DIR when that is
set), runs one workload for --seconds, and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones, as
listed in BENCHMARK.json. Exits non-zero without a result when the sources
are missing, the build fails, or the workload process misbehaves.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# One run must end within 180 s; the first one in a checkout, which builds,
# within 900 s.
BUILD_TIMEOUT_S = 780
RUN_SLACK_S = 90


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configures and builds the jobbench binary; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("runtime sources (src/CMakeLists.txt) not found under " + root)
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, out_root, "perfbench")
    binary = os.path.join(build_dir, "jobbench")
    deadline = time.monotonic() + BUILD_TIMEOUT_S

    def step(cmd):
        left = deadline - time.monotonic()
        if left <= 0:
            fail("build timed out")
        try:
            r = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=left)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"])
    # Two compile jobs: the machine is shared, and the build happens once.
    step(["cmake", "--build", build_dir, "--target", "jobbench", "-j", "2"])
    if not os.path.isfile(binary):
        fail("build produced no jobbench binary")
    return binary


def check_result(obj, want):
    """Validates the workload's result object; `want` maps metric names to
    units."""
    if not isinstance(obj, dict) or set(obj) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys")
    if not isinstance(obj["correct"], bool):
        fail("'correct' is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(obj[k], int) or isinstance(obj[k], bool):
            fail("'%s' is not an integer" % k)
    if obj["attempted"] < 1:
        fail("nothing attempted")
    got = obj["metrics"]
    if not isinstance(got, dict) or set(got) != set(want):
        fail("metric set differs from BENCHMARK.json")
    for name, m in got.items():
        if (not isinstance(m, dict) or m.get("unit") != want[name]
                or not isinstance(m.get("value"), (int, float))):
            fail("bad metric " + name)


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    binary = build(root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("workload timed out")
    if r.returncode != 0:
        fail("workload exited with code %d" % r.returncode)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("workload printed no result")
    try:
        obj = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: " + lines[-1][:200])
    check_result(obj, {m["name"]: m["unit"] for m in
                       spec["per_layer" if args.trace else "end_to_end"]})
    print(json.dumps(obj))


if __name__ == "__main__":
    main()
