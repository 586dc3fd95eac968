#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload fig9 --seed 1 --seconds 10 --trace 0

Run from the root of a flexopt checkout.  The first call configures and
builds `perfbench` (the flexopt library plus the benchmark's own sources,
Release, tests/benches/examples off) under .bench_build/perfbench; later
calls only rebuild what changed.  Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.  The traced run (--trace 1)
writes its Chrome trace-event file to .bench_build/perfbench-trace.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
TRACE_FILE = os.path.join(ROOT, ".bench_build", "perfbench-trace.json")
JOBS = "4"


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no flexopt sources at %s (missing %s)" % (ROOT, needed))
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", JOBS])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    args = sys.argv[1:]
    build()
    if "--trace-file" not in args:
        args += ["--trace-file", TRACE_FILE]
    sys.stdout.flush()
    result = subprocess.run([BINARY] + args)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
