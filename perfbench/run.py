#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout's sources and runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the root of the checkout. The driver is built with CMake under
.bench_build/perfbench (incrementally, so an up-to-date tree costs about a
second); trace files and the WAL of branch_rw_20k go under .bench_build/work.
Build output goes to stderr: the last line of stdout is the driver's JSON
result. A failed build exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the driver; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"build step failed: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"build step failed ({done.returncode}): {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def main(argv):
    if not build():
        return 1
    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY] + argv + ["--work-dir", WORK]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
