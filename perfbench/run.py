#!/usr/bin/env python3
"""Builds and runs the served-pipeline benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload kmult_fleet --seed 1 --seconds 10 --trace 0

Configures perfbench/ with CMake (Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), builds it, and runs the pipeline binary.
Build output goes to stderr; the binary's report goes to stdout, whose last
line is the JSON result. Exits non-zero without a result when the library
sources are missing or the build fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("kmult_fleet", "wide_exact", "filtered_churn")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; waits for it to end."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(bench_dir, "..", "src", "svc",
                                       "server.hpp")):
        fail("library sources (src/) not found next to perfbench/")

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", bench_dir, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", build_dir, "-j3"], BUILD_TIMEOUT_S)

    binary = os.path.join(build_dir, "pipeline")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
