#!/usr/bin/env python3
"""Build and run fleetbench, the end-to-end benchmark of the rvss fleet.

  python3 fleetbench/run.py --workload batch --seed 1 --seconds 40 --trace 0
  python3 fleetbench/run.py              # both workloads, untraced then traced
  python3 fleetbench/run.py --self-test  # the harness's own tests

Run it from the root of a checkout. The simulator is built from the
checkout's src/ into .bench_build/fleetbench (cmake, Release); later runs
only re-check that build. Build output goes to stderr. The benchmark's
report, and as its last line one JSON result, go to stdout.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "fleetbench")
BUILD = os.path.join(ROOT, ".bench_build", "fleetbench")


def check(command):
    """Runs a build step with its output on stderr; exits on failure."""
    done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(done.returncode or 1)


def build(target):
    check(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    check(["cmake", "--build", BUILD, "--target", target, "-j", "4"])
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["interactive", "batch"])
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        sys.stdout.flush()
        return subprocess.run([build("fleetbench_test")], cwd=ROOT).returncode

    binary = build("fleetbench")
    workloads = [args.workload] if args.workload else ["interactive", "batch"]
    traces = [args.trace] if args.trace else ["0", "1"]
    status = 0
    for trace in traces:
        for workload in workloads:
            sys.stdout.flush()
            done = subprocess.run(
                [binary, "--workload", workload, "--seed", args.seed,
                 "--seconds", args.seconds, "--trace", trace], cwd=ROOT)
            status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
