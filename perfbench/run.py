#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload short_fleet --seed 1 --seconds 10 --trace 0

Run from the root of an incentag checkout. Builds the library and the
benchmark (Release) into $CARGO_TARGET_DIR or .bench_build, runs the
harness unit tests, then runs the workload with its journals under the
build directory, which sits on the checkout's own filesystem. The last
line of standard output is the workload's JSON result; build output goes
to standard error. Exits non-zero, without a result, when the build or
the harness tests fail.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("short_fleet", "long_fleet", "edge_ingest", "restart")


def run(cmd, **kwargs):
    return subprocess.run(cmd, check=False, **kwargs).returncode


def build(source_dir, build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run(["cmake", "-S", source_dir, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr) != 0:
            return False
    if run(["cmake", "--build", build_dir, "-j", jobs],
           stdout=sys.stderr) != 0:
        return False
    test = os.path.join(build_dir, "perfbench_harness_test")
    if os.path.exists(test):
        return run([test, "--gtest_brief=1"], stdout=sys.stderr) == 0
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    if not build(source_dir, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    try:
        return run([os.path.join(build_dir, "perfbench_fleet"),
                    "--workload", args.workload,
                    "--seed", str(args.seed),
                    "--seconds", repr(args.seconds),
                    "--trace", str(args.trace),
                    "--work_dir", work_dir],
                   timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: workload timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
