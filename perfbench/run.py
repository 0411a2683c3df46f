#!/usr/bin/env python3
"""Builds and runs the serving benchmark from the checkout it sits in.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the checkout root. The first call configures and builds
perfbench/ (and the library under test, from ../src) into .bench_build/;
later calls rebuild incrementally. Build output goes to
.bench_build/build.log, so stdout carries only the benchmark's own lines,
the last of which is the JSON result. The exit code is the benchmark's.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at %s/src" % ROOT)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                  "--target"] + targets)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (full log: %s)" % log_path)
    return BUILD_DIR


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    binary = os.path.join(build(["perfbench"]), "perfbench")
    out_dir = os.path.join(BUILD_ROOT, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", args.trace,
                           "--out", out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
