#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the repository root:

  python3 servebench/run.py --workload apache-fo --seed 1 --seconds 20 --trace 0
  python3 servebench/run.py --selftest

The first call configures and builds into .bench_build/ (the library with
the repository's own CMake flags, then the driver); later calls rebuild
only what changed. Build output goes to stderr, so the driver's last
stdout line stays its JSON result. With --trace 1 the spans are written to
.bench_build/trace-<workload>.tsv.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def build(target):
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        print("servebench: run from the repository root (no CMakeLists.txt or src/ here)",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "servebench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", target]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def flag_value(args, flag):
    if flag in args:
        index = args.index(flag)
        if index + 1 < len(args):
            return args[index + 1]
    return None


def main(args):
    if args == ["--selftest"]:
        if not build("servebench_test"):
            return 1
        return subprocess.run([os.path.join(BUILD_DIR, "servebench_test")]).returncode
    if not build("serve_bench"):
        return 1
    command = [os.path.join(BUILD_DIR, "serve_bench")] + args
    workload = flag_value(args, "--workload")
    if flag_value(args, "--trace") == "1" and workload:
        command += ["--trace-out", os.path.join(BUILD_DIR, "trace-%s.tsv" % workload)]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
