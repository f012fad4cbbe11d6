#!/usr/bin/env python3
"""Builds the serve-path benchmark from source and runs one workload.

    python3 servebench/run.py --workload wiki-x1 --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR when it
is set (a relative path is taken from the repository root), else to
.bench_build; the Chrome trace of the traced phase goes to
servebench/out/. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. Exits non-zero, printing no result, when
the library sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "sharded_engine.h")):
        print("servebench: no library sources under %s/src" % ROOT, file=sys.stderr)
        return False
    configure = ["cmake", "-S", HERE, "-B", build_dir]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("servebench: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "serve_bench")
    sys.stdout.flush()
    return subprocess.run([
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--out-dir", os.path.join(HERE, "out"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
