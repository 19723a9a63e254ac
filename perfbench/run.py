#!/usr/bin/env python3
"""Build and run the wdag benchmark.

    python3 perfbench/run.py --workload upp-mix --seed 1 --seconds 8 --trace 0

Run from the root of a wdag checkout. The first run configures and
builds the benchmark binary together with the wdag library and CLI
(Release) under .bench_build/perfbench; later runs only re-check the
build. The benchmark's own output goes to stdout and ends with one JSON
line; build output goes to stderr. See perfbench/README.md.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["upp-mix", "certify-exact", "dense-dsatur", "serve-open"]


def build():
    """Configure (once) and build perfbench and the wdag CLI; returns the
    two executables. A lock keeps concurrent runs from building at once."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release", "-DWDAG_WERROR=OFF"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
             "--target", "perfbench", "wdag_cli"],
            stdout=sys.stderr, check=True)
    return (os.path.join(BUILD, "perfbench"),
            os.path.join(BUILD, "wdag", "wdag"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("run.py: no wdag source tree next to perfbench/", file=sys.stderr)
        return 2
    try:
        binary, wdag_cli = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    work_dir = os.path.join(BUILD, "run")
    os.makedirs(work_dir, exist_ok=True)
    sys.stdout.flush()
    os.execv(binary, [binary, "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", args.trace, "--wdag", wdag_cli,
                      "--work-dir", work_dir])


if __name__ == "__main__":
    sys.exit(main())
