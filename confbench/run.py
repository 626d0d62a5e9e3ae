#!/usr/bin/env python3
"""Build and run the conference benchmark.

    python3 confbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: fleet-steady, large-meeting, churn-federated (see
confbench/README.md). The first call configures and builds the simulator
library and the benchmark driver from the checkout's sources into
.bench_build/confbench (CMake, Release); later calls reuse that build.
Build output goes to stderr. The driver's stdout is passed through; its
last line is the JSON result {"correct", "attempted", "failed", "metrics"}.
The exit code is the driver's, or 2 when the sources or the build are
missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "confbench")
OUT = os.path.join(ROOT, ".bench_build", "confbench-out")
BINARY = os.path.join(BUILD, "confbench")
# The driver's own bound per run is 180 s; stop well before it.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def fail(msg):
    print(f"confbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "runner.hpp")):
        fail(f"no simulator sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            stdout=sys.stderr,
            check=True,
        )
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", BUILD_JOBS], stdout=sys.stderr, check=True
    )


def run(args):
    cmd = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", OUT,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    last = ""
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    for line in out.splitlines():
        print(line, flush=True)
        if line.strip():
            last = line
    if proc.returncode != 0:
        return proc.returncode
    try:
        result = json.loads(last)
    except ValueError:
        print("confbench: driver printed no JSON result", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("confbench: malformed result line", file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    try:
        build()
    except subprocess.CalledProcessError as e:
        fail(f"build failed ({e})")
    try:
        sys.exit(run(args))
    except subprocess.TimeoutExpired:
        print(f"confbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
