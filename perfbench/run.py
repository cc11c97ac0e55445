#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload npn4_enum --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (which compiles the library
under src/) into .bench_build/cmake; later runs only re-check the build.
The build's output goes to standard error, so the last line of standard
output is the benchmark's JSON result.  Traced runs also write their spans
to .bench_build/traces/.
"""

import argparse
import fcntl
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "stpes_perfbench")
WORKLOADS = ("npn4_enum", "fdsd6_enum", "cuts_serve")

# Whole-run limits: the build may take long once; a measured run must end
# well inside three minutes.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Address-space cap of the benchmark process: a runaway solve fails fast
# instead of exhausting the machine.
ADDRESS_SPACE_CAP = 8 << 30


def build():
    """Configures (once) and builds the benchmark under a lock, so two
    runs in one checkout never build over each other."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr, check=True,
                timeout=BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", BUILD_DIR, "--target", "stpes_perfbench",
             "-j", jobs],
            stdout=sys.stderr, stderr=sys.stderr, check=True,
            timeout=max(1.0, deadline - time.monotonic()))


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--ref", os.path.join(HERE, "reference"),
           "--run-root", os.path.join(BUILD_ROOT, "runs")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_ROOT, "traces",
            f"{args.workload}-seed{args.seed}-{os.getpid()}.json")]
    try:
        # The child inherits stdout: its last line is the result line.
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              preexec_fn=cap_address_space)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
