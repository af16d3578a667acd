#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this folder).

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

Each call configures and builds perfbench/ (the engine libraries from src/
plus the driver) as an optimised build under .bench_build/perfbench; after
the first call that only rebuilds what changed. The last line of standard
output is the driver's JSON result. The run is refused, with no result
line, when the generated inputs of a pinned (workload, seed) no longer
match digests.json.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(BUILD_DIR, "runs")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Leaves room under the 180 s limit for the build check and Python itself.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; output goes to stderr."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
              "-j", jobs]]
    for step in steps:
        build = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if build.returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def pinned_digest(workload, seed):
    with open(os.path.join(BENCH_DIR, "digests.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    if not build():
        return 1
    os.makedirs(RUNS_DIR, exist_ok=True)
    if args.selftest:
        command = [BINARY, "--selftest"]
    else:
        command = [BINARY, "--workload", args.workload, "--seed",
                   str(args.seed)]
        probe = subprocess.run(command + ["--digest_only"],
                               stdout=subprocess.PIPE, stderr=sys.stderr,
                               text=True)
        if probe.returncode:
            return probe.returncode
        digest = next(line.split()[1] for line in probe.stdout.splitlines()
                      if line.startswith("digest "))
        pinned = pinned_digest(args.workload, args.seed)
        if pinned is not None and digest != pinned:
            log(f"refusing: inputs of {args.workload} seed {args.seed} have "
                f"digest {digest}, pinned {pinned}; the workload definition "
                "changed (generator, engine defaults or driver settings)")
            return 2
        command += ["--seconds", str(args.seconds), "--trace",
                    str(args.trace), "--out_dir", RUNS_DIR]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
