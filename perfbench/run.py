#!/usr/bin/env python3
"""Build and run the xguard simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload stress|perf|chaos|check \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/bench.exe with dune, runs it and passes its output through.
The last line of a benchmark run is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is non-zero when the build or
any correctness check fails.  Metrics streams, span records and the GC
event ring go to .perfbench_out/ in the repository root.
"""

import argparse
import os
import subprocess
import sys
import time

RUN_LIMIT_S = 170  # a run must end within 180 s
BUILD_LIMIT_S = 700  # the first run in a fresh checkout builds everything
OUT_DIR = ".perfbench_out"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def build(env):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (no dune-project/lib here)",
              file=sys.stderr)
        return False
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_LIMIT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if done.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["stress", "perf", "chaos", "check"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own tests instead of a workload")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    env = dict(os.environ, DUNE_CACHE="disabled", OCAML_RUNTIME_EVENTS_DIR=OUT_DIR)
    env.pop("OCAML_RUNTIME_EVENTS_START", None)
    started = time.monotonic()
    if not build(env):
        return 2
    if args.self_test:
        cmd, limit = [EXE, "selftest"], None
    else:
        cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        # The build does not count against the run's own limit.
        limit = RUN_LIMIT_S
    try:
        done = subprocess.run(cmd, env=env, timeout=limit)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {limit} s (after {time.monotonic() - started:.0f} s "
              "including the build)", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
