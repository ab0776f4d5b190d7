#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

One run (what BENCHMARK.json's command does):

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the simulator and the benchmark program from source (CMake,
into $CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench),
then runs the program; its last line of standard output is the JSON
result.  Build output goes to standard error.

Repeat mode, for measuring the run-to-run spread the bounds rest on:

    python3 e2ebench/run.py --repeat 10 [--workload NAME ...]
                            [--seconds S] [--first-seed N]

runs each workload N times with seeds N0, N0+1, ... and prints, per
end-to-end metric, the median, the quartiles (Python's
statistics.quantiles, n=4), the quartile spread as a share of the
median, and the max/min ratio.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-tables", "kleb-highrate", "fleet"]


def build():
    """Configure once, build incrementally; return the binary path."""
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    build_dir = os.path.join(base, "e2ebench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("e2ebench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "e2ebench")


def run_once(binary, workload, seed, seconds):
    """One untraced run of the program; returns its JSON result."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("e2ebench: %s seed %d exited %d"
                 % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(binary, args):
    for workload in args.workload or WORKLOADS:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.repeat):
            r = run_once(binary, workload, seed, args.seconds)
            results.append(r)
            print("%s seed %d: correct=%s attempted=%d failed=%d"
                  % (workload, seed, r["correct"], r["attempted"],
                     r["failed"]), file=sys.stderr)
        print("%s: %d runs, all correct: %s, failed shares: %s"
              % (workload, len(results),
                 all(r["correct"] for r in results),
                 sorted({r["failed"] / r["attempted"] for r in results})))
        print("  %-34s %12s %12s %12s %8s %8s"
              % ("metric", "median", "q1", "q3", "iqr/med", "max/min"))
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            lo = min(values)
            print("  %-34s %12.6g %12.6g %12.6g %8.4f %8.4f %s"
                  % (name, med, q1, q3, (q3 - q1) / med if med else 0.0,
                     max(values) / lo if lo else float("inf"),
                     first["unit"]))
        sys.stdout.flush()


def main():
    if "--repeat" not in sys.argv:
        binary = build()
        sys.exit(subprocess.run([binary] + sys.argv[1:]).returncode)
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, required=True)
    parser.add_argument("--workload", action="append",
                        choices=WORKLOADS)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.repeat < 2:
        parser.error("--repeat needs at least 2 runs")
    repeat(build(), args)


if __name__ == "__main__":
    main()
