#!/usr/bin/env python3
"""Build and run the triarch benchmark.

One run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 38 --trace 0

builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR
(default .bench_build) under the checkout, times several set-ups in
fresh processes, then runs the measured loop. The last line of stdout
is the result JSON.

Steadiness check (median, quartiles and spread of every end-to-end
metric over runs with different seeds, against BENCHMARK.json's
bounds):

    python3 perfbench/run.py steady --workloads table3,sweep --runs 10
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(TARGET, "perfbench")
OUT = os.path.join(TARGET, "perfbench-out")
EXE = os.path.join(BUILD, "perfbench_triarch")
EXPECTED = os.path.join(HERE, "expected_table3.json")

# Set-up is timed in this many --setup-only processes; setup_s is their
# median.
SETUP_PROCESSES = 21
# A run must end within 180 s; leave room for the set-up processes.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; exit 1 on failure."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def setup_sample(workload, seed):
    """Set-up nanoseconds of one fresh process (see README.md)."""
    out = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--setup-only",
         "--expected", EXPECTED, "--out-dir", OUT],
        stdout=subprocess.PIPE, text=True, timeout=60, check=True).stdout
    for line in out.splitlines():
        if line.startswith("setup_ns "):
            return line.split()[1]
    sys.exit("perfbench: --setup-only printed no setup_ns")


def run(args):
    build()
    samples = [setup_sample(args.workload, args.seed)
               for _ in range(SETUP_PROCESSES)]
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", EXPECTED, "--out-dir", OUT,
           "--setup-samples", ",".join(samples)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def steady(args):
    """Run each workload args.runs times with distinct seeds and print
    each end-to-end metric's median, quartiles and spread vs its bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    ok = True
    for workload in workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            if not result or not result["correct"]:
                print("%s seed %d: FAILED (exit %d)"
                      % (workload, seed, proc.returncode))
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, m["value"])
                for k, m in result["metrics"].items())), flush=True)
            for line in lines:
                if line.startswith("speed probe:"):
                    print("  " + line, flush=True)
        print("\n%s over %d runs" % (workload, args.runs))
        print("%-16s %12s %12s %12s %8s %6s  %s"
              % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, float("nan"))
            if spread > bound:
                verdict = "OVER BOUND"
                ok = False
            elif spread > bound / 3:
                verdict = "ok, above bound/3"
            else:
                verdict = "ok"
            print("%-16s %12.5g %12.5g %12.5g %8.4f %6.3f  %s"
                  % (name, med, q1, q3, spread, bound, verdict))
        print()
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "steady":
        p = argparse.ArgumentParser(prog="run.py steady")
        p.add_argument("--workloads", default="")
        p.add_argument("--runs", type=int, default=10)
        return steady(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True,
                   choices=["table3", "sweep", "table3_docs"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
