#!/usr/bin/env python3
"""Paired, interleaved host-time A/B of two micro_host binaries.

Runs binary A and binary B round by round on one pinned core,
alternating which goes first, and reads each round's per-cell median
from `micro_host --json`. For every cell it prints the median of the
paired ratios B/A (below 1.0: B is faster), a bootstrap 95% interval
of that median, and how many rounds B won:

    python3 bench/ab_host.py --a parent/bench/micro_host \\
        --b build/bench/micro_host --machines raw --rounds 10 --pin 2

A fast path whose interval contains 1.0 has not shown that it pays.
Unpinned medians on a shared host swing by tens of percent between
runs; only the pairs, taken close together, are comparable.
"""

import argparse
import json
import random
import statistics
import subprocess
import sys


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--a", required=True, help="baseline micro_host")
    p.add_argument("--b", required=True, help="candidate micro_host")
    p.add_argument("--rounds", type=int, default=10,
                   help="paired rounds (default 10)")
    p.add_argument("--reps", type=int, default=5,
                   help="measured reps per cell per round (default 5)")
    p.add_argument("--warmup", type=int, default=1,
                   help="unmeasured reps per cell per round (default 1)")
    p.add_argument("--pin", type=int, default=0,
                   help="core both binaries are pinned to (default 0)")
    p.add_argument("--machines", default="all")
    p.add_argument("--kernels", default="all")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed passed to micro_host")
    p.add_argument("--bootstrap", type=int, default=2000,
                   help="bootstrap resamples (default 2000)")
    p.add_argument("--json", default=None,
                   help="also write the per-cell summary to this file")
    args = p.parse_args(argv)
    if args.rounds < 1 or args.reps < 1 or args.warmup < 0:
        p.error("--rounds and --reps must be >= 1, --warmup >= 0")
    return args


def measure(binary, args):
    """One micro_host run: {(machine, kernel): median_ns}."""
    cmd = [binary, "--json", "--pin", str(args.pin),
           "--reps", str(args.reps), "--warmup", str(args.warmup),
           "--machines", args.machines, "--kernels", args.kernels]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    out = subprocess.run(cmd, check=True, capture_output=True,
                         text=True).stdout
    host = json.loads(out)["host"]
    return {(c["machine"], c["kernel"]): c["median_ns"]
            for c in host["cells"]}


def bootstrap_median(ratios, resamples, rng):
    """Percentile 95% interval of the median of @p ratios."""
    meds = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios)))
        for _ in range(resamples))
    lo = meds[int(0.025 * (resamples - 1))]
    hi = meds[int(0.975 * (resamples - 1))]
    return lo, hi


def main(argv):
    args = parse_args(argv)
    pairs = {}
    for r in range(args.rounds):
        # Alternate the order so drift in the host's load does not
        # always land on the same side.
        order = [("a", args.a), ("b", args.b)]
        if r % 2:
            order.reverse()
        got = {side: measure(binary, args) for side, binary in order}
        for cell, a_ns in got["a"].items():
            b_ns = got["b"].get(cell)
            if b_ns is not None and a_ns > 0:
                pairs.setdefault(cell, []).append((a_ns, b_ns))
        print(f"round {r + 1}/{args.rounds} done", file=sys.stderr)

    rng = random.Random(1)
    rows = []
    for (machine, kernel), ps in sorted(pairs.items()):
        ratios = [b / a for a, b in ps]
        lo, hi = bootstrap_median(ratios, args.bootstrap, rng)
        rows.append({
            "machine": machine,
            "kernel": kernel,
            "rounds": len(ps),
            "a_median_ms": statistics.median(a for a, _ in ps) / 1e6,
            "b_median_ms": statistics.median(b for _, b in ps) / 1e6,
            "ratio_median": statistics.median(ratios),
            "ratio_ci95": [lo, hi],
            "b_wins": sum(b < a for a, b in ps),
        })

    print(f"{'cell':<14} {'A ms':>9} {'B ms':>9} {'B/A':>7} "
          f"{'95% CI':>17} {'B wins':>8}")
    for row in rows:
        lo, hi = row["ratio_ci95"]
        print(f"{row['machine'] + '.' + row['kernel']:<14} "
              f"{row['a_median_ms']:9.3f} {row['b_median_ms']:9.3f} "
              f"{row['ratio_median']:7.3f} "
              f"{f'[{lo:.3f}, {hi:.3f}]':>17} "
              f"{row['b_wins']:>4}/{row['rounds']:<3}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"schema": "triarch.ab_host.v1", "a": args.a,
                       "b": args.b, "pin": args.pin,
                       "reps": args.reps, "cells": rows}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
