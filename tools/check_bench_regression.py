#!/usr/bin/env python3
"""Paired micro-benchmark gate: HEAD against its parent, on one host.

Usage:
    check_bench_regression.py PARENT_BUILD HEAD_BUILD [--threshold PCT]

PARENT_BUILD and HEAD_BUILD are build trees of the parent (the merge base)
and of HEAD, both Release. The gate runs every binary in BINARIES for ROUNDS
rounds. A round runs the binary once per side with --benchmark_min_time=0.2
--benchmark_repetitions=1, and a seeded draw picks which side runs first.
Each run writes Google Benchmark's own JSON to
BUILD/bench-json/BINARY.ROUND.json.

A row is timed by its real time when its name ends in /real_time, and by
its CPU time otherwise, in ns whatever its time_unit. It regresses when all
three hold:
  * HEAD is slower than the parent in at least WIN_SHARE of the rounds;
  * HEAD's median is more than --threshold percent (default 10) above the
    parent's;
  * the two medians differ by more than the parent's interquartile range.
The first and third conditions are the rule bench/e2e/compare.py --pairs
applies to a claimed gain.

A parent row missing from HEAD fails, and so does a HEAD run that exits
non-zero (bench_sim_engine's exit status carries its obs-overhead gate).
Rows only HEAD has are reported as new and pass; so are the rows of a binary
the parent does not build.

Exit status: 0 = no regression, 1 = regression, missing row or failed HEAD
run, 2 = usage error or a parent run that wrote no JSON.
"""

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

BINARIES = (
    "bench_sim_engine",
    "bench_knapsack",
    "bench_perfvector",
    "bench_alg1_repartition",
    "bench_eval_cache",
    "bench_net",
    "bench_service",
    "bench_fault",
)
ROUNDS = 10
WIN_SHARE = 0.9
SEED = 0
FLAGS = ("--benchmark_min_time=0.2", "--benchmark_repetitions=1")
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_rows(path):
    """{row name: ns per iteration} of one run's Google Benchmark JSON."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as err:
        return None, f"cannot read {path}: {err}"
    rows = {}
    for row in doc.get("benchmarks", []):
        if row.get("run_type") != "iteration" or row.get("error_occurred"):
            continue
        name = row["name"]
        key = "real_time" if name.endswith("/real_time") else "cpu_time"
        rows[name] = row[key] * NS_PER_UNIT[row["time_unit"]]
    return rows, None


def run(build, binary, round_index):
    """Runs one binary once; returns (exit status or None, rows or None, log)."""
    exe = Path(build) / "bench" / binary
    if not exe.is_file():
        return None, None, f"{exe} does not exist"
    out = Path(build) / "bench-json" / f"{binary}.{round_index}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    proc = subprocess.run(
        [str(exe), *FLAGS, f"--benchmark_out={out}",
         "--benchmark_out_format=json"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    rows, error = load_rows(out)
    return proc.returncode, rows, error or "\n".join(proc.stdout.splitlines()[-5:])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def judge(name, parent, head, threshold):
    """Prints one row's line; returns its failure message or None."""
    if not parent:
        print(f"{name:<52} {'':>13} {statistics.median(head):>13.1f}  new")
        return None
    if len(head) != len(parent):
        print(f"{name:<52} {statistics.median(parent):>13.1f} "
              f"{'MISSING':>13}  FAIL")
        return f"{name}: missing from HEAD in {len(parent) - len(head)} round(s)"
    pm, hm = statistics.median(parent), statistics.median(head)
    q1, q3 = quartiles(parent)
    wins = sum(h < p for p, h in zip(parent, head))
    losses = sum(h > p for p, h in zip(parent, head))
    change = 100.0 * (hm - pm) / pm
    regressed = (losses >= WIN_SHARE * len(parent) and change > threshold
                 and hm - pm > q3 - q1)
    print(f"{name:<52} {pm:>13.1f} {hm:>13.1f} {q3 - q1:>11.1f} "
          f"({100.0 * (q3 - q1) / pm:4.1f}%) {change:+7.1f}% "
          f"{wins:>3}-{losses:<3} {'REGRESSION' if regressed else 'ok'}")
    if regressed:
        return (f"{name}: {pm:.1f} -> {hm:.1f} ns ({change:+.1f}%), HEAD "
                f"slower in {losses} of {len(parent)} rounds")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_build", help="build tree of the parent")
    parser.add_argument("head_build", help="build tree of HEAD")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="max allowed slowdown of a row's median in "
                             "percent (default: 10)")
    args = parser.parse_args()
    for build in (args.parent_build, args.head_build):
        if not Path(build).is_dir():
            sys.exit(f"error: {build} is not a build tree")

    sides = {"parent": args.parent_build, "HEAD": args.head_build}
    # times[side][binary][row] = ns per iteration, one entry per round.
    times = {side: {b: {} for b in BINARIES} for side in sides}
    failures = []
    draw = random.Random(SEED)
    for r in range(ROUNDS):
        for binary in BINARIES:
            order = ["parent", "HEAD"]
            draw.shuffle(order)
            print(f"round {r + 1}/{ROUNDS}: {binary} ({' then '.join(order)})",
                  flush=True)
            for side in order:
                status, rows, log = run(sides[side], binary, r)
                if status != 0:
                    what = "did not run" if status is None else f"exited {status}"
                    message = f"{side} {binary} (round {r + 1}) {what}: {log}"
                    if side == "HEAD":
                        failures.append(message)
                    elif status is not None:
                        print(f"note: {message}")
                if rows is None:
                    if side == "parent" and status is not None:
                        sys.exit(f"error: parent {binary}: {log}")
                    continue
                for name, ns in rows.items():
                    times[side][binary].setdefault(name, []).append(ns)

    for binary in BINARIES:
        parent, head = times["parent"][binary], times["HEAD"][binary]
        print(f"\n== {binary} ==\n{'row':<52} {'parent ns':>13} {'HEAD ns':>13} "
              f"{'parent IQR':>19} {'change':>8} {'W-L':>7}  verdict")
        for name in sorted(set(parent) | set(head)):
            failure = judge(name, parent.get(name, []), head.get(name, []),
                            args.threshold)
            if failure:
                failures.append(f"{binary}: {failure}")

    print(f"\nW-L: rounds HEAD was faster - slower. A row regresses when HEAD "
          f"is slower in >= {WIN_SHARE:.0%} of {ROUNDS} rounds, its median "
          f"is > {args.threshold:g}% above the parent's and the medians "
          f"differ by more than the parent's IQR.")
    if failures:
        print(f"\n{len(failures)} failure(s):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nno regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
