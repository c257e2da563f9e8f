#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs against BENCHMARK.json.

    python3 bench/e2e/compare.py A_DIR B_DIR
    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR --pairs \\
        --claim fig9-cold:op_ms_p50

Each directory holds the records.jsonl that `run.py --out DIR` appends to.
Only untraced records of the end-to-end metrics are compared.

Default mode: for every (workload, metric) it prints each set's median and
quartiles and exits 1 if the medians differ by more than the metric's bound
(a share of A's median) in either direction. Two sets of runs of the same
code must agree this way.

--pairs mode, for a change that claims a gain: runs of A (the parent) and B
(the change) are paired by workload and seed, in the order they were run;
alternate which side runs first. A claimed (workload, metric) is met when
there are at least 10 pairs, B wins at least 9/10 of them (ties count for
neither side), and the medians differ by more than A's interquartile range.
Every other (workload, metric) must not be worse than A by more than its
bound. Exits 1 when a claim is not met or anything regressed.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory, metrics):
    """{(workload, metric): [(seed, value), ...]} in file order."""
    runs = defaultdict(list)
    path = Path(directory) / "records.jsonl"
    if not path.is_file():
        sys.exit(f"compare.py: no {path}")
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if r["trace"] == 0 and r["metric"] in metrics:
                runs[(r["workload"], r["metric"])].append((r["seed"], r["value"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def worse_by(a, b, better):
    """Share by which b is worse than a (negative when b is better)."""
    change = (b - a) / a
    return change if better == "lower" else -change


def pair_up(a_runs, b_runs):
    pending = defaultdict(list)
    for seed, value in a_runs:
        pending[seed].append(value)
    pairs = []
    for seed, value in b_runs:
        if pending[seed]:
            pairs.append((pending[seed].pop(0), value))
    return pairs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_dir")
    parser.add_argument("b_dir")
    parser.add_argument("--pairs", action="store_true",
                        help="paired gain test of B (change) against A "
                             "(parent)")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC",
                        help="claimed gain to test in --pairs mode")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    a = load_runs(args.a_dir, metrics)
    b = load_runs(args.b_dir, metrics)
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    bad = []
    print(f"{'workload':<14} {'metric':<14} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B worse by':>10}  verdict")
    for key in sorted(set(a) | set(b)):
        workload, name = key
        if key not in a or key not in b:
            bad.append(key)
            print(f"{workload:<14} {name:<14} missing in one set")
            continue
        spec = metrics[name]
        av = [v for _, v in a[key]]
        bv = [v for _, v in b[key]]
        am, bm = statistics.median(av), statistics.median(bv)
        aq, bq = quartiles(av), quartiles(bv)
        change = worse_by(am, bm, spec["better"])
        if args.pairs and key in claims:
            pairs = pair_up(a[key], b[key])
            wins = sum(worse_by(x, y, spec["better"]) < 0 for x, y in pairs)
            met = (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
                   and change < 0 and abs(bm - am) > aq[1] - aq[0])
            verdict = (f"gain {'met' if met else 'NOT MET'} "
                       f"({wins}/{len(pairs)} wins)")
            ok = met
        elif args.pairs:
            ok = change <= spec["bound"]
            verdict = "no regression" if ok else "REGRESSION"
        else:
            ok = abs(change) <= spec["bound"]
            verdict = "agree" if ok else "DISAGREE"
        if not ok:
            bad.append(key)
        print(f"{workload:<14} {name:<14} "
              f"{am:>12.5g} [{aq[0]:>9.5g}, {aq[1]:>9.5g}] "
              f"{bm:>12.5g} [{bq[0]:>9.5g}, {bq[1]:>9.5g}] "
              f"{100 * change:>9.2f}%  {verdict} (bound {spec['bound']:.0%})")
    for claim in claims:
        if claim not in a or claim not in b:
            bad.append(claim)
            print(f"claim {':'.join(claim)}: no such (workload, metric) in "
                  "both sets")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
