#!/usr/bin/env python3
"""Checks check_bench_regression.py's rule on synthetic benchmark runs.

Each case builds two fake build trees whose bench binaries are shell scripts
that replay one recorded Google Benchmark JSON document per round, then runs
the gate on them and checks its exit status and the verdict of the row.

    python3 tools/check_bench_regression_test.py
"""

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
GATE = TOOLS / "check_bench_regression.py"
sys.path.insert(0, str(TOOLS))
import check_bench_regression as gate  # noqa: E402

# Replays round N's JSON (the binary's Nth run) into --benchmark_out.
FAKE_BENCH = """#!/bin/sh
n=0
[ -f "$0.round" ] && read -r n < "$0.round"
echo $((n + 1)) > "$0.round"
for arg in "$@"; do
  case "$arg" in --benchmark_out=*) cp "$0.$n.json" "${arg#*=}" ;; esac
done
exit %d
"""

# Round-to-round spread of the parent's times: its IQR is ~2% of the median.
SPREAD = [1.00, 1.02, 0.99, 1.01, 0.98, 1.03, 1.00, 0.97, 1.01, 0.99]


def spread(r):
    return SPREAD[r % len(SPREAD)]


def row(name, cpu, real=None, unit="ns"):
    return {"name": name, "run_type": "iteration", "iterations": 1000,
            "real_time": cpu if real is None else real, "cpu_time": cpu,
            "time_unit": unit}


def write_tree(root, rows_of_round, status=0):
    """A build tree whose bench_knapsack replays rows_of_round(r) and whose
    other binaries replay one steady row each."""
    bench = root / "bench"
    bench.mkdir(parents=True)
    for binary in gate.BINARIES:
        exe = bench / binary
        is_case = binary == "bench_knapsack"
        exe.write_text(FAKE_BENCH % (status if is_case else 0))
        exe.chmod(0o755)
        for r in range(gate.ROUNDS):
            rows = rows_of_round(r) if is_case else [row("BM_Steady", 500.0)]
            (bench / f"{binary}.{r}.json").write_text(
                json.dumps({"context": {}, "benchmarks": rows}))


def run_case(parent_rows, head_rows, head_status=0):
    with tempfile.TemporaryDirectory() as tmp:
        write_tree(Path(tmp) / "parent", parent_rows)
        write_tree(Path(tmp) / "head", head_rows, head_status)
        proc = subprocess.run(
            [sys.executable, str(GATE), str(Path(tmp) / "parent"),
             str(Path(tmp) / "head"), "--threshold", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


def verdict(output, name):
    for line in output.splitlines():
        if line.startswith(name + " "):
            return line.split()[-1]
    return None


def steady(r):
    return [row("BM_Row", 1000.0 * spread(r))]


def slower_in(rounds):
    """HEAD 20% slower than steady() in the first `rounds` rounds, 5% faster
    in the others."""
    return lambda r: [row("BM_Row", 1000.0 * spread(r) *
                          (1.2 if r < rounds else 0.95))]


NEEDED = math.ceil(gate.WIN_SHARE * gate.ROUNDS)

CASES = [
    # (title, parent rows, HEAD rows, HEAD exit status, exit, row, verdict)
    ("identical sides pass", steady, steady, 0, 0, "BM_Row", "ok"),
    (f"20% slower in {gate.ROUNDS} of {gate.ROUNDS} rounds fails",
     steady, slower_in(gate.ROUNDS), 0, 1, "BM_Row", "REGRESSION"),
    (f"20% slower in {NEEDED - 1} of {gate.ROUNDS} rounds passes",
     steady, slower_in(NEEDED - 1), 0, 0, "BM_Row", "ok"),
    ("12% slower every round, within the parent's IQR, passes",
     lambda r: [row("BM_Row", 1000.0 * (0.7 if r % 2 else 1.3))],
     lambda r: [row("BM_Row", 1120.0 * (0.7 if r % 2 else 1.3))],
     0, 0, "BM_Row", "ok"),
    ("a row missing from HEAD fails",
     lambda r: steady(r) + [row("BM_Gone", 50.0)], steady, 0, 1,
     "BM_Gone", "FAIL"),
    ("a row only HEAD has passes as new",
     steady, lambda r: steady(r) + [row("BM_New", 50.0)], 0, 0,
     "BM_New", "new"),
    ("a HEAD run that exits non-zero fails", steady, steady, 1, 1,
     "BM_Row", "ok"),
    ("a /real_time row is judged on real time: cpu time doubling passes",
     lambda r: [row("BM_Wait/real_time", 10.0, real=1000.0 * spread(r))],
     lambda r: [row("BM_Wait/real_time", 20.0, real=1000.0 * spread(r))],
     0, 0, "BM_Wait/real_time", "ok"),
    ("a /real_time row is judged on real time: real time +20% fails",
     lambda r: [row("BM_Wait/real_time", 10.0, real=1000.0 * spread(r))],
     lambda r: [row("BM_Wait/real_time", 10.0, real=1200.0 * spread(r))],
     0, 1, "BM_Wait/real_time", "REGRESSION"),
    ("a cpu-timed row ignores real time",
     lambda r: [row("BM_Row", 1000.0 * spread(r), real=1000.0)],
     lambda r: [row("BM_Row", 1000.0 * spread(r), real=2000.0)],
     0, 0, "BM_Row", "ok"),
    ("ms and us rows are compared after normalization",
     lambda r: [row("BM_Row", 1.0 * spread(r), unit="ms")],
     lambda r: [row("BM_Row", 1000.0 * spread(r), unit="us")],
     0, 0, "BM_Row", "ok"),
    ("us rows 20% slower than ms rows fail",
     lambda r: [row("BM_Row", 1.0 * spread(r), unit="ms")],
     lambda r: [row("BM_Row", 1200.0 * spread(r), unit="us")],
     0, 1, "BM_Row", "REGRESSION"),
]


def main():
    failed = 0
    for title, parent, head, status, want_exit, name, want in CASES:
        code, output = run_case(parent, head, status)
        got = verdict(output, name)
        ok = code == want_exit and got == want
        print(f"{'ok  ' if ok else 'FAIL'} {title} (exit {code}, {name}: {got})")
        if not ok:
            failed += 1
            print(output)
    print(f"{len(CASES) - failed} of {len(CASES)} cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
