#!/usr/bin/env python3
"""Builds and runs the oagrid end-to-end benchmark (see README.md here).

One workload, result as one JSON object on the last line of stdout:

    python3 bench/e2e/run.py --workload fig9-cold --seed 1 --seconds 15 --trace 0

All four workloads, a table of every metric, and JSON records in --out:

    python3 bench/e2e/run.py [--seed N] [--trace] [--smoke] [--out DIR]

Run it from anywhere inside a full source tree: it configures and builds
build-e2e/ at the tree's root (incrementally after the first time) and runs
each workload in its own process.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "oagrid_e2e"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no oagrid source tree at {ROOT} (src/CMakeLists.txt missing)")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "oagrid_e2e",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(step)}")


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Runs one workload in its own process; returns the parsed result."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(BUILD / "work")]
    if trace:
        (BUILD / "traces").mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(BUILD / "traces" / f"{workload}-seed{seed}.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result (exit code {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no JSON result: {lines[-1]!r}")
    return result, done.returncode


def check_metric_names(result, benchmark, trace):
    section = "per_layer" if trace else "end_to_end"
    want = [m["name"] for m in benchmark[section]]
    got = list(result["metrics"])
    if sorted(got) != sorted(want):
        fail(f"metrics differ from BENCHMARK.json {section}: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}", code=3)


def write_records(out_dir, workload, seed, trace, result):
    out_dir.mkdir(parents=True, exist_ok=True)
    run_id = f"{time.time_ns()}-{os.getpid()}"
    with open(out_dir / "records.jsonl", "a") as f:
        for name, metric in result["metrics"].items():
            f.write(json.dumps({
                "workload": workload, "metric": name,
                "value": metric["value"], "unit": metric["unit"],
                "seed": seed, "trace": trace, "run": run_id,
                "attempted": result["attempted"], "failed": result["failed"],
            }) + "\n")


def print_table(rows):
    width = max(len(r[1]) for r in rows)
    for workload, name, value, unit in rows:
        print(f"{workload:<14} {name:<{width}} {value:>16.6g} {unit}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="measured phase per run (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1],
                        help="1 (or bare --trace): traced run, per-layer "
                             "metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="two ops per workload after a single set-up")
    parser.add_argument("--out", type=Path,
                        help="directory to append JSON records to "
                             "(all-workload default: build-e2e/results)")
    args = parser.parse_args()

    build()
    benchmark = load_benchmark()
    seconds = args.seconds or benchmark["run_seconds"]

    if args.workload:
        result, code = run_workload(args.workload, args.seed, seconds,
                                    args.trace, args.smoke)
        check_metric_names(result, benchmark, args.trace)
        if args.out:
            write_records(args.out, args.workload, args.seed, args.trace,
                          result)
        print(json.dumps(result))
        sys.exit(code)

    out_dir = args.out or BUILD / "results"
    traces = [0, 1] if args.trace else [0]
    rows = []
    failed = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in traces:
            result, code = run_workload(workload, args.seed, seconds, trace,
                                        args.smoke)
            check_metric_names(result, benchmark, trace)
            write_records(out_dir, workload, args.seed, trace, result)
            failed += result["failed"] + (code != 0)
            rows.append((workload, "attempted", result["attempted"], "ops"))
            rows.append((workload, "failed", result["failed"], "ops"))
            rows += [(workload, name, m["value"], m["unit"])
                     for name, m in result["metrics"].items()]
    print_table(rows)
    print(f"records appended to {out_dir / 'records.jsonl'}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
