#!/usr/bin/env python3
"""Steadiness runner: every workload N times, alternating between workloads.

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--seconds S]
                                [--trace 0|1] [--seed-base 100]

Run i of every workload uses seed seed-base + i. For each workload and
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json; a spread above a third of its bound is flagged. Exits
non-zero when any run failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return done.returncode, result, done.stderr


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec.get("workloads", [])))
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 10))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-base", type=int, default=100)
    args = parser.parse_args()
    workloads = [w for w in args.workloads.split(",") if w]
    if not workloads:
        parser.error("no workloads")
    bounds = {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}

    values = {w: {} for w in workloads}
    failures = 0
    for i in range(args.runs):
        for workload in workloads:
            code, result, stderr = run_once(workload, args.seed_base + i,
                                            args.seconds, args.trace)
            if code != 0 or result is None or not result.get("correct"):
                failures += 1
                print(f"run {i} {workload}: FAILED (exit {code})\n{stderr[-2000:]}",
                      file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            shown = list(result["metrics"].items())[:4]
            print(f"run {i} {workload}: ok " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in shown), file=sys.stderr)

    print(f"{'workload':<17} {'metric':<38} {'n':>3} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'spread':>8} {'bound':>6}")
    for workload in workloads:
        for name, series in values[workload].items():
            med = statistics.median(series)
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  HIGH"
            bound_text = f"{bound:.2f}" if bound is not None else "-"
            print(f"{workload:<17} {name:<38} {len(series):>3} {med:>14.6g} "
                  f"{q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound_text:>6}{flag}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
