#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
spread: the distance between the first and third quartiles of the runs, as
a share of their median, next to the metric's bound in BENCHMARK.json.

Run from the repository root (or any checkout of it):

    python3 twbench/spread.py                      # every workload, 10 seeds
    python3 twbench/spread.py --workloads served-sharded --seeds 5

A spread below a third of the bound is the target; above the bound the
benchmark cannot tell a regression from noise on that metric. With
`--trace` the runs are traced and the per-layer metrics are reported with
their spread (they have no bound).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return result["metrics"]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="report per-layer spreads")
    args = parser.parse_args()
    trace = 1 if args.trace else 0

    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(bench["command"], workload, seed, args.seconds, trace))
            print(f"  {workload} seed {seed} done", file=sys.stderr, flush=True)
        print(f"{workload} ({args.seeds} seeds, {args.seconds} s)")
        if args.trace:
            for m in bench["per_layer"]:
                values = [r[m["name"]]["value"] for r in runs]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = f"{(q3 - q1) / median:7.2%}" if median else "    n/a"
                print(f"  {m['name']:<36} median {median:>14.4f} {m['unit']:<11} spread {spread}")
            continue
        for m in bench["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            share = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, share)
            print(
                f"  {m['name']:<26} median {median:>12.4f} {m['unit']:<6} "
                f"spread {spread:7.2%}  bound {m['bound']:5.0%}  spread/bound {share:5.2f}"
            )
    if not args.trace:
        print(f"largest spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
