#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --seeds 10 [--first-seed 1]
        [--workloads paper-suite,served-mix] [--trace 0]

For every workload it runs perfbench/run.py once per seed, then prints,
per metric, the median of the runs and the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median.
A time metric is steady when that share is below a third of its bound in
BENCHMARK.json. Exits non-zero when any run fails or reports an
incorrect result.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace",
               str(trace)]
    run = subprocess.run(command, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=False)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    ok = True
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, bench["run_seconds"],
                              args.trace)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED {result}")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload} ({args.seeds} seeds)")
        for name, series in values.items():
            median = statistics.median(series)
            spread = 0.0
            if len(series) >= 2 and median != 0:
                q1, _, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / abs(median)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and args.trace == 0:
                verdict = ("steady" if spread < bound / 3 else
                           "within bound" if spread <= bound else "UNSTEADY")
            print(f"  {name:32s} median {median:14.6g}  spread "
                  f"{spread:7.3f}  min {min(series):12.6g}  max "
                  f"{max(series):12.6g}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
