#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 repobench/spread.py --workload W --seeds 1-10 [--seconds S]

Runs the benchmark once per seed and prints, per metric, the ten values'
median and the distance between their first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--log", help="directory for each run's full output")
    args = ap.parse_args()
    if args.seconds is None:
        with open("BENCHMARK.json") as f:
            args.seconds = json.load(f)["run_seconds"]
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, "repobench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True).stdout
        if args.log:
            with open(f"{args.log}/{args.workload}-{seed}.txt", "w") as f:
                f.write(out)
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run: {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for name, xs in values.items():
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        print(f"{args.workload} {name}: median {q2:.6g}, spread {(q3 - q1) / q2:.4f} "
              f"over {len(xs)} runs")


if __name__ == "__main__":
    main()
