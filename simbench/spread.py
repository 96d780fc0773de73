#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 simbench/spread.py --workload nvm --seeds 1 2 3 4 5 [--trace 0]

Runs the command in BENCHMARK.json once per seed (run from the
repository root), then prints for every metric the median of the values
and the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of that median, beside
the metric's bound and a third of it. Exits 1 if any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.stderr.write(out.stderr)
            print(f"seed {seed}: not correct: {lines[-1]}")
            sys.exit(1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            if k in bounds or args.trace != "0"), flush=True)

    if len(args.seeds) < 2:
        return
    print(f"{'metric':40} {'median':>14} {'iqr/median':>11} {'bound':>6} {'bound/3':>8}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med if med else 0.0
        b = bounds.get(name)
        bs = f"{b:6.2f} {b / 3:8.3f}" if b is not None else ""
        print(f"{name:40} {med:14.6g} {spread:11.4f} {bs}")


if __name__ == "__main__":
    main()
