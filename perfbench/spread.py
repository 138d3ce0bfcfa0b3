#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 100] [workload ...]

Runs every named workload (default: all in BENCHMARK.json) once per seed,
then prints for each end-to-end metric its median and the distance between
its first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound. A spread under a third of the bound is
marked steady. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not result or not result["correct"]:
                print(f"{workload} seed {seed}: run failed or incorrect", file=sys.stderr)
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={values[n][-1]:.4g}" for n in bounds), file=sys.stderr)
        print(f"\n{workload} ({args.runs} seeds from {args.first_seed})")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < bounds[name] / 3 else (
                "within bound" if spread <= bounds[name] else "TOO WIDE")
            print(f"  {name:16} median {med:12.5g}  spread {spread:6.3f}"
                  f"  bound {bounds[name]:.2f}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
