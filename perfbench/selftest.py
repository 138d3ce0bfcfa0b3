#!/usr/bin/env python3
"""Self-test of the answer checks: a corrupted answer must raise error_rate.

    python3 perfbench/selftest.py [--seconds 2] [workload ...]

For every workload (default: all in BENCHMARK.json) it runs the benchmark
once clean and once with --corrupt, which flips one byte of the first
answer before it is checked. The clean run must be correct with no failed
answers; the corrupted run must report at least one failed answer and
correct = false. Both use the seed perfbench/expected.json records, so the
clean run also checks the committed reference digests. Run from the
repository root; exits 1 on any violation.
"""

import argparse
import json
import subprocess
import sys


def run(workload, seconds, corrupt):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", "0"]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        workloads = args.workloads or [w["name"] for w in json.load(f)["workloads"]]

    ok = True
    for workload in workloads:
        clean = run(workload, args.seconds, corrupt=False)
        bad = run(workload, args.seconds, corrupt=True)
        clean_ok = clean is not None and clean["correct"] and clean["failed"] == 0
        bad_ok = bad is not None and not bad["correct"] and bad["failed"] >= 1
        rate = lambda r: r["failed"] / r["attempted"] if r else float("nan")
        print(f"{workload:13} clean error_rate {rate(clean):.4g} "
              f"({'ok' if clean_ok else 'FAIL'}), corrupted error_rate "
              f"{rate(bad):.4g} ({'ok' if bad_ok else 'FAIL'})")
        ok = ok and clean_ok and bad_ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
