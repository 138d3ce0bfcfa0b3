#!/usr/bin/env python3
"""Runs one benchmark workload against the engine built from this checkout.

    python3 perfbench/run.py --workload cold_sweep|cli_snapshot \
        --seed N --seconds S --trace 0|1 [--held-out] [--corrupt]

Run from the repository root. The first run configures and builds
perfbench/ (the engine library, tytra-cc, tytra-dsed and the driver) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
rebuild what changed. The last stdout line is the JSON result.

--held-out also runs a second seed that was not used while tuning and
prints both results; the held-out one is the last line.
--corrupt flips one answer before it is checked (see selftest.py).
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

HELD_OUT_OFFSET = 1000003
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, out_dir):
    build_dir = os.path.join(out_dir, "perfbench")
    log_path = os.path.join(out_dir, "perfbench-build.log")
    os.makedirs(out_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed (log: {log_path})")
    return build_dir


def run_driver(build_dir, root, out_dir, args, seed):
    work = os.path.join(out_dir, f"run-{os.getpid()}-{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(build_dir, "tytra"),
           "--repo", root, "--work", work]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        traces = os.path.join(out_dir, "traces")
        for path in glob.glob(os.path.join(work, "trace-*.json")):
            os.makedirs(traces, exist_ok=True)
            shutil.move(path, os.path.join(traces, os.path.basename(path)))
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"driver exited with {proc.returncode}")
    return proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_sweep", "cli_snapshot"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--held-out", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", "include", "tools"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} is missing here")
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build(root, out_dir)

    first = run_driver(build_dir, root, out_dir, args, args.seed)
    sys.stdout.write(first)
    if args.held_out:
        held = args.seed + HELD_OUT_OFFSET
        print(f"--- held-out seed {held} (tuning seed {args.seed} above) ---")
        sys.stdout.write(run_driver(build_dir, root, out_dir, args, held))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
