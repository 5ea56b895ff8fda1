#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the gsoup library and the perfbench driver from the checkout's
sources (incrementally, under $CARGO_TARGET_DIR or .bench_build), runs one
workload in its own process and prints the driver's result as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything else (build output, per-step logs, digests) goes to stderr.
The driver process starts with OMP_NUM_THREADS=1 so every thread the
library spawns (farm workers, server workers, generator threads) gets one
OpenMP lane; the driver widens only its main thread's team for set-up and
souping. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure (first time) and build the driver; stdout goes to stderr."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", str(max(1, min(4, os.cpu_count() or 1)))],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload named in BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 2

    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OMP_NUM_THREADS="1", OMP_DYNAMIC="false")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out",
           str(trace_dir / f"{args.workload}-{args.seed}-t{args.trace}.json")]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    if proc.returncode != 0:
        log(f"driver exited with {proc.returncode}")
        return 4
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("driver printed no result line")
        return 5
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"malformed result keys: {sorted(result)}")
        return 5
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
