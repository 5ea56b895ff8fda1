#!/usr/bin/env python3
"""Steadiness study: run workloads repeatedly and report each end-to-end
metric's median, IQR/median (quartiles as statistics.quantiles(n=4) gives
them) and min-max, next to the bound in BENCHMARK.json.

    python3 perfbench/study.py --workload soup-arxiv-gat --runs 5
    python3 perfbench/study.py --runs 10 --vary-seed --json out.json

By default every run uses the same seed (--seed); --vary-seed gives run i
the seed (--seed + i), as the acceptance check does. Runs go one at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, log_path=None):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "0"], cwd=ROOT, capture_output=True, text=True, check=True)
    if log_path:
        Path(log_path).write_text(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--vary-seed", action="store_true")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json", help="also write raw results here")
    ap.add_argument("--logs", help="directory for each run's stderr log")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw = {}
    for w in workloads:
        results = []
        for i in range(args.runs):
            seed = args.seed + i if args.vary_seed else args.seed
            log = (Path(args.logs) / f"{w}-{i}-s{seed}.log"
                   if args.logs else None)
            r = run_once(w, seed, args.seconds, log)
            ok = r["correct"] and r["failed"] == 0
            print(f"{w} run {i} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}",
                  file=sys.stderr, flush=True)
            if not ok:
                print("  INCORRECT RUN", file=sys.stderr)
            results.append(r)
        raw[w] = results
        print(f"\n### {w} ({args.runs} runs, "
              f"{'seeds vary' if args.vary_seed else f'seed {args.seed}'})\n")
        print("| metric | median | IQR/median | bound | min | max |")
        print("|---|---|---|---|---|---|")
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in results]
            med, rel = spread(vals)
            print(f"| {name} | {med:.6g} | {rel:.3f} | {bounds[name]} | "
                  f"{min(vals):.6g} | {max(vals):.6g} |", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(raw, indent=1))


if __name__ == "__main__":
    main()
