#!/usr/bin/env python3
"""Self-test of the benchmark's determinism.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload: two runs at one seed must log identical digests
(generated graph, ingredient and soup accuracies, warm mix peaks, GIS
evaluation count, PLS subgraph fraction, the query stream with its served
labels), and a run at the next seed must change the query stream while
keeping the node counts and feature/class dims. Every run must be correct
with no failed operation. Exits 1 on any violation.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 2


def run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(SECONDS), "--trace",
         "0"], cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    digests = {}
    for line in proc.stderr.splitlines():
        if line.startswith("digest "):
            _, name, value = line.split(" ", 2)
            digests[name] = value
    return result, digests


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    problems = []
    for w in args.workload or [x["name"] for x in bench["workloads"]]:
        a_res, a = run(w, args.seed)
        b_res, b = run(w, args.seed)
        c_res, c = run(w, args.seed + 1)
        for tag, res in (("a", a_res), ("b", b_res), ("c", c_res)):
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{w}: run {tag} incorrect or failed ops")
        if a != b:
            diff = sorted(k for k in a.keys() | b.keys()
                          if a.get(k) != b.get(k))
            problems.append(f"{w}: same-seed digests differ: {diff}")
        for key in ("soup.shape", "serve.shape"):
            if a.get(key) is None or a.get(key) != c.get(key):
                problems.append(f"{w}: another seed changed {key}")
        if a.get("serve.stream") == c.get("serve.stream"):
            problems.append(f"{w}: another seed kept the query stream")
        print(f"{w}: {len(a)} digests, same-seed identical: {a == b}",
              flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
