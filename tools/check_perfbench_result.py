#!/usr/bin/env python3
"""Check one perfbench result line against BENCHMARK.json.

    python3 perfbench/run.py --workload W --seed 7 --seconds 2 --trace 1 \\
        > result.txt
    python3 tools/check_perfbench_result.py result.txt

Reads the last non-empty line of the file and fails unless it is strict
JSON (no NaN/Infinity tokens) with the keys correct, attempted, failed and
metrics; the run is correct; the metric names are exactly BENCHMARK.json's
per_layer set (the traced set); and every value is a finite number below
1e300, the magnitude a consumer reads as non-finite.
"""

import argparse
import json
import math
import sys
from pathlib import Path

SENTINEL = 1e300


def reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def check(line, expected):
    errors = []
    try:
        result = json.loads(line, parse_constant=reject_constant)
    except ValueError as e:
        return [f"not strict JSON: {e}"]
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        errors.append(f"correct is {result['correct']!r}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            errors.append(f"{key} is not an integer: {result[key]!r}")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return errors + ["metrics is not an object"]
    missing = sorted(expected - set(metrics))
    extra = sorted(set(metrics) - expected)
    if missing:
        errors.append(f"missing metrics: {missing}")
    if extra:
        errors.append(f"unexpected metrics: {extra}")
    for name, entry in sorted(metrics.items()):
        value = entry.get("value") if isinstance(entry, dict) else None
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value) or abs(value) >= SENTINEL):
            errors.append(f"{name}: value {value!r} is not finite")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("result", help="file holding run.py's stdout")
    args = ap.parse_args()

    benchmark = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(benchmark.read_text())
    expected = {m["name"] for m in spec["per_layer"]}
    text = Path(args.result).read_text()
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        print("check_perfbench_result: no result line", file=sys.stderr)
        return 1
    errors = check(lines[-1], expected)
    for e in errors:
        print(f"check_perfbench_result: {e}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_perfbench_result: ok ({len(expected)} per_layer metrics, "
          "all finite)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
