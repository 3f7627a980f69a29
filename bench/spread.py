#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 bench/spread.py --workload ring_algebra --runs 10

Runs the benchmark --runs times on one workload with seeds 1, 2, ..., each
for BENCHMARK.json's run_seconds, and prints for each end-to-end metric its
median, quartiles and spread: (Q3 - Q1) / median with Python's
statistics.quantiles(values, n=4), next to its bound, flagged WIDE when the
spread is not below a third of the bound.  Every value is also written to
bench/out/spread-<workload>.json.  Exits 1 if a run fails or reports a wrong
verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(1, args.runs + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            print(done.stdout + done.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])

    print(f"{'metric':14s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        flag = "ok" if spread < m["bound"] / 3 else "WIDE"
        print(f"{m['name']:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3%} {m['bound']:>6} {flag}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(json.dumps(values, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
