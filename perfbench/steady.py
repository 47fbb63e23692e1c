#!/usr/bin/env python3
"""Steadiness mode: repeat one workload and show how much its metrics move.

    python3 perfbench/steady.py --workload NAME [--first-seed 1]

Runs `run.py` ten times, on seeds FIRST-SEED to FIRST-SEED + 9, each for
BENCHMARK.json's `run_seconds`.  Then, for every end-to-end metric and for
the raw seconds and kernel times beside them, it prints the median, the
first and third quartiles (`statistics.quantiles(values, n=4)`) and the
spread (Q3 - Q1) / median.  The bounds in BENCHMARK.json are set from this
output: each spread must stay below a third of its bound.  Last, it makes
one traced run on FIRST-SEED and prints every per-layer metric and the
tracing overhead on wall_ref.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = RUN.parent.parent / "BENCHMARK.json"
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    raw = json.loads(lines[-2][len("raw "):])
    return json.loads(lines[-1]), raw


def spread_row(name: str, values) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (f"{name:<16} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
            f"  spread {(q3 - q1) / med:7.2%}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]

    results = []
    for seed in range(args.first_seed, args.first_seed + RUNS):
        result, raw = run_once(args.workload, seed, seconds, 0)
        results.append((result, raw))
        values = " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values} | ref_ms_p50={raw['ref_ms_p50']:.1f}"
              f" wall_s={raw['wall_s']:.2f}", flush=True)

    print(f"\n{args.workload}, {RUNS} runs")
    for name in results[0][0]["metrics"]:
        print(spread_row(name, [r["metrics"][name]["value"] for r, _ in results]))
    for name in results[0][1]:
        print(spread_row(f"raw {name}", [raw[name] for _, raw in results]))
    shares = {r["failed"] / r["attempted"] for r, _ in results}
    print(f"failed share per run: {sorted(shares)}")

    traced, _ = run_once(args.workload, args.first_seed, seconds, 1)
    wall = statistics.median(r["metrics"]["wall_ref"]["value"] for r, _ in results)
    traced_wall = traced["metrics"]["traced.wall_ref"]["value"]
    print(f"\ntraced run (seed {args.first_seed}): wall_ref {traced_wall:.2f},"
          f" untraced median {wall:.2f}, overhead {traced_wall / wall - 1:.1%}")
    for name, metric in traced["metrics"].items():
        print(f"  {name:<22} {metric['value']:14.2f} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
