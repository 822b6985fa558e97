"""Steadiness check: run workloads repeatedly and summarise each metric.

    python3 perfbench/steady.py --runs 10 --seconds 15
    python3 perfbench/steady.py --runs 5 --workloads field-scan --first-seed 101

Each run is a separate `run.py` process with its own seed (first-seed,
first-seed + 1, ...).  For every end-to-end metric the command prints the
median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, next to the bound BENCHMARK.json allows, and
the share of failed operations of each run.
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


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output\n{done.stderr}", file=sys.stderr)
                return 1
            shares.add(f"{result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.runs} runs, failed/attempted {sorted(shares)}")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {bounds[name]:6.0%}")
        sys.stdout.flush()
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
