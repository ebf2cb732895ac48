"""Run-to-run steadiness of the benchmark across seeds.

Run from the repository root::

    python3 studybench/spread.py --workload trough_sweep --seeds 1-10 --seconds 20

Runs ``run.py`` once per seed, one after another, and prints each
metric's median and its quartile spread ((Q3 - Q1) / median) next to
the bound BENCHMARK.json gives it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from helpers import quartile_spread  # noqa: E402


def parse_seeds(text: str):
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()
        ), flush=True)
    print(f"{'metric':28s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) > 1 else float("nan")
        bound = bounds.get(name)
        print(
            f"{name:28s} {statistics.median(series):12.6g} {spread:8.4f} "
            f"{'' if bound is None else bound:>6}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
