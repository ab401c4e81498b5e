#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve_mixed --seeds 1-10 \
        [--seconds 30] [--trace 0]

For each metric: the median of the per-run values and the distance
between their first and third quartiles (statistics.quantiles, n=4) as a
share of that median, next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}

    values = {}
    for seed in range(first, last + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        context = json.loads(lines[-2])["context"]
        figures = dict(context.get("figures", {}), calibration_s=context["calibration_s"])
        for name, v in figures.items():
            values.setdefault("figure:" + name, []).append(v)
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()) + " "
            + " ".join(f"{k}={v:.6g}" for k, v in figures.items()), flush=True)

    print(f"{'metric':<28} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<28} {med:>14.6g} {spread:>11.4f} {bound if bound is not None else '':>6}")


if __name__ == "__main__":
    main()
