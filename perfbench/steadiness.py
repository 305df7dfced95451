#!/usr/bin/env python3
"""Runs one benchmark workload over several seeds and prints, per metric,
the median and the quartile spread (IQR / median), the way the benchmark
is accepted: quartiles from statistics.quantiles(values, n=4).

    python3 perfbench/steadiness.py --workload replay_deep --seeds 1-10 [--trace 0]

Run from the repository root. Seconds per run come from BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
        if run.returncode != 0 or not last:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        result = json.loads(last)
        if not result["correct"]:
            sys.exit(f"seed {seed}: output checks failed\n{run.stderr[-2000:]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        steal = [l for l in run.stderr.splitlines() if l.startswith("host: ")]
        steal = steal[-1].split()[1] if steal else "?"
        print(f"seed {seed} (steal {steal}): " + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {len(seeds(args.seeds))} seeds")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else f"  bound {bound}: {'ok' if spread <= bound else 'EXCEEDED'}"
        print(f"  {name:<24} median {med:<14.6g} spread {spread:7.2%}{verdict}")


if __name__ == "__main__":
    main()
