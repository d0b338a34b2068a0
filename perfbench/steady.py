#!/usr/bin/env python3
"""Steadiness tool: repeat every workload, interleaved, and summarise.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2

Each set runs every workload of BENCHMARK.json --runs times for its
run_seconds, interleaving the workloads (ingest, serve, restart,
ingest, ...) and giving every run its own seed.
For each workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) / median,
the range, and the metric's bound from BENCHMARK.json. With two or more
sets it also prints how far each later set's median moved from the
first, in the worse direction. A spread above the bound, or a later
median worse than the first by more than the bound, is marked FAIL.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    for line in lines:
        if line.startswith("metric "):
            print("   " + line, file=sys.stderr)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return result, wall


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1, help="independent sets of runs")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    specs = {m["name"]: m for m in bench["end_to_end"]}

    # values[set][workload][metric] = [values]; every run has its own seed
    values = [{w: {} for w in workloads} for _ in range(args.sets)]
    seed = 1000
    for s in range(args.sets):
        for r in range(args.runs):
            for w in workloads:
                seed += 1
                result, wall = run_once(w, seed, seconds)
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: {wall:.1f} s wall",
                      file=sys.stderr, flush=True)
                for name, m in result["metrics"].items():
                    values[s][w].setdefault(name, []).append(m["value"])

    failed = False
    for w in workloads:
        print(f"\n== {w} ({args.runs} runs per set, {seconds} s each)")
        print(f"  {'metric':<26} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14}"
              f" {'spread':>8} {'min':>14} {'max':>14} {'bound':>6} {'vs set 1':>9}")
        for name in values[0][w]:
            spec = specs.get(name, {})
            bound = spec.get("bound")
            first = None
            for s in range(args.sets):
                vals = values[s][w][name]
                med, q1, q3, spread = summarise(vals)
                verdict = ""
                if bound is not None and spread > bound:
                    verdict, failed = "FAIL", True
                shift = ""
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if spec.get("better") == "lower" \
                        else (first - med) / first
                    shift = f"{worse:+.3f}"
                    if bound is not None and worse > bound:
                        verdict, failed = "FAIL", True
                print(f"  {name:<26} {s + 1:>3} {med:>14.4f} {q1:>14.4f} {q3:>14.4f}"
                      f" {spread:>8.3f} {min(vals):>14.4f} {max(vals):>14.4f}"
                      f" {bound if bound is not None else '-':>6} {shift:>9} {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
