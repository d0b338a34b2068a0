#!/usr/bin/env python3
"""Compare two revisions on one perfbench workload in interleaved pairs.

Run from inside the repository:

    python3 scripts/pairs.py BASE CHANGE --workload ingest --seeds 501-510

BASE and CHANGE are git revisions (a commit, a branch, HEAD). Each is
checked out into its own `git worktree` in a temporary directory (under
$TMPDIR if set), where `perfbench/run.py` builds and runs it; both are
removed at the end. Every seed is one pair: both
sides run the workload with that seed, one after the other, and the
side that runs first alternates from pair to pair, so a drift in the
machine's speed falls on both sides alike.

For each end-to-end metric it prints each side's median and quartiles,
the change of the medians in percent, how many pairs the change won,
and whether the medians lie further apart than the base's quartile
range. A metric is `worse` when the change's median is worse than the
base's by more than the metric's bound in BENCHMARK.json (as a fraction
of the base's median), and `unresolved` when either side's quartile
range is wider than the bound (as a fraction of that side's median).

With --json FILE it also writes every run's metrics there.

Exit status: 1 if a run fails (non-zero exit, a failed output check or
a failed operation), or if there are at least ten pairs and some metric
is `worse`; with fewer pairs it says that it cannot gate and exits 0.
2 on a usage or git error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

MIN_PAIRS_TO_GATE = 10


def parse_seeds(text):
    """'1,2,5-8' -> [1, 2, 5, 6, 7, 8]"""
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds")
    return seeds


def git(repo, *args):
    return subprocess.run(["git", "-C", repo, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(tree, workload, seed, seconds):
    """One perfbench run in [tree]; returns its metrics {name: value}."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("metric "):
            print("    " + line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise RuntimeError(f"{tree}: {workload} seed {seed} failed (exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def better(spec, a, b):
    """Is [a] better than [b] for this metric?"""
    return a < b if spec.get("better") == "lower" else a > b


def summarise(specs, base_runs, change_runs):
    """Print the table; return the number of `worse` metrics."""
    pairs = len(base_runs)
    worse_count = 0
    print(f"{'metric':<24} {'base median [q1, q3]':<34} {'change median [q1, q3]':<34}"
          f" {'change':>8} {'wins':>6} {'gap>IQR':>7}  verdict")
    for name, spec in specs.items():
        if name not in base_runs[0] or name not in change_runs[0]:
            continue
        base = [r[name] for r in base_runs]
        change = [r[name] for r in change_runs]
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        bound = spec.get("bound")
        wins = sum(1 for b, c in zip(base, change) if better(spec, c, b))
        pct = (cmed - bmed) / bmed * 100 if bmed else float("nan")
        gap = "yes" if abs(cmed - bmed) > (bq3 - bq1) else "no"
        worse_by = (cmed - bmed) if spec.get("better") == "lower" else (bmed - cmed)
        worse = bound is not None and bmed and worse_by / bmed > bound
        unresolved = bound is not None and ((bmed and (bq3 - bq1) / bmed > bound)
                                            or (cmed and (cq3 - cq1) / cmed > bound))
        verdict = ", ".join(v for v, on in (("worse", worse), ("unresolved", unresolved)) if on)
        verdict = verdict or "within bound"
        worse_count += bool(worse)
        print(f"{name:<24} {f'{bmed:.6g} [{bq1:.6g}, {bq3:.6g}]':<34}"
              f" {f'{cmed:.6g} [{cq1:.6g}, {cq3:.6g}]':<34}"
              f" {pct:>+7.1f}% {f'{wins}/{pairs}':>6} {gap:>7}  {verdict}")
    return worse_count


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="the revision to compare against")
    ap.add_argument("change", help="the revision under test")
    ap.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="one pair per seed, e.g. 501-510 or 1,2,3")
    ap.add_argument("--seconds", type=int,
                    help="run length (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--json", help="also write every run's metrics to this file")
    args = ap.parse_args()

    try:
        repo = git(".", "rev-parse", "--show-toplevel")
        revs = [git(repo, "rev-parse", "--verify", rev + "^{commit}")
                for rev in (args.base, args.change)]
    except subprocess.CalledProcessError as e:
        print(f"pairs: {e.stderr.strip() or e}", file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix="pairs-")
    trees = [os.path.join(workdir, side) for side in ("base", "change")]
    added = []
    try:
        for tree, rev in zip(trees, revs):
            git(repo, "worktree", "add", "--detach", tree, rev)
            added.append(tree)
        with open(os.path.join(trees[1], "BENCHMARK.json")) as f:
            bench = json.load(f)
        if args.workload not in [w["name"] for w in bench["workloads"]]:
            print(f"pairs: no workload {args.workload!r} in BENCHMARK.json", file=sys.stderr)
            return 2
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        specs = {m["name"]: m for m in bench["end_to_end"]}
        print(f"pairs: {args.workload}, {len(args.seeds)} pairs of {seconds} s runs;"
              f" base {args.base} ({revs[0][:12]}), change {args.change} ({revs[1][:12]})")

        runs = ([], [])
        for i, seed in enumerate(args.seeds):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            results = [None, None]
            for side in order:
                label = ("base", "change")[side]
                print(f"pair {i + 1} seed {seed}: {label}", file=sys.stderr, flush=True)
                results[side] = run_once(trees[side], args.workload, seed, seconds)
            runs[0].append(results[0])
            runs[1].append(results[1])
    except RuntimeError as e:
        print(f"pairs: {e}", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as e:
        print(f"pairs: {e.stderr.strip() or e}", file=sys.stderr)
        return 2
    finally:
        for tree in added:
            subprocess.run(["git", "-C", repo, "worktree", "remove", "--force", tree],
                           capture_output=True)
        shutil.rmtree(workdir, ignore_errors=True)

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "seeds": args.seeds,
                       "base": runs[0], "change": runs[1]}, f, indent=1)
    worse = summarise(specs, runs[0], runs[1])
    pairs = len(args.seeds)
    if pairs < MIN_PAIRS_TO_GATE:
        print(f"pairs: {pairs} pairs, fewer than {MIN_PAIRS_TO_GATE}: cannot gate")
        return 0
    if worse:
        print(f"pairs: {worse} metric(s) worse than the base by more than the bound")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
