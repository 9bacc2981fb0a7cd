#!/usr/bin/env python3
"""Collect sets of benchmark runs and compare two of them.

    python3 bench/compare.py --collect A.json            # 10 seeds x 4 workloads, this checkout
    python3 bench/compare.py A.json B.json               # B against its base A
    python3 bench/compare.py --pairs 10 ../parent .      # alternate two checkouts, then compare

A set holds, per workload, one run per seed, each run being the result
line ``driver.py`` prints.  The comparison prints one row per workload and
end-to-end metric: both medians with their quartiles, the ratio B/A, and a
verdict against the bound ``BENCHMARK.json`` fixes for the metric (all
metrics are lower-is-better):

``worse``       B's median exceeds A's by more than the bound;
``unresolved``  the quartile spread of either side is wider than the bound;
``better``      B's median is below A's by more than A's quartile spread, and
                B won nine in ten of at least ten pairs (runs of the same
                seed, ties counting for neither);
``same``        otherwise.

The exit code is 1 if any row is ``worse`` or any operation failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from report import quartiles, spread

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

#: Fewer pairs than this cannot show a gain, whatever they say.
MIN_PAIRS = 10

Run = Dict[str, object]  # the driver's result line, plus "seed"
RunSet = Dict[str, List[Run]]  # workload -> runs


def run_driver(root: Path, workload: str, seed: int) -> Run:
    """One untraced driver invocation in the checkout at ``root``; its result line."""
    command = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {root} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    run = json.loads(done.stdout.splitlines()[-1])
    run["seed"] = seed
    return run


def collect(root: Path, seeds: Sequence[int]) -> RunSet:
    runs: RunSet = {w: [] for w in WORKLOADS}
    for seed in seeds:
        for workload in WORKLOADS:
            runs[workload].append(run_driver(root, workload, seed))
            print(f"collected {workload} seed {seed}", file=sys.stderr)
    return runs


def collect_pairs(root_a: Path, root_b: Path, pairs: int, first_seed: int):
    """Run A and B on the same seed back to back, alternating who goes first."""
    a: RunSet = {w: [] for w in WORKLOADS}
    b: RunSet = {w: [] for w in WORKLOADS}
    for i in range(pairs):
        for workload in WORKLOADS:
            sides = [(root_a, a), (root_b, b)]
            for root, runs in sides if i % 2 == 0 else reversed(sides):
                runs[workload].append(run_driver(root, workload, first_seed + i))
            print(f"pair {i + 1}/{pairs} of {workload} done", file=sys.stderr)
    return a, b


def values(runs: List[Run], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs]


def verdict(a: List[float], b: List[float], bound: float, paired: bool) -> str:
    (a1, am, a3), (_, bm, _) = quartiles(a), quartiles(b)
    if bm > am * (1 + bound):
        return "worse"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if paired and len(a) >= MIN_PAIRS and am - bm > a3 - a1:
        wins = sum(y < x for x, y in zip(a, b))
        losses = sum(y > x for x, y in zip(a, b))
        if wins and wins >= 0.9 * (wins + losses):
            return "better"
    return "same"


def compare(a: RunSet, b: RunSet) -> int:
    """Print the table; return how many rows are ``worse``."""
    worse = 0
    print(f"{'workload':<18}{'metric':<13}{'A median [q1 .. q3]':>38}"
          f"{'B median [q1 .. q3]':>38}{'B/A':>8}  verdict")
    for workload in WORKLOADS:
        if not a.get(workload) or not b.get(workload):
            print(f"{workload:<18}missing from one side")
            continue
        failed = sum(r["failed"] for r in a[workload] + b[workload])
        for metric, bound in BOUNDS.items():
            va, vb = values(a[workload], metric), values(b[workload], metric)
            same_seeds = [r["seed"] for r in a[workload]] == [r["seed"] for r in b[workload]]
            v = verdict(va, vb, bound, same_seeds)
            worse += v == "worse"
            cells = []
            for vals in (va, vb):
                q1, q2, q3 = quartiles(vals)
                cells.append(f"{q2:.6g} [{q1:.6g} .. {q3:.6g}]")
            ratio = quartiles(vb)[1] / quartiles(va)[1]
            print(f"{workload:<18}{metric:<13}{cells[0]:>38}{cells[1]:>38}"
                  f"{ratio:>8.3f}  {v} (bound {bound:.0%}, n={len(va)}/{len(vb)})")
        if failed:
            print(f"{workload:<18}{failed} operations FAILED across both sides")
            worse += 1
    return worse


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="*", type=Path,
                        help="A.json B.json, or with --pairs two checkout directories")
    parser.add_argument("--collect", type=Path, metavar="OUT.json",
                        help="run every workload on --runs seeds and write a set")
    parser.add_argument("--root", type=Path, default=HERE.parent,
                        help="checkout to collect from (default: this one)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, metavar="N",
                        help="alternate the two checkouts N times per workload")
    args = parser.parse_args(argv)

    if args.collect:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        args.collect.write_text(json.dumps(collect(args.root, seeds)))
        return 0
    if len(args.sets) != 2:
        parser.error("give two sets to compare (or --collect OUT.json)")
    if args.pairs:
        a, b = collect_pairs(args.sets[0], args.sets[1], args.pairs, args.first_seed)
    else:
        a, b = (json.loads(p.read_text()) for p in args.sets)
    return 1 if compare(a, b) else 0


if __name__ == "__main__":
    sys.exit(main())
