#!/usr/bin/env python3
"""Check the benchmark against its own contract, on graphs 8x smaller.

    python3 bench/selftest.py

Runs every workload twice with ``--shrink 3 --reps 2``, once untraced and
once traced, and fails unless

* the result lines carry exactly the metric names and units that
  ``BENCHMARK.json`` declares (end-to-end untraced, per-layer traced);
* no operation failed, and the crash workload recovered exactly once;
* every metric that is a pure function of seed and commit (``modeled_s``,
  ``wire_bytes``, every count) is identical between the two runs;
* every patch-table target was found, and the traced spans account for
  the traced repetition: all self times sum to its set-up plus fixpoint
  wall time within 1%.

Not part of the tier-1 tests.  The runs go side by side on the cores
there are, which is fine here and never done when timing; about 20 s.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import report  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def drive(workload: str, trace: int, out: Path) -> dict:
    command = [*SPEC["command"], "--workload", workload, "--seed", "42",
               "--reps", "2", "--shrink", "3", "--trace", str(trace), "--out", str(out)]
    done = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    problems: List[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    declared = {
        kind: {m["name"]: m["unit"] for m in SPEC[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    expect(declared["end_to_end"] == report.END_TO_END, "report.END_TO_END != BENCHMARK.json")
    expect(declared["per_layer"] == report.PER_LAYER, "report.PER_LAYER != BENCHMARK.json")

    started = time.perf_counter()
    names = [w["name"] for w in SPEC["workloads"]]
    jobs = [(w, trace) for w in names for trace in (0, 1)]
    with tempfile.TemporaryDirectory(dir=HERE) as tmp, ThreadPoolExecutor(
        max_workers=os.cpu_count() or 1  # names and counts are checked, not speed
    ) as pool:
        outs = {job: Path(tmp) / f"{job[0]}.{job[1]}.json" for job in jobs}
        lines = dict(zip(jobs, pool.map(lambda job: drive(*job, outs[job]), jobs)))
        for w in names:
            docs = []
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                out, line = outs[w, trace], lines[w, trace]
                got = {n: m["unit"] for n, m in line["metrics"].items()}
                expect(got == declared[kind], f"{w}: --trace {trace} names/units differ from {kind}")
                expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                       f"{w}: operations failed: {line}")
                docs.append(json.loads(out.read_text()))
            plain, traced = docs
            for name in report.EXACT:
                a, b = ({**d["end_to_end"], **d["per_layer"]}[name] for d in docs)
                expect(a == b, f"{w}: {name} differs between two runs: {a} != {b}")
            if WORKLOADS[w].faults:
                expect(plain["per_layer"]["faults.recoveries"] == 1,
                       f"{w}: expected exactly one recovery")
            expect(not traced["untraced"], f"{w}: untraced layers {traced['untraced']}")
            t = traced["traced"]
            accounted = sum(layer["self_s"] for layer in t["summary"].values())
            whole = t["setup_s"] + t["fixpoint_s"]
            expect(abs(accounted - whole) <= 0.01 * whole,
                   f"{w}: spans account for {accounted:.4f} s of {whole:.4f} s")
    elapsed = time.perf_counter() - started
    expect(elapsed < 30, f"selftest took {elapsed:.1f} s (limit 30 s)")

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {'FAILED' if problems else 'ok'} in {elapsed:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
