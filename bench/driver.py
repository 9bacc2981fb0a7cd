#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/driver.py --workload sssp-skew-p64 --seed 42 --seconds 15 --trace 0

This file is the benchmark's single adapter to ``repro``: building the
program and options, loading, running, updating and reading the result
all happen here, through ``repro.Engine``, ``repro.api.Session`` and
``FixpointResult`` only, so an API change is re-pointed in one place.
The engine is handed generated inputs and options, never a workload name
or the seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 1 if any operation failed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One thread and this checkout's sources, fixed before numpy or repro load.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    raise ImportError(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures "
                      "the checkout it sits in, not an installed copy")
sys.path.insert(0, str(ROOT / "src"))

import argparse
import gc
import json
import resource
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

import oracle
import report
from trace import ENGINE_ROOT, SETUP_ROOT, SpanRecorder  # bench/trace.py, not the stdlib's
from workloads import BATCH_FRAC, DATASET_SEED, HOLDOUT, WORKLOADS, Workload

from repro import Engine
from repro.api import (
    DiagnosticsOptions, FaultOptions, Options, RecoveryOptions, Session,
)
from repro.graphs.datasets import load_dataset
from repro.graphs.types import Graph
from repro.obs import Tracer
from repro.queries.cc import cc_program
from repro.queries.sssp import sssp_program

#: Sub-buckets of the ``edge`` relation: the shipped default of the CLI.
EDGE_SUBBUCKETS = 8
#: Repetitions a run makes however long they take.
MIN_REPS = 3
#: Set-up is short, so it is sampled at least this often per run.
SETUP_SAMPLES = 7
#: The warm-up runs the same workload this many halvings smaller.
WARMUP_SHRINK = 2

TupleT = Tuple[int, ...]


# ------------------------------------------------------------------ inputs


@dataclass
class Inputs:
    """What one repetition feeds the engine, and the graph it adds up to."""

    facts: Dict[str, object]  # relation name -> rows for the first load / query
    batches: List[np.ndarray]  # edge rows of each later ``Session.update``
    edges: np.ndarray  # every edge the engine ends up holding
    n_nodes: int
    sources: List[int]


def make_inputs(workload: Workload, seed: int, shrink: int) -> Inputs:
    """Generate a workload's inputs from the seed.

    The graph is the named stand-in at ``DATASET_SEED``; the seed leaves
    a random ``HOLDOUT`` of its edges out.  An update workload splits the
    edges into base and batches by a permutation that is fixed too, so
    seeds differ in which edges exist, not in which arrive late.
    """
    graph = load_dataset(
        workload.dataset,
        seed=DATASET_SEED,
        scale_shift=workload.scale_shift + shrink,
        weighted=workload.query == "sssp",
    )
    if workload.query == "cc":
        # One row per undirected edge, so that a left-out edge is gone in
        # both directions; symmetrized again below.
        edges = np.unique(np.sort(graph.edges[:, :2], axis=1), axis=0)
    else:
        edges = graph.edges
    n = edges.shape[0]
    order = np.random.default_rng(DATASET_SEED).permutation(n)
    kept = np.ones(n, dtype=bool)
    kept[np.random.default_rng(seed).choice(n, size=round(n * HOLDOUT), replace=False)] = False

    n_late = workload.update_batches * round(n * BATCH_FRAC)
    parts = [order[: n - n_late]] + (
        np.array_split(order[n - n_late :], workload.update_batches)
        if workload.update_batches
        else []
    )
    parts = [edges[np.sort(p[kept[p]])] for p in parts]
    if workload.query == "cc":
        parts = [Graph(p, graph.n_nodes).symmetrized().edges for p in parts]
    sources = list(range(workload.sources))
    facts: Dict[str, object] = {"edge": parts[0]}
    if workload.query == "sssp":
        facts["start"] = [(s,) for s in sources]
    return Inputs(facts, parts[1:], np.vstack(parts), graph.n_nodes, sources)


# ----------------------------------------------------------------- adapter


def build_program(workload: Workload):
    if workload.query == "sssp":
        return sssp_program(EDGE_SUBBUCKETS), "spath"
    return cc_program(EDGE_SUBBUCKETS), "cc"


def build_options(workload: Workload, *, observe: bool = False) -> Options:
    """The shipped default plus what the workload states; ``observe`` turns
    on the repo's own tracing and diagnostics to measure their overhead."""
    return Options(
        n_ranks=workload.ranks,
        subbuckets={"edge": EDGE_SUBBUCKETS},
        recovery=RecoveryOptions(checkpoint_every=workload.checkpoint_every),
        faults=FaultOptions(spec=workload.faults),
        diagnostics=(
            DiagnosticsOptions(enabled=True, tracer=Tracer())
            if observe
            else DiagnosticsOptions()
        ),
    )


@dataclass
class Sample:
    """One repetition: its timings, what its result read, its failed operations.

    The ``FixpointResult`` itself is dropped with the engine, so that peak
    memory does not grow with the number of repetitions.
    """

    setup_s: float
    fixpoint_s: float = 0.0
    update_s: List[float] = field(default_factory=list)
    numbers: Dict[str, float] = field(default_factory=dict)
    answers: Optional[Set[TupleT]] = None
    errors: List[str] = field(default_factory=list)


def operations(workload: Workload) -> int:
    """Operations in one repetition: the run, or each update."""
    return workload.update_batches or 1


def run_once(
    workload: Workload,
    inputs: Inputs,
    *,
    spans: Optional[SpanRecorder] = None,
    observe: bool = False,
    setup_only: bool = False,
) -> Sample:
    """Set up a fresh engine, then run it (or update it batch by batch).

    Set-up is ``Engine(...)`` plus every ``load``; on an update workload
    it is ``Session(...)`` plus the base ``query``, so work moved from the
    updates into the base converge shows up there.
    """
    span = spans.span if spans is not None else (lambda name: nullcontext())
    program, answer = build_program(workload)
    options = build_options(workload, observe=observe)
    clock = time.perf_counter
    sample = Sample(setup_s=0.0)
    result = None
    try:
        t0 = clock()
        with span(SETUP_ROOT):
            if workload.update_batches:
                session = Session(options)
                result = session.query(program, inputs.facts)
            else:
                engine = Engine(program, options.to_engine_config())
                for name, rows in inputs.facts.items():
                    engine.load(name, rows)
        sample.setup_s = clock() - t0
    except Exception:
        sample.errors = [f"set-up: {traceback.format_exc()}"] * operations(workload)
        return sample
    if setup_only:
        return sample

    if workload.update_batches:
        for i, batch in enumerate(inputs.batches):
            t0 = clock()
            try:
                with span(ENGINE_ROOT):
                    result = session.update({"edge": batch})
            except Exception:
                sample.errors.append(f"update {i}: {traceback.format_exc()}")
            sample.update_s.append(clock() - t0)
        sample.fixpoint_s = sum(sample.update_s)
    else:
        t0 = clock()
        try:
            with span(ENGINE_ROOT):
                result = engine.run()
        except Exception:
            sample.errors.append(f"run: {traceback.format_exc()}")
        sample.fixpoint_s = clock() - t0
    if not sample.errors:
        sample.numbers = read_result(result)
        sample.answers = result.query(answer)
    return sample


def read_result(result) -> Dict[str, float]:
    """Every number the benchmark takes from a ``FixpointResult``."""
    doc = result.to_dict()
    counters, wire, recovery = doc["counters"], doc["wire"], doc["recovery"]
    wall, modeled = result.timer.totals(), result.ledger.phase_seconds
    received = counters.get("admitted", 0) + counters.get("suppressed", 0)
    out: Dict[str, float] = {
        "modeled_s": result.modeled_seconds(),
        "wire_bytes": doc["comm"]["bytes"],
        "runtime.iterations": doc["iterations"],
        "comm.messages": doc["comm"]["messages"],
        "comm.precombine_bytes": wire["precombine_bytes"],
        "comm.on_wire_bytes": wire["on_wire_bytes"],
        "comm.collective_direct": wire["collective_direct"],
        "comm.collective_bruck": wire["collective_bruck"],
        "faults.checkpoints": recovery["checkpoints"],
        "faults.checkpoint_bytes": recovery["checkpoint_bytes"],
        "faults.recoveries": recovery["recoveries"],
        "faults.rolled_back_iterations": recovery["rolled_back_iterations"],
        "incremental.updates": doc["incremental"]["updates"],
        "incremental.seed_tuples": doc["incremental"]["update_seed_tuples"],
        "kernels.absorb.admit_ratio": (
            counters.get("admitted", 0) / received if received else 0.0
        ),
        "comm.wire.fold_ratio": (
            wire["on_wire_bytes"] / wire["precombine_bytes"]
            if wire["precombine_bytes"]
            else 0.0
        ),
    }
    for name in ("emitted", "admitted", "suppressed", "intra_bucket_tuples", "alltoall_tuples"):
        out[f"runtime.{name}"] = counters.get(name, 0)
    for phase in report.PHASES:
        out[f"phase.{phase}.wall_s"] = wall.get(phase, 0.0)
        out[f"phase.{phase}.modeled_s"] = modeled.get(phase, 0.0)
    return out


# ------------------------------------------------------------- measurement


def attempt(
    workload: Workload,
    inputs: Inputs,
    expected: Set[TupleT],
    tally: oracle.Tally,
    **how,
) -> Sample:
    """One repetition, checked against the oracle and counted in ``tally``."""
    gc.collect()
    sample = run_once(workload, inputs, **how)
    if not sample.errors:
        wrong = oracle.check_answers(sample.answers, expected)
        if wrong:
            # Which operation went wrong is not known; none is trusted.
            sample.errors = [wrong] * operations(workload)
    tally.record(operations(workload), sample.errors)
    sample.answers = None
    return sample


def measure(
    workload: Workload,
    inputs: Inputs,
    expected: Set[TupleT],
    tally: oracle.Tally,
    *,
    seconds: float,
    reps: Optional[int],
) -> List[Sample]:
    """Untraced repetitions, each on a fresh engine: ``reps`` of them, or
    as many as fit in ``seconds`` and at least ``MIN_REPS``."""
    samples: List[Sample] = []
    deadline = time.perf_counter() + seconds
    while len(samples) < (reps or MIN_REPS) or (
        reps is None and time.perf_counter() < deadline
    ):
        samples.append(attempt(workload, inputs, expected, tally))
    return samples


def run_workload(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    reps: Optional[int],
    trace: bool,
    shrink: int,
) -> Dict[str, object]:
    """Everything one invocation measures, as the ``--out`` document."""
    inputs = make_inputs(workload, seed, shrink)
    expected = oracle.expected_answers(
        workload.query, inputs.edges, inputs.n_nodes, inputs.sources
    )
    # Untimed: imports, lazy set-up and allocator growth happen here.
    run_once(workload, make_inputs(workload, seed, shrink + WARMUP_SHRINK))

    tally = oracle.Tally()
    # A traced run spends half its time on the untraced baseline it is
    # compared with, the rest on the traced and the observed repetition.
    samples = measure(
        workload, inputs, expected, tally,
        seconds=seconds / 2 if trace else seconds,
        reps=reps,
    )
    good = [s for s in samples if not s.errors] or samples
    setups = [s.setup_s for s in good]
    while len(setups) < SETUP_SAMPLES and not tally.failed:
        gc.collect()
        setups.append(run_once(workload, inputs, setup_only=True).setup_s)

    last = good[-1].numbers
    per_rep = [s.numbers for s in good if s.numbers]
    update_s = [u for s in good for u in s.update_s]
    fixpoints = [s.fixpoint_s for s in good]
    end_to_end = {
        "fixpoint_s": report.quartiles(fixpoints)[1],
        "setup_s": report.quartiles(setups)[1],
        "modeled_s": last.get("modeled_s", 0.0),
        "wire_bytes": last.get("wire_bytes", 0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    per_layer = {name: 0.0 for name in report.PER_LAYER}
    per_layer.update({k: v for k, v in last.items() if k in per_layer})
    for phase in report.PHASES:  # wall: median over the repetitions
        name = f"phase.{phase}.wall_s"
        per_layer[name] = report.quartiles([r[name] for r in per_rep] or [0.0])[1]
    if update_s:
        _, per_layer["incremental.update_p50_s"], per_layer["incremental.update_p75_s"] = (
            report.quartiles(update_s)
        )

    doc: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "repetitions": len(samples),
        "end_to_end": end_to_end,
        "samples": {"fixpoint_s": fixpoints, "setup_s": setups, "update_s": update_s},
        "per_layer": per_layer,
        "traced": None,
        "untraced": {},
    }
    if trace:
        _trace(workload, inputs, expected, tally, doc)
    doc.update(attempted=tally.attempted, failed=tally.failed,
               error_rate=tally.error_rate, failures=tally.reasons)
    return doc


def _trace(workload: Workload, inputs: Inputs, expected, tally, doc) -> None:
    """One repetition under the benchmark's wrappers and, where the workload
    asks, one under the repo's own tracing and diagnostics; each is reported
    as a ratio to the untraced median."""
    per_layer: Dict[str, float] = doc["per_layer"]
    untraced_fixpoint_s = doc["end_to_end"]["fixpoint_s"]
    recorder = SpanRecorder()
    recorder.install()
    try:
        traced = attempt(workload, inputs, expected, tally, spans=recorder)
    finally:
        recorder.uninstall()
    layers = recorder.summary()
    for layer, numbers in layers.items():
        for key in ("calls", "self_s"):
            if f"{layer}.{key}" in per_layer:
                per_layer[f"{layer}.{key}"] = numbers[key]
    per_layer["bench.trace_overhead_ratio"] = traced.fixpoint_s / untraced_fixpoint_s
    if workload.observe:
        observed = attempt(workload, inputs, expected, tally, observe=True)
        per_layer["obs.overhead_ratio"] = observed.fixpoint_s / untraced_fixpoint_s
    doc["untraced"] = recorder.untraced
    doc["traced"] = {
        "fixpoint_s": traced.fixpoint_s,
        "setup_s": traced.setup_s,
        "summary": layers,
        **recorder.dump(),
    }


# --------------------------------------------------------------------- CLI


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42, help="draws the inputs")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure for about this long (at least %d repetitions)" % MIN_REPS)
    parser.add_argument("--reps", type=int, default=None,
                        help="measure exactly this many repetitions instead")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced repetition and print per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every number (and the spans, if traced) as JSON")
    parser.add_argument("--shrink", type=int, default=0,
                        help="halve the graph this many times (selftest)")
    args = parser.parse_args(argv)

    doc = run_workload(
        WORKLOADS[args.workload],
        seed=args.seed, seconds=args.seconds, reps=args.reps,
        trace=bool(args.trace), shrink=args.shrink,
    )
    print(report.render(doc))
    for reason in doc["failures"][:3]:
        print(f"FAILED: {reason}", file=sys.stderr)
    if args.out is not None:
        args.out.write_text(json.dumps(doc))
    if args.trace:
        metrics = report.as_metrics(doc["per_layer"], report.PER_LAYER)
    else:
        metrics = report.as_metrics(doc["end_to_end"], report.END_TO_END)
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }))
    return 1 if doc["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
