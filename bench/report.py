"""Metric names and units, quartiles, and the printed report.

The two name lists here are what ``BENCHMARK.json`` declares;
``selftest.py`` fails if they drift apart.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Sequence, Tuple

from trace import ENGINE_ROOT, PATCH_TABLE, SETUP_ROOT  # bench/trace.py, not the stdlib's

#: Phases of ``FixpointResult.timer`` (wall) and ``.ledger`` (modeled).
PHASES = (
    "load", "vote", "intra_bucket", "local_join", "comm", "dedup_agg",
    "checkpoint", "recovery", "incremental_seed", "other",
)

END_TO_END: Dict[str, str] = {
    "fixpoint_s": "s",
    "setup_s": "s",
    "modeled_s": "s",
    "wire_bytes": "bytes",
    "peak_rss_mb": "MB",
}

#: Counts that must repeat exactly for one seed on one commit.
COUNTS: Dict[str, str] = {
    "runtime.iterations": "count",
    "runtime.emitted": "count",
    "runtime.admitted": "count",
    "runtime.suppressed": "count",
    "runtime.intra_bucket_tuples": "count",
    "runtime.alltoall_tuples": "count",
    "comm.messages": "count",
    "comm.precombine_bytes": "bytes",
    "comm.on_wire_bytes": "bytes",
    "comm.collective_direct": "count",
    "comm.collective_bruck": "count",
    "faults.checkpoints": "count",
    "faults.checkpoint_bytes": "bytes",
    "faults.recoveries": "count",
    "faults.rolled_back_iterations": "count",
    "incremental.updates": "count",
    "incremental.seed_tuples": "count",
}

PER_LAYER: Dict[str, str] = {
    **{f"phase.{p}.wall_s": "s" for p in PHASES},
    **{f"phase.{p}.modeled_s": "s" for p in PHASES},
    **COUNTS,
    "kernels.absorb.admit_ratio": "ratio",
    "comm.wire.fold_ratio": "ratio",
    "incremental.update_p50_s": "s",
    "incremental.update_p75_s": "s",
    **{f"{layer}.calls": "count" for layer in PATCH_TABLE},
    **{f"{layer}.self_s": "s" for layer in PATCH_TABLE},
    f"{ENGINE_ROOT}.self_s": "s",
    f"{SETUP_ROOT}.self_s": "s",
    "bench.trace_overhead_ratio": "ratio",
    "obs.overhead_ratio": "ratio",
}

#: Metrics a pure function of the seed and the commit: any difference
#: between two runs of one seed is a change in behaviour, not noise.
EXACT = ("modeled_s", "wire_bytes", *COUNTS, *(f"phase.{p}.modeled_s" for p in PHASES))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def as_metrics(values: Mapping[str, float], units: Mapping[str, str]) -> Dict[str, dict]:
    """The ``metrics`` object of the result line: every name in ``units``."""
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _number(value: float, unit: str) -> str:
    if unit in ("count", "bytes"):
        return f"{int(value):,}"
    return f"{value:.6g}"


def render(doc: Mapping[str, object]) -> str:
    """The human-readable report of one run (``doc`` is the ``--out`` document)."""
    lines: List[str] = [
        f"workload {doc['workload']}  seed {doc['seed']}  "
        f"repetitions {doc['repetitions']}  operations "
        f"{doc['attempted']} attempted, {doc['failed']} failed "
        f"(error_rate {doc['error_rate']:.4f})",
        "",
        "end to end (wall metrics: median of the repetitions [q1 .. q3] n)",
    ]
    samples: Mapping[str, Sequence[float]] = doc["samples"]
    for name, unit in END_TO_END.items():
        value = doc["end_to_end"][name]
        line = f"  {name:<14} {_number(value, unit):>14} {unit}"
        if name in samples:
            q1, _, q3 = quartiles(samples[name])
            line += f"   [{q1:.4f} .. {q3:.4f}] n={len(samples[name])}"
        lines.append(line)
    if samples["update_s"]:
        _, q2, q3 = quartiles(samples["update_s"])
        lines.append(
            f"  {'update latency':<14} p50 {q2:.4f} s  p75 {q3:.4f} s  "
            f"n={len(samples['update_s'])}"
        )

    per_layer: Mapping[str, float] = doc["per_layer"]
    lines += ["", "phases: wall share against modeled share (>2x apart is flagged)"]
    wall_total = sum(per_layer[f"phase.{p}.wall_s"] for p in PHASES)
    modeled_total = sum(per_layer[f"phase.{p}.modeled_s"] for p in PHASES)
    for p in PHASES:
        wall, modeled = per_layer[f"phase.{p}.wall_s"], per_layer[f"phase.{p}.modeled_s"]
        wshare = wall / wall_total if wall_total else 0.0
        mshare = modeled / modeled_total if modeled_total else 0.0
        apart = max(wshare, mshare) > 2 * min(wshare, mshare) and max(wshare, mshare) >= 0.01
        lines.append(
            f"  phase.{p:<17} wall {wall:9.4f} s {wshare:6.1%}   "
            f"modeled {modeled:.6f} s {mshare:6.1%}{'   <-- diverges' if apart else ''}"
        )

    lines += ["", "counts and ratios (read off the result; no wrappers)"]
    for name in (*COUNTS, "kernels.absorb.admit_ratio", "comm.wire.fold_ratio"):
        lines.append(f"  {name:<32} {_number(per_layer[name], PER_LAYER[name]):>14} {PER_LAYER[name]}")

    if doc["traced"]:
        fixpoint = doc["traced"]["fixpoint_s"]
        lines += ["", f"traced repetition: fixpoint_s {fixpoint:.4f} s, "
                      f"{len(doc['traced']['spans']):,} spans "
                      "(self time; share of traced set-up + fixpoint)"]
        whole = fixpoint + doc["traced"]["setup_s"]
        for layer, numbers in doc["traced"]["summary"].items():
            lines.append(
                f"  {layer:<34} {numbers['calls']:>9,} calls "
                f"{numbers['self_s']:9.4f} s {numbers['self_s'] / whole:6.1%}"
            )
        for layer, why in doc["untraced"].items():
            lines.append(f"  untraced: {layer} ({why})")
        lines.append(
            f"  bench.trace_overhead_ratio {per_layer['bench.trace_overhead_ratio']:.3f}   "
            f"obs.overhead_ratio {per_layer['obs.overhead_ratio']:.3f}"
        )
    return "\n".join(lines)
