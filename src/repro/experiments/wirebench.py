"""Wire-layer benchmark: modeled bytes and time, wire on vs off (PR 7).

Runs each workload three ways — wire on under both executors (they must
agree on every result and every modeled charge) and wire off under the
columnar executor (the counterfactual baseline) — then reports:

* on-wire byte reduction: pre-combine raw traffic vs what the codec
  actually shipped, per query and in total;
* modeled end-to-end improvement: wire-off vs wire-on cluster seconds;
* collective autotune decisions (direct vs Bruck counts).

``paralagg bench --wire`` drives this module and writes the JSON report
(``BENCH_PR7.json`` by default) consumed by CI's perf-gate job, which
also hard-fails on >5% on-wire byte growth for the SSSP smoke workload.
The snapshot carries the same provenance envelope and per-query
scalar/columnar sections as the hot-path bench, so ``--compare`` works
against it unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.comm.wire import WireConfig
from repro.experiments.hotpath import _executor_report, _run_one
from repro.graphs.datasets import load_dataset
from repro.obs.analysis import stamp_bench_snapshot
from repro.runtime.config import EngineConfig


def run_wire_bench(
    *,
    dataset: str = "twitter_like",
    ranks: int = 64,
    seed: int = 42,
    scale_shift: int = 0,
    sources: Sequence[int] = (0, 1, 2),
    edge_subbuckets: int = 8,
    queries: Sequence[str] = ("sssp", "cc"),
    wire: Optional[WireConfig] = None,
) -> Dict[str, object]:
    """Benchmark the wire layer; return the comparison report.

    The wire layer must be invisible to semantics: results, iteration
    counts and Δ trajectories are asserted identical across wire on/off
    and across executors — only modeled bytes and seconds may move.
    """
    graph = load_dataset(dataset, seed=seed, scale_shift=scale_shift)
    if wire is None:
        wire = WireConfig()
    wire_off = WireConfig.off()
    report: Dict[str, object] = {
        "benchmark": "wire_layer",
        "dataset": dataset,
        "edges": int(graph.edges.shape[0]),
        "ranks": ranks,
        "seed": seed,
        "scale_shift": scale_shift,
        "edge_subbuckets": edge_subbuckets,
        "queries": {},
        "wire": {
            "codec": wire.codec,
            "alltoallv": wire.alltoallv,
            "sender_combine": wire.sender_combine,
            "queries": {},
        },
    }
    identical: List[bool] = []
    tot_pre = tot_wire = 0
    tot_off_s = tot_on_s = 0.0
    tot_on_wall = tot_off_wall = 0.0
    for i, query in enumerate(queries):
        runs = {}
        answers = {}
        # Wire-on and wire-off host walls are compared (perf-gate's
        # on/off ratio), so alternate which runs first from query to
        # query: warm-up and clock drift then favor neither side.
        on_off = [("columnar", "columnar", wire), ("off", "columnar", wire_off)]
        if i % 2:
            on_off.reverse()
        for label, executor, w in [("scalar", "scalar", wire)] + on_off:
            config = EngineConfig(
                n_ranks=ranks,
                subbuckets={"edge": edge_subbuckets},
                seed=seed,
                executor=executor,
                wire=w,
            )
            res, wall = _run_one(query, graph, config, sources)
            runs[label] = (res.fixpoint, wall)
            answers[label] = res.distances if query == "sssp" else res.labels
        fp_on, wall_on = runs["columnar"]
        fp_off, wall_off = runs["off"]
        tot_on_wall += wall_on
        tot_off_wall += wall_off
        fp_scalar, wall_scalar = runs["scalar"]
        # Semantics must be wire- and executor-invariant.
        identical_results = (
            answers["scalar"] == answers["columnar"] == answers["off"]
        )
        identical_ledger = fp_scalar.summary() == fp_on.summary()
        identical_iterations = (
            fp_on.iterations == fp_off.iterations == fp_scalar.iterations
        )
        identical.append(
            identical_results and identical_ledger and identical_iterations
        )
        pre = int(fp_on.counters.get("wire_precombine_bytes", 0))
        on_wire = int(fp_on.counters.get("wire_on_wire_bytes", 0))
        off_s = fp_off.modeled_seconds()
        on_s = fp_on.modeled_seconds()
        tot_pre += pre
        tot_wire += on_wire
        tot_off_s += off_s
        tot_on_s += on_s
        speedup = (
            wall_scalar / wall_on if wall_on > 0 else float("inf")
        )
        report["queries"][query] = {
            "scalar": _executor_report(fp_scalar, wall_scalar),
            "columnar": _executor_report(fp_on, wall_on),
            "speedup": speedup,
            "identical_results": identical_results,
            "identical_ledger": identical_ledger,
        }
        report["wire"]["queries"][query] = {
            "precombine_bytes": pre,
            "on_wire_bytes": on_wire,
            "reduction_pct": 100.0 * (pre - on_wire) / pre if pre else 0.0,
            "wire_off_modeled_seconds": off_s,
            "wire_on_modeled_seconds": on_s,
            "wire_off_wall_seconds": wall_off,
            "wire_on_wall_seconds": wall_on,
            "modeled_improvement_pct": (
                100.0 * (off_s - on_s) / off_s if off_s > 0 else 0.0
            ),
            "collective": {
                "direct": int(fp_on.counters.get("wire_collective_direct", 0)),
                "bruck": int(fp_on.counters.get("wire_collective_bruck", 0)),
            },
            "identical_iterations": identical_iterations,
        }
    report["wire"]["total"] = {
        "precombine_bytes": tot_pre,
        "on_wire_bytes": tot_wire,
        "reduction_pct": (
            100.0 * (tot_pre - tot_wire) / tot_pre if tot_pre else 0.0
        ),
        "wire_off_modeled_seconds": tot_off_s,
        "wire_on_modeled_seconds": tot_on_s,
        "wire_off_wall_seconds": tot_off_wall,
        "wire_on_wall_seconds": tot_on_wall,
        # Host cost of the layer: one wall sample per side per query, so
        # a coarse tripwire (perf-gate fails above 2.0), not a measurement.
        "wall_on_off_ratio": (
            tot_on_wall / tot_off_wall if tot_off_wall > 0 else float("inf")
        ),
        "end_to_end_improvement_pct": (
            100.0 * (tot_off_s - tot_on_s) / tot_off_s if tot_off_s > 0 else 0.0
        ),
    }
    report["all_identical"] = all(identical)
    stamp_bench_snapshot(report)
    return report


def render(report: Dict[str, object]) -> str:
    """Human-readable table of the wire-layer benchmark report."""
    w = report["wire"]
    lines = [
        f"wire-layer benchmark — {report['dataset']} "
        f"({report['edges']} edges), {report['ranks']} ranks, "
        f"codec {w['codec']}, alltoallv {w['alltoallv']}",
        f"{'query':8s} {'pre-combine B':>14s} {'on-wire B':>12s} "
        f"{'saved':>7s} {'off mod s':>10s} {'on mod s':>10s} {'win':>7s}",
    ]
    for query, q in w["queries"].items():
        lines.append(
            f"{query:8s} {q['precombine_bytes']:14d} "
            f"{q['on_wire_bytes']:12d} {q['reduction_pct']:6.1f}% "
            f"{q['wire_off_modeled_seconds']:10.6f} "
            f"{q['wire_on_modeled_seconds']:10.6f} "
            f"{q['modeled_improvement_pct']:6.1f}%"
        )
        coll = q["collective"]
        lines.append(
            f"{'':8s} collective: {coll['direct']} direct / "
            f"{coll['bruck']} bruck supersteps"
        )
    t = w["total"]
    lines.append(
        f"{'total':8s} {t['precombine_bytes']:14d} {t['on_wire_bytes']:12d} "
        f"{t['reduction_pct']:6.1f}% {t['wire_off_modeled_seconds']:10.6f} "
        f"{t['wire_on_modeled_seconds']:10.6f} "
        f"{t['end_to_end_improvement_pct']:6.1f}%"
    )
    lines.append(
        f"host wall: wire on {t['wire_on_wall_seconds']:.2f} s / off "
        f"{t['wire_off_wall_seconds']:.2f} s = {t['wall_on_off_ratio']:.2f}x"
    )
    ok = "yes" if report["all_identical"] else "NO"
    lines.append(f"identical results/ledgers/iterations: {ok}")
    return "\n".join(lines)
