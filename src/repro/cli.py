"""``paralagg`` command-line interface.

Runs queries and regenerates the paper's tables/figures from the shell::

    paralagg datasets
    paralagg run sssp --dataset twitter_like --ranks 64 --sources 0,1,2
    paralagg run cc --dataset flickr --ranks 256 --subbuckets 8
    paralagg query examples/programs/sssp.dl --ranks 8
    paralagg update sssp --dataset topcats --batch-frac 0.02 --batches 2
    paralagg trace-report trace.json
    paralagg experiment fig3
    paralagg experiment table2 --full

Every experiment prints the same rows/series the paper reports (see
EXPERIMENTS.md for the side-by-side).  Nothing here measures the repo
against itself: that is ``bench/`` (``BENCHMARK.json``), run against the
parent commit with ``python3 bench/compare.py --pairs N <parent> .``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import replace
from typing import List, Optional

from repro.experiments import ablations, fig2, fig3, fig4, fig5, fig6, fig7, table1, table2
from repro.experiments.common import ExperimentDefaults, defaults_from_env
from repro.graphs.datasets import DATASETS, load_dataset
from repro.obs.tracer import Tracer
from repro.queries.cc import run_cc
from repro.queries.sssp import run_sssp
from repro.runtime.config import (
    DiagnosticsOptions,
    EngineConfig,
    FaultOptions,
    OptionsError,
    RecoveryOptions,
)


def _add_workload_flags(parser: argparse.ArgumentParser) -> None:
    """The dataset, placement and fault flags shared by ``run`` and ``update``."""
    parser.add_argument("query", choices=["sssp", "cc"])
    parser.add_argument("--dataset", default="twitter_like")
    parser.add_argument("--ranks", type=int, default=64)
    parser.add_argument("--subbuckets", type=int, default=8,
                        help="spatial load-balancing factor for the edge relation")
    parser.add_argument("--sources", default="0",
                        help="comma-separated SSSP source vertices")
    parser.add_argument("--scale-shift", type=int, default=0,
                        help="halve the graph's linear scale this many times")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--faults", metavar="SPEC",
        help="inject faults under the comm substrate, e.g. "
             "'crash=1@12,drop=0.02,dup=0.01,corrupt=0.01,"
             "straggle=2:3.0,seed=7' (see repro.faults.parse_fault_spec); "
             "results must match the fault-free run bit-for-bit",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, metavar="K",
        default=RecoveryOptions.checkpoint_every,
        help="checkpoint each recursive stratum every K iterations "
             "(required to survive an injected rank crash)",
    )
    parser.add_argument(
        "--replicas", type=int, metavar="N", default=RecoveryOptions.replicas,
        help="mirror each rank's checkpoint to N buddy ranks (required "
             ">= 1 to survive a permanent loss, crash_perm=R@S; the dead "
             "rank's state is restored from a buddy and its buckets "
             "re-owned onto the survivors)",
    )


def _add_wire_flags(parser: argparse.ArgumentParser) -> None:
    """The wire-layer switch shared by ``run``, ``query`` and ``update``."""
    parser.add_argument(
        "--no-wire", action="store_true",
        help="disable the wire-optimization layer (sender fold, delta "
             "codec, collective autotune); results are identical, only "
             "modeled bytes/seconds change",
    )


def _add_balance_flag(parser: argparse.ArgumentParser) -> None:
    """The resize flag shared by ``run``, ``query`` and ``update``."""
    parser.add_argument(
        "--auto-balance", type=float, metavar="TOL",
        default=EngineConfig.auto_balance,
        help="before the first stratum, re-hash each loaded EDB relation "
             "to the first sub-bucket count of 1, 2, 4, ... 64 whose "
             "projected max/mean rank load is at most TOL (>= 1.0), in one "
             "charged exchange, if that is more than it has (answers are "
             "unchanged; only placement and modeled time move)",
    )


def _options_from_args(args: argparse.Namespace) -> EngineConfig:
    """The one :class:`EngineConfig` a ``run``, ``query`` or ``update``
    flag namespace describes, validated by construction.

    ``query`` has no workload flags (``--seed``, ``--subbuckets``,
    ``--faults``, ...), so it takes the config's defaults for them.
    Diagnostics need the span stream, so they imply a live tracer.  A
    bad value exits here with one line naming its flag.
    """
    want_diagnostics = _want_diagnostics(args)
    tracer = Tracer() if args.trace or want_diagnostics else None
    workload = {}
    try:
        if hasattr(args, "seed"):  # run and update
            workload = dict(
                seed=args.seed,
                subbuckets={"edge": args.subbuckets},
                dynamic_join=not getattr(args, "no_dynamic_join", False),
                faults=FaultOptions(spec=args.faults),
                recovery=RecoveryOptions(
                    checkpoint_every=args.checkpoint_every,
                    replicas=args.replicas,
                ),
            )
        return EngineConfig(
            n_ranks=args.ranks,
            wire=not args.no_wire,
            auto_balance=args.auto_balance,
            diagnostics=DiagnosticsOptions(enabled=want_diagnostics, tracer=tracer),
            **workload,
        )
    except OptionsError as exc:
        raise SystemExit(str(exc))
    except ValueError as exc:
        # A range error opens with the path of the field it is about
        # ("n_ranks must be >= 1", "auto_balance tolerance must ...");
        # the flags carry the fields' names, the recovery flags without
        # their group's (--checkpoint-every, --replicas).
        field = re.match(r"[\w.]+", str(exc)).group()
        field = field.removeprefix("n_").removeprefix("recovery.")
        raise SystemExit(f"bad --{re.sub('[._]', '-', field)}: {exc}")


def _dataset_from_args(args: argparse.Namespace):
    try:
        return load_dataset(
            args.dataset, seed=args.seed, scale_shift=args.scale_shift
        )
    except KeyError as exc:
        raise SystemExit(f"bad --dataset: {exc.args[0]}")


def _sources_from_args(args: argparse.Namespace) -> List[int]:
    """SSSP start vertices of ``run`` / ``update`` (unused by ``cc``)."""
    try:
        sources = [int(s) for s in args.sources.split(",") if s.strip()]
    except ValueError:
        raise SystemExit(
            f"bad --sources {args.sources!r}: expected comma-separated "
            "vertex ids"
        )
    if not sources and args.query == "sssp":
        raise SystemExit("bad --sources '': sssp needs at least one source")
    return sources


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by the ``run`` and ``query`` commands."""
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a span trace of the run and write it to PATH as "
             "Chrome trace-event JSON (phases, iterations, per-rank "
             "compute/comm lanes; open in chrome://tracing or "
             "https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print a machine-readable JSON report (phase breakdown, "
             "counters, metrics) instead of the human-readable text",
    )
    parser.add_argument(
        "--diagnostics", action="store_true",
        help="run the performance-diagnostics plane: capture rank×rank "
             "communication matrices, attribute the modeled critical path, "
             "and run the skew doctor (observation only — results and "
             "modeled costs are unchanged)",
    )
    parser.add_argument(
        "--flamegraph", metavar="PATH", default=None,
        help="write the modeled critical path as collapsed stacks to PATH "
             "(feed to flamegraph.pl or speedscope); implies --diagnostics",
    )


def _finish_obs(args: argparse.Namespace, fp, report: dict) -> int:
    """Shared tail of a traced/JSON run: write the trace, emit the report."""
    if args.trace:
        try:
            n = fp.write_trace(
                args.trace, meta={"command": " ".join(sys.argv[1:])}
            )
        except OSError as exc:
            raise SystemExit(f"cannot write trace to {args.trace}: {exc}")
        report["trace"] = {"path": args.trace, "format": "chrome", "records": n}
    diagnostics = None
    if args.diagnostics or args.flamegraph:
        diagnostics = fp.diagnose()
        report["diagnostics"] = diagnostics.to_dict()
    if args.flamegraph:
        from repro.obs.analysis import write_flamegraph

        try:
            n_stacks = write_flamegraph(args.flamegraph, fp.spans)
        except OSError as exc:
            raise SystemExit(f"cannot write flamegraph to {args.flamegraph}: {exc}")
        report["flamegraph"] = {"path": args.flamegraph, "stacks": n_stacks}
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
        return 0
    if args.trace:
        from repro.metrics.obsreport import render_rank_utilization, render_span_summary

        print(f"trace: {report['trace']['records']} records -> {args.trace} "
              "[chrome]")
        print("  open in https://ui.perfetto.dev (one lane per rank)")
        print(render_span_summary(fp.spans))
        print(render_rank_utilization(fp.spans))
    if diagnostics is not None:
        from repro.obs.analysis import render_comm_heatmap, render_compute_heatmap

        print(diagnostics.render())
        print(render_compute_heatmap(fp.spans))
        if fp.comm_profile is not None and len(fp.comm_profile):
            print(render_comm_heatmap(fp.comm_profile))
    if args.flamegraph:
        print(f"flamegraph: {report['flamegraph']['stacks']} stacks -> "
              f"{args.flamegraph}")
    return 0


def _base_report(fp, *, ranks: int) -> dict:
    comm = fp.ledger.comm
    report = {
        "ranks": ranks,
        "iterations": fp.iterations,
        "modeled_seconds": fp.modeled_seconds(),
        "wall_seconds": fp.wall_seconds(),
        "phase_seconds": fp.phase_breakdown(),
        "imbalance_ratio": fp.ledger.imbalance_ratio(),
        "counters": dict(fp.counters),
        "comm": {
            "bytes": comm.bytes_total,
            "messages": comm.messages,
            "bytes_by_kind": dict(comm.by_kind),
        },
    }
    if fp.spans:
        report["metrics"] = fp.metrics_dict()
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paralagg",
        description="PARALAGG reproduction: communication-avoiding recursive aggregation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the named stand-in graphs")

    run = sub.add_parser("run", help="run a query on a dataset")
    _add_workload_flags(run)
    run.add_argument("--no-dynamic-join", action="store_true",
                     help="disable Algorithm 1's per-iteration vote")
    run.add_argument("--explain", action="store_true",
                     help="print the compiled evaluation plan before running")

    update = sub.add_parser(
        "update",
        help="demonstrate incremental fixpoint maintenance: converge on "
             "most of a dataset, apply the held-out edges as update "
             "batches through the Session API, and verify bit-identity "
             "against a cold recompute on the union EDB",
    )
    _add_workload_flags(update)
    update.add_argument("--batch-frac", type=float, default=0.01,
                        metavar="FRAC",
                        help="fraction of edges held out and replayed as "
                             "updates (default: 0.01)")
    update.add_argument("--batches", type=int, default=1, metavar="N",
                        help="split the held-out edges into N sequential "
                             "update batches (default: 1)")

    query = sub.add_parser(
        "query", help="run a Datalog source file (surface syntax)"
    )
    query.add_argument("file", help="path to a .dl program")
    query.add_argument("--ranks", type=int, default=16)
    query.add_argument(
        "--facts", action="append", default=[], metavar="REL=PATH",
        help="load a relation from an edge-list file (repeatable)",
    )
    query.add_argument("--explain", action="store_true")
    query.add_argument("--spmd", action="store_true",
                       help="evaluate with the per-rank driver (one engine "
                            "per rank, in lockstep) instead of the BSP driver")
    query.add_argument("--limit", type=int, default=20,
                       help="max tuples to print per output relation")
    for command in (run, update, query):
        _add_obs_flags(command)
        _add_wire_flags(command)
        _add_balance_flag(command)

    tr = sub.add_parser(
        "trace-report",
        help="analyze a saved trace offline: validate it, then run the "
             "span summary, rank utilization, and performance diagnostics "
             "without re-running the query",
    )
    tr.add_argument("trace_file", help="a Chrome trace written by --trace")
    tr.add_argument("--json", action="store_true",
                    help="print the full report as JSON")
    tr.add_argument("--flamegraph", metavar="PATH", default=None,
                    help="also write the critical path as collapsed stacks")

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument(
        "name",
        choices=["fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                 "table1", "table2", "ablations", "all"],
    )
    exp.add_argument("--full", action="store_true",
                     help="run the paper's full sweep (slow)")
    exp.add_argument("--scale-shift", type=int, default=None)
    return parser


def _cmd_datasets() -> int:
    for name, spec in sorted(DATASETS.items()):
        print(f"{name:14s} stands in for {spec.paper_graph:28s} [{spec.category}]")
    return 0


def _want_diagnostics(args: argparse.Namespace) -> bool:
    return bool(args.diagnostics or args.flamegraph)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _options_from_args(args)
    sources = _sources_from_args(args)
    graph = _dataset_from_args(args)
    quiet = args.json
    if not quiet:
        print(f"{graph} on {args.ranks} simulated ranks")
    if args.explain:
        from repro.queries.cc import cc_program
        from repro.queries.sssp import sssp_program
        from repro.runtime.engine import Engine as _E

        prog = (
            sssp_program(args.subbuckets)
            if args.query == "sssp"
            else cc_program(args.subbuckets)
        )
        print(_E(prog, config).explain())
    t0 = time.time()
    summary: dict = {"query": args.query, "dataset": args.dataset}
    if args.query == "sssp":
        result = run_sssp(graph, sources, config)
        fp = result.fixpoint
        summary.update(n_paths=result.n_paths, sources=sources)
        if not quiet:
            print(
                f"sssp: {result.n_paths} shortest paths from {len(sources)} "
                f"source(s) in {result.iterations} iterations"
            )
    else:
        result = run_cc(graph, config)
        fp = result.fixpoint
        summary.update(
            n_components=result.n_components, n_vertices=len(result.labels)
        )
        if not quiet:
            print(
                f"cc: {result.n_components} components over "
                f"{len(result.labels)} non-isolated vertices in "
                f"{result.iterations} iterations"
            )
    if not quiet:
        print(f"wall (simulation host): {time.time() - t0:.2f}s")
        print(f"modeled cluster time:   {fp.modeled_seconds():.6f}s")
        for phase, seconds in sorted(fp.phase_breakdown().items()):
            print(f"  {phase:14s} {seconds:.6f}s")
        comm = fp.ledger.comm
        print(f"communication: {comm.bytes_total} bytes in {comm.messages} messages")
        if fp.recovery is not None:
            rec, inj = fp.recovery, fp.recovery.injected
            print(
                f"faults: {inj.drops} dropped / {inj.dups} duplicated / "
                f"{inj.corruptions} corrupted ({inj.detected_corruptions} "
                f"detected) / {inj.crashes} crash(es); "
                f"{inj.retransmits} retransmit(s)"
            )
            print(
                f"recovery: {rec.checkpoints} checkpoint(s) "
                f"({rec.checkpoint_bytes} bytes, "
                f"{rec.checkpoint_seconds:.6f}s modeled), "
                f"{rec.recoveries} recovery(ies), "
                f"{rec.rolled_back_iterations} iteration(s) replayed"
            )
            if rec.replica_bytes:
                print(
                    f"replication: {rec.replica_bytes} bytes mirrored to "
                    f"buddies ({rec.replica_seconds:.6f}s modeled)"
                )
        if fp.degraded is not None:
            deg = fp.degraded
            sources = ", ".join(
                f"rank {d} from buddy {b}" for d, b in deg.replica_sources
            )
            print(
                f"degraded: finished without rank(s) "
                f"{deg.excluded_ranks} (epoch {deg.epoch}); restored "
                f"{deg.restored_tuples} tuple(s) ({sources}), re-owned "
                f"{deg.reowned_shards} shard(s) onto survivors"
            )
    report = _base_report(fp, ranks=args.ranks)
    if fp.recovery is not None:
        report["recovery"] = fp.recovery.as_dict()
    if fp.degraded is not None:
        report["degraded"] = fp.degraded.as_dict()
    report.update(summary)
    return _finish_obs(args, fp, report)


def _program_and_facts(query: str, graph, sources, edge_subbuckets):
    """``(program, edge tuples, other EDB facts, answer relation)`` of ``update``."""
    if query == "sssp":
        from repro.queries.sssp import sssp_program

        g = graph if graph.weighted else graph.with_unit_weights()
        return (
            sssp_program(edge_subbuckets),
            [tuple(t) for t in g.tuples()],
            {"start": [(int(s),) for s in sources]},
            "spath",
        )
    from repro.queries.cc import cc_program

    g = graph
    if g.weighted:
        from repro.graphs.types import Graph

        g = Graph(g.edges[:, :2], g.n_nodes, name=g.name, category=g.category)
    g = g.deduplicated().symmetrized()
    return (
        cc_program(edge_subbuckets),
        [tuple(t) for t in g.edges.tolist()],
        {},
        "cc",
    )


def _split_edges(edges: list, frac: float, seed: int):
    """Deterministically hold out ``frac`` of the edges as the update."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n = len(edges)
    k = max(1, int(n * frac))
    held = set(rng.choice(n, size=k, replace=False).tolist())
    base = [e for i, e in enumerate(edges) if i not in held]
    batch = [e for i, e in enumerate(edges) if i in held]
    return base, batch


def _cold_run(program, edges, other_facts, config):
    from repro.runtime.engine import Engine

    engine = Engine(program, config)
    engine.load("edge", edges)
    for name, rows in other_facts.items():
        engine.load(name, rows)
    engine.run()
    return engine


def _cmd_update(args: argparse.Namespace) -> int:
    """Converge on a base EDB, replay held-out edges as update batches."""
    from repro.api import Session
    from repro.runtime.incremental import IncrementalUnsupportedError

    if not 0.0 < args.batch_frac < 1.0:
        raise SystemExit(
            f"--batch-frac must be in (0, 1), got {args.batch_frac}"
        )
    config = _options_from_args(args)
    session = Session(config)
    sources = _sources_from_args(args)
    graph = _dataset_from_args(args)
    program, edges, other_facts, answer_rel = _program_and_facts(
        args.query, graph, sources, args.subbuckets
    )
    base, held = _split_edges(edges, args.batch_frac, args.seed)
    n_batches = max(1, args.batches)
    batches = [held[i::n_batches] for i in range(n_batches)]
    batches = [b for b in batches if b]

    quiet = args.json
    if not quiet:
        print(
            f"{graph} on {args.ranks} simulated ranks — converging on "
            f"{len(base)} edges, holding out {len(held)} "
            f"({args.batch_frac:.1%}) across {len(batches)} batch(es)"
        )
    t0 = time.time()
    session.query(program, {"edge": base, **other_facts})
    base_modeled = session.result().modeled_seconds()
    prev = base_modeled
    update_costs = []
    for i, batch in enumerate(batches):
        try:
            session.update({"edge": batch})
        except IncrementalUnsupportedError as exc:
            raise SystemExit(
                f"update batch {i} is outside insertion-only maintenance; "
                f"a cold recompute on the union EDB is required: {exc}"
            )
        total = session.result().modeled_seconds()
        update_costs.append(total - prev)
        prev = total
        if not quiet:
            print(
                f"update {i}: {len(batch)} tuple(s), modeled "
                f"{update_costs[-1]:.6f}s"
            )

    # The oracle: a fault-free, unobserved cold recompute on the union EDB.
    cold = _cold_run(program, edges, other_facts, replace(
        config, faults=FaultOptions(), recovery=RecoveryOptions(),
        diagnostics=DiagnosticsOptions(),
    ))
    cold_modeled = cold.cluster.ledger.total_seconds()
    names = sorted(cold.store.relations)
    identical_answers = session.relation(answer_rel) == cold.store[
        answer_rel
    ].as_set()
    identical_multisets = all(
        sorted(session.engine.store[n].iter_full())
        == sorted(cold.store[n].iter_full())
        for n in names
    )
    update_modeled = sum(update_costs)
    speedup = (
        cold_modeled / update_modeled if update_modeled > 0 else float("inf")
    )
    fp = session.result()
    report = fp.to_dict()
    report.update(
        query=args.query,
        dataset=args.dataset,
        ranks=args.ranks,
        base_modeled_seconds=base_modeled,
        update_modeled_seconds=update_modeled,
        cold_modeled_seconds=cold_modeled,
        speedup_vs_cold=speedup,
        identical_answers=identical_answers,
        identical_multisets=identical_multisets,
    )
    if not quiet:
        print(
            f"cold recompute (union EDB): {cold_modeled:.6f}s modeled; "
            f"updates: {update_modeled:.6f}s modeled "
            f"({speedup:.1f}x cheaper)"
        )
        print(
            "identity vs cold recompute: answers "
            + ("MATCH" if identical_answers else "DIFFER")
            + ", full multisets "
            + ("MATCH" if identical_multisets else "DIFFER")
        )
        if fp.recovery is not None and fp.recovery.recoveries:
            print(
                f"recovery: {fp.recovery.recoveries} recovery(ies), "
                f"{fp.recovery.rolled_back_iterations} iteration(s) replayed"
            )
        print(f"wall (simulation host): {time.time() - t0:.2f}s")
    rc = _finish_obs(args, fp, report)
    if not (identical_answers and identical_multisets):
        return 1
    return rc


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.metrics.obsreport import render_rank_utilization, render_span_summary
    from repro.obs.analysis import (
        diagnose,
        render_comm_heatmap,
        render_compute_heatmap,
        write_flamegraph,
    )
    from repro.obs.export import load_trace, validate_trace_file

    try:
        validation = validate_trace_file(args.trace_file)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise SystemExit(f"invalid trace {args.trace_file}: {exc}")
    spans, meta = load_trace(args.trace_file)
    lane_spans = [sp for sp in spans if sp.rank is not None]
    # Offline ground truth for the critical-path check: the span stream
    # tiles the modeled timeline, so its right edge is the ledger total.
    expected_total = max((sp.modeled_end for sp in lane_spans), default=0.0)
    diagnostics = diagnose(spans, expected_total=expected_total or None)
    report = {
        "trace": args.trace_file,
        "validation": {
            k: sorted(v) if isinstance(v, set) else v
            for k, v in validation.items()
        },
        "meta": meta,
        "diagnostics": diagnostics.to_dict(),
    }
    if args.flamegraph:
        n_stacks = write_flamegraph(args.flamegraph, spans)
        report["flamegraph"] = {"path": args.flamegraph, "stacks": n_stacks}
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
        return 0
    n_lanes = len({sp.rank for sp in lane_spans})
    print(f"{args.trace_file}: valid trace, {len(spans)} spans, "
          f"{n_lanes} rank lane(s)")
    if meta.get("command"):
        print(f"  recorded by: paralagg {meta['command']}")
    print(render_span_summary(spans))
    print(render_rank_utilization(spans))
    print(diagnostics.render())
    if lane_spans:
        print(render_compute_heatmap(spans))
    if diagnostics.comm_profile is not None and len(diagnostics.comm_profile):
        print(render_comm_heatmap(diagnostics.comm_profile))
    elif not args.json:
        print("(no comm matrices in trace: record with --diagnostics "
              "to enable offline comm analysis)")
    if args.flamegraph:
        print(f"flamegraph: {report['flamegraph']['stacks']} stacks -> "
              f"{args.flamegraph}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    base = defaults_from_env()
    defaults = ExperimentDefaults(
        scale_shift=base.scale_shift if args.scale_shift is None else args.scale_shift,
        full=args.full or base.full,
        seed=base.seed,
    )
    t0 = time.time()
    if args.name == "fig2":
        print(fig2.render(fig2.run_fig2(defaults)))
    elif args.name == "fig3":
        print(fig3.render(fig3.run_fig3(defaults)))
    elif args.name == "fig4":
        print(fig4.render(fig4.run_fig4(defaults)))
    elif args.name == "fig5":
        print(fig5.render(fig5.run_fig5(defaults)))
    elif args.name == "fig6":
        print(fig6.render(fig6.run_fig6(defaults)))
    elif args.name == "fig7":
        print(fig7.render(fig7.run_fig7(defaults)))
    elif args.name == "table1":
        print(table1.render(table1.run_table1(defaults)))
    elif args.name == "table2":
        print(table2.render(table2.run_table2(defaults)))
    elif args.name == "all":
        for sub in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                    "table1", "table2", "ablations"):
            sub_args = argparse.Namespace(
                name=sub, full=args.full, scale_shift=args.scale_shift
            )
            _cmd_experiment(sub_args)
    elif args.name == "ablations":
        print(ablations.render(ablations.run_join_order_ablation(defaults),
                               "Ablation — join-order selection"))
        print()
        print(ablations.render(ablations.run_aggregation_placement_ablation(defaults),
                               "Ablation — aggregation placement"))
    print(f"\n[{args.name} regenerated in {time.time() - t0:.1f}s]")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import pathlib

    import numpy as np

    from repro.planner.parser import DatalogSyntaxError, parse_program
    from repro.runtime.engine import Engine

    config = _options_from_args(args)
    if args.spmd:
        from repro.runtime.spmd import spmd_refusals

        # One message: the config fields the per-rank driver refuses, plus
        # the output flags that read a BSP FixpointResult.
        refused = spmd_refusals(config) + [
            f"--{name}" for name in ("json", "flamegraph") if getattr(args, name)
        ]
        if refused:
            raise SystemExit(
                f"{', '.join(refused)} require the BSP driver (drop --spmd)"
            )
    try:
        parsed = parse_program(pathlib.Path(args.file).read_text())
    except OSError as exc:
        raise SystemExit(f"cannot read program {args.file}: {exc.strerror}")
    except DatalogSyntaxError as exc:
        raise SystemExit(f"{args.file}: {exc}")
    file_inputs = dict(parsed.inputs)
    for spec in args.facts:
        rel, _, path = spec.partition("=")
        if not path:
            raise SystemExit(f"--facts needs REL=PATH, got {spec!r}")
        file_inputs[rel] = path
    all_facts = {name: list(rows) for name, rows in parsed.facts.items()}
    for rel, path in file_inputs.items():
        try:
            rows = np.loadtxt(path, dtype=np.int64, ndmin=2)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read facts for {rel!r} from {path}: {exc}")
        all_facts.setdefault(rel, []).extend(
            tuple(int(v) for v in r) for r in rows
        )
    # Only the chosen driver is built and loaded (--explain under --spmd
    # plans on an unloaded engine).
    if not args.spmd or args.explain:
        engine = Engine(parsed.program, config)
        if args.explain:
            print(engine.explain())
    if args.spmd:
        from repro.runtime.spmd import run_slices

        t0 = time.time()
        _engines, results = run_slices(parsed.program, all_facts, config=config)
        result = results[0]

        def lookup(name):
            return set().union(*(r.query(name) for r in results))

        driver = "SPMD engine, "
    else:
        for name, rows in all_facts.items():
            engine.load(name, rows)
        t0 = time.time()
        result = engine.run()
        lookup = result.query
        driver = ""
    footer = (f"[{driver}{result.iterations} iterations, "
              f"modeled {result.modeled_seconds():.6f}s, "
              f"wall {time.time() - t0:.2f}s]")
    outputs = parsed.outputs or tuple(
        r.head.relation for r in parsed.program.rules
    )
    quiet = getattr(args, "json", False)
    output_sizes = {}
    for name in dict.fromkeys(outputs):
        tuples = sorted(lookup(name))
        output_sizes[name] = len(tuples)
        if quiet:
            continue
        shown = tuples[: args.limit]
        print(f"{name}: {len(tuples)} tuple(s)")
        for t in shown:
            print(f"  {name}{t}")
        if len(tuples) > len(shown):
            print(f"  ... {len(tuples) - len(shown)} more")
    if not quiet:
        print(footer)
    if args.spmd:  # --json and the trace outputs are refused above
        return 0
    report = _base_report(result, ranks=args.ranks)
    report.update(program=args.file, outputs=output_sizes)
    return _finish_obs(args, result, report)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "update":
        return _cmd_update(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "trace-report":
        return _cmd_trace_report(args)
    return _cmd_experiment(args)


if __name__ == "__main__":
    sys.exit(main())
