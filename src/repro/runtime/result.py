"""Result objects returned by the engine."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.comm.ledger import PhaseLedger
from repro.faults.checkpoint import DegradedStats, RecoveryStats
from repro.obs.tracer import Span
from repro.relational.storage import VersionedRelation
from repro.util.timing import PhaseTimer

TupleT = Tuple[int, ...]


@dataclass
class IterationTrace:
    """One fixpoint iteration's record (drives Fig. 7 and vote analysis)."""

    stratum: int
    iteration: int
    #: Modeled seconds by phase for this iteration.
    phase_seconds: Dict[str, float]
    #: New (admitted) tuples this iteration, total across relations.
    admitted: int
    #: Tuples suppressed by fused dedup/aggregation.
    suppressed: int
    #: Per join rule: "left"/"right" — which side was chosen as outer.
    outer_choices: Dict[str, str] = field(default_factory=dict)
    #: Tuples moved during intra-bucket communication.
    intra_bucket_tuples: int = 0
    #: Tuples moved during the materializing all-to-all.
    alltoall_tuples: int = 0
    #: Host wall seconds by phase for this iteration (simulation cost).
    wall_phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Order-independent multiset digest of each stratum relation's Δ at
    #: the end of this iteration (``EngineConfig.diagnostics.delta_fingerprints``);
    #: empty when fingerprinting is off.  Placement-invariant, so
    #: trajectories can be compared across sub-bucket counts.
    delta_fingerprints: Dict[str, int] = field(default_factory=dict)


@dataclass
class FixpointResult:
    """Everything a caller needs after :meth:`repro.runtime.Engine.run`."""

    relations: Dict[str, VersionedRelation]
    iterations: int
    ledger: PhaseLedger
    timer: PhaseTimer
    trace: List[IterationTrace]
    counters: Dict[str, int]
    #: Closed spans from the run's tracer (empty when tracing is off).
    spans: List[Span] = field(default_factory=list)
    #: Fault-injection / checkpoint / recovery accounting; None when the
    #: run had neither a fault plane nor checkpoints.
    recovery: Optional[RecoveryStats] = None
    #: Per-exchange rank×rank communication matrices
    #: (:class:`repro.obs.analysis.CommMatrixRecorder`); None unless the
    #: run had ``EngineConfig.diagnostics.enabled``.
    comm_profile: Optional[object] = None
    #: Elastic degraded-mode recovery accounting
    #: (:class:`repro.faults.checkpoint.DegradedStats`); None unless a
    #: rank was permanently lost and the run finished on the shrunken
    #: world.  Deliberately not part of :meth:`summary` — it describes
    #: placement, not semantics (query results, Δ fingerprints and
    #: iteration counts stay fault-free-identical; the per-rank layout
    #: legitimately differs on a degraded world).
    degraded: Optional[DegradedStats] = None

    def query(self, name: str) -> Set[TupleT]:
        """Materialize a relation's final contents as a set of tuples."""
        return self.relations[name].as_set()

    def modeled_seconds(self) -> float:
        """Total modeled cluster time (compute max-per-step + comm)."""
        return self.ledger.total_seconds()

    def phase_breakdown(self) -> Dict[str, float]:
        return dict(self.ledger.phase_seconds)

    def wall_seconds(self) -> float:
        """Host wall-clock spent simulating (not a cluster-time claim)."""
        return self.timer.total()

    def summary(self) -> Dict[str, object]:
        """Deterministic digest of the run's semantics and modeled costs.

        Everything here must be invariant under options that only change
        how the work is done, not what it is (the pair budget, tracing,
        diagnostics) — tests assert two such summaries are equal.  Host
        wall times are deliberately excluded.
        """
        return {
            "iterations": self.iterations,
            "counters": dict(sorted(self.counters.items())),
            "relation_sizes": {
                name: rel.full_size()
                for name, rel in sorted(self.relations.items())
            },
            "relation_sizes_by_rank": {
                name: rel.sizes_by_rank().tolist()
                for name, rel in sorted(self.relations.items())
            },
            "phase_seconds": dict(sorted(self.ledger.phase_seconds.items())),
            "modeled_seconds": self.ledger.total_seconds(),
            "imbalance_ratio": self.ledger.imbalance_ratio(),
            "comm_bytes": self.ledger.comm.bytes_total,
            "comm_messages": self.ledger.comm.messages,
        }

    def to_dict(self) -> Dict[str, object]:
        """One stable, JSON-serializable schema for the whole result.

        Unlike :meth:`summary` (the equivalence digest), this
        is the reporting surface: **every key is always present** with a
        zeroed default, so downstream tooling never branches on which
        subsystems a run happened to enable.  ``recovery`` and
        ``degraded`` are the zero-valued stats dicts when the subsystem
        was off; ``wire`` carries
        the canonical tally keys (all zero with the layer disabled);
        ``incremental`` counts update batches (zero for a cold-only run).
        """
        counters = dict(sorted(self.counters.items()))
        recovery = (self.recovery or RecoveryStats()).as_dict()
        degraded = (self.degraded or DegradedStats()).as_dict()
        return {
            "schema_version": 3,
            "iterations": self.iterations,
            "modeled_seconds": self.ledger.total_seconds(),
            "wall_seconds": self.timer.total(),
            "phase_seconds": dict(sorted(self.ledger.phase_seconds.items())),
            "imbalance_ratio": self.ledger.imbalance_ratio(),
            "counters": counters,
            "relation_sizes": {
                name: rel.full_size()
                for name, rel in sorted(self.relations.items())
            },
            "comm": {
                "bytes": self.ledger.comm.bytes_total,
                "messages": self.ledger.comm.messages,
                "bytes_by_kind": dict(sorted(self.ledger.comm.by_kind.items())),
            },
            "wire": {
                "precombine_bytes": counters.get("wire_precombine_bytes", 0),
                "on_wire_bytes": counters.get("wire_on_wire_bytes", 0),
                "collective_direct": counters.get("wire_collective_direct", 0),
                "collective_bruck": counters.get("wire_collective_bruck", 0),
                "bytes_saved": counters.get("wire_precombine_bytes", 0)
                - counters.get("wire_on_wire_bytes", 0),
            },
            "recovery": recovery,
            "degraded": degraded,
            "incremental": {
                "updates": counters.get("updates", 0),
                "update_batch_tuples": counters.get("update_batch_tuples", 0),
                "update_seed_tuples": counters.get("update_seed_tuples", 0),
                "update_seed_retries": counters.get("update_seed_retries", 0),
            },
        }

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{name}={rel.full_size()}"
            for name, rel in sorted(self.relations.items())
        )
        extras = []
        updates = self.counters.get("updates", 0)
        if updates:
            extras.append(f"updates={updates}")
        if self.recovery is not None and self.recovery.recoveries:
            extras.append(f"recoveries={self.recovery.recoveries}")
        if self.degraded is not None:
            extras.append(f"degraded_ranks={list(self.degraded.excluded_ranks)}")
        tail = (", " + ", ".join(extras)) if extras else ""
        return (
            f"FixpointResult(iterations={self.iterations}, "
            f"modeled={self.ledger.total_seconds():.6f}s, "
            f"relations[{sizes}]{tail})"
        )

    # ------------------------------------------------------------------- obs

    def spans_named(self, name: str) -> List[Span]:
        """All spans with the given name (e.g. one pipeline phase)."""
        return [sp for sp in self.spans if sp.name == name]

    def rank_spans(self, rank: int) -> List[Span]:
        """One rank's lane: its compute/comm spans, by modeled start."""
        return sorted(
            (sp for sp in self.spans if sp.rank == rank),
            key=lambda sp: sp.modeled_start,
        )

    def metrics_dict(self) -> Dict[str, Dict[str, object]]:
        """Counters, gauges and distribution summaries of a traced run.

        A view computed on each call from the one record of each number —
        ``counters``, ``ledger``, ``timer``, ``relations``, ``recovery``,
        ``trace`` and the span stream (DESIGN §6 maps every key to its
        source) — so it cannot drift from them.  All three sections are
        empty when the run was not traced.
        """
        out: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        if not self.spans:
            return out
        counters, gauges = out["counters"], out["gauges"]
        for name, value in self.counters.items():
            if name.startswith("wire_"):
                gauges[name] = float(value)
            elif value > 0:
                counters[f"tuples/{name}"] = value
        comm = self.ledger.comm
        if comm.events:
            counters["comm_messages"] = comm.messages
            counters["comm_bytes"] = comm.bytes_total
        gauges["iterations"] = float(self.iterations)
        if "wire_precombine_bytes" in self.counters:  # the wire layer ran
            gauges["wire_bytes_saved"] = float(
                self.counters["wire_precombine_bytes"]
                - self.counters.get("wire_on_wire_bytes", 0)
            )
            gauges["wire_collective_saved_seconds"] = float(sum(
                sp.attrs["saved_seconds"]
                for sp in self.spans if sp.name == "collective_choice"
            ))
        gauges["imbalance_ratio"] = self.ledger.imbalance_ratio()
        gauges["modeled_seconds"] = self.ledger.total_seconds()
        gauges["wall_seconds"] = self.timer.total()
        for name, rel in self.relations.items():
            gauges[f"relation_tuples/{name}"] = float(rel.full_size())
        if self.recovery is not None:
            for key, value in self.recovery.as_dict().items():
                if isinstance(value, dict):
                    for sub, v in value.items():
                        gauges[f"faults/{key}/{sub}"] = float(v)
                else:
                    gauges[f"faults/{key}"] = float(value)

        samples: Dict[str, List[float]] = {}
        steps: Dict[Tuple[float, str], List[float]] = {}
        n_ranks = self.ledger.n_ranks
        for sp in self.spans:
            if sp.cat == "compute" and sp.rank is not None:
                # One compute charge = one modeled_start; a rank with no
                # span in it did no work there.
                key = (sp.modeled_start, sp.name)
                steps.setdefault(key, [0.0] * n_ranks)[sp.rank] = sp.modeled_seconds
            elif sp.cat == "comm" and sp.rank == 0:
                # Every rank carries a span per collective; rank 0's lane
                # counts each charge once.
                samples.setdefault(f"comm_bytes/{sp.name}", []).append(
                    float(sp.attrs["nbytes"])
                )
        for (_start, phase), row in steps.items():
            samples.setdefault(f"compute_seconds/{phase}", []).extend(row)
        samples["rank_compute_seconds"] = self.ledger.rank_compute.tolist()
        if self.relations:
            samples["relation_tuples_by_rank"] = [
                float(v)
                for rel in self.relations.values()
                for v in rel.sizes_by_rank()
            ]
        if self.trace:
            for name, attr in (
                ("admitted_per_iteration", "admitted"),
                ("suppressed_per_iteration", "suppressed"),
                ("alltoall_tuples_per_iteration", "alltoall_tuples"),
            ):
                samples[name] = [float(getattr(t, attr)) for t in self.trace]
        out["histograms"] = {
            name: _summary(values) for name, values in samples.items()
        }
        return out

    def diagnose(self, rel_tol: float = 1e-6):
        """Run the diagnostics plane on this result.

        Returns a :class:`repro.obs.analysis.DiagnosticsReport` — critical
        path, skew doctor, and (when ``EngineConfig.diagnostics.enabled`` captured
        comm matrices) ledger reconciliation.  The critical path is
        attributed over the per-rank span lanes, so it needs a traced run;
        the rest does not.
        """
        from repro.obs.analysis import diagnose

        return diagnose(
            self.spans,
            n_ranks=self.ledger.n_ranks,
            relations=self.relations,
            comm_profile=self.comm_profile,
            comm_bytes_by_kind=self.ledger.comm.by_kind,
            expected_total=self.ledger.total_seconds(),
            rel_tol=rel_tol,
        )

    def write_trace(
        self, path: str, meta: Optional[Dict[str, object]] = None
    ) -> int:
        """Export the span stream (see :func:`repro.obs.export.write_trace`)."""
        from repro.obs.export import write_trace

        return write_trace(path, self.spans, meta=meta)


def _summary(values: Sequence[float]) -> Dict[str, float]:
    """count / sum / min / max / mean and nearest-rank p50 / p90 / p99 of
    a non-empty sample."""
    ordered = sorted(values)
    n = len(ordered)
    total = sum(values)

    def percentile(q: float) -> float:
        return ordered[max(1, math.ceil(q / 100.0 * n)) - 1]

    return {
        "count": n,
        "sum": total,
        "min": ordered[0],
        "max": ordered[-1],
        "mean": total / n,
        "p50": percentile(50),
        "p90": percentile(90),
        "p99": percentile(99),
    }
