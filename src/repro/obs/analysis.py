"""Performance diagnostics: comm matrices, critical path, skew doctor.

PR 1's observability layer records *what happened* — flat spans and
counters.  This module turns that stream into *why it was slow*, the
three questions the paper's own evaluation revolves around:

1. **Which rank×rank edge carried the bytes?**
   :class:`CommMatrixRecorder` captures one sparse rank×rank matrix per
   exchange (bytes + tuple counts) inside
   :meth:`~repro.comm.simcluster.SimCluster.alltoallv`, the one place
   wire messages move.  Fault-driven retransmissions land in a separate
   channel so recovered traffic never masquerades as algorithmic traffic.  Capture is observation-only: ledgers and results
   are bit-identical with it on or off, and :meth:`CommMatrixRecorder.
   reconcile` proves the matrices sum to the bytes the ledger charged.

2. **Which phase on which rank bounds the superstep?**
   :func:`critical_path` replays the per-rank span lanes charge by
   charge.  BSP semantics make the modeled critical path exact: each
   charge's cost is the *max over ranks*, so attributing every charge to
   its bounding rank decomposes total modeled time with zero residue
   (validated to ``rel_tol`` by :meth:`CriticalPathReport.validate`).

3. **Is the slowness skew?**
   :func:`diagnose_skew` computes per-superstep load-imbalance factors
   (max/mean, idle-rank starvation), per-relation placement skew (Gini
   over bucket sizes, top-bucket share), join-vote oscillation, and
   comm-matrix hotspots, and emits structured :class:`Diagnosis` records
   with actionable recommendations — the measurement side of the paper's
   §IV-C spatial load balancing and §IV-D dynamic join planning.

The same functions run *offline* on a saved trace (``paralagg
trace-report``): span loaders in :mod:`repro.obs.export` reconstruct the
span stream, comm matrices ride along as ``comm_matrix`` instant spans
when diagnostics are enabled, and the reconciliation checks them against
the ``nbytes`` of rank 0's comm spans (:func:`comm_bytes_from_spans`).

Everything here *explains* one run; nothing here compares two.  Whether a
change made the engine faster or slower on either clock is ``bench/``'s
question (``bench/compare.py`` against the parent commit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Channel names inside a comm matrix.  ``data`` is first-transmission
#: traffic; ``retransmit`` is fault-recovery traffic (tagged separately so
#: chaos runs can prove injected faults never leak into the data channel);
#: ``precombine`` is the *counterfactual* traffic a route exchange would
#: have carried without the PR 7 wire layer (sender-side combining +
#: codec) — it is never charged to the ledger, so bytes saved on any edge
#: is simply ``precombine − data``.
#: ``rebalance`` carries a resize's intra-bucket redistribution
#: exchange (``auto_balance``) — real charged traffic like ``data``,
#: but tagged separately so migration volume is visible per edge and the
#: fixpoint's own traffic stays comparable with a statically placed run.
#: ``replica`` carries buddy checkpoint replication (PR 9: each rank's
#: snapshot mirrored to its replica ring), and ``recovery`` carries the
#: re-owning scatter after a permanent rank loss — both real charged
#: traffic, separated so degraded runs stay comparable to fault-free.
#: ``update`` carries the incremental seed exchange (PR 10: an EDB
#: insertion batch routed to its home shards) — charged traffic, kept out
#: of ``data`` so an update's fixpoint traffic compares with a cold run's.
CHANNELS = (
    "data", "retransmit", "precombine", "rebalance", "replica", "recovery",
    "update",
)

#: Exchanges whose charged traffic is recorded in a channel of their own
#: rather than ``data``, by CommEvent/CommMatrix kind.
KIND_CHANNEL = {
    "rebalance": "rebalance",
    "replica": "replica",
    "reown": "recovery",
    "incremental_seed": "update",
}


# ===================================================================== comm


class CommMatrix:
    """One exchange's sparse rank×rank traffic matrix.

    ``data[(src, dst)] = [nbytes, tuples]`` for first transmissions;
    ``retransmit`` holds the same shape for fault-recovery resends.
    Self-edges (``src == dst``) carry tuple counts with zero bytes — local
    delivery is free on the wire, but the tuples still matter for skew.
    """

    __slots__ = ("seq", "kind", "phase", "n_ranks") + CHANNELS

    def __init__(self, seq: int, kind: str, phase: str, n_ranks: int):
        self.seq = seq
        self.kind = kind
        self.phase = phase
        self.n_ranks = n_ranks
        for channel in CHANNELS:
            setattr(self, channel, {})

    def add(
        self, src: int, dst: int, nbytes: int, tuples: int,
        *, retransmit: bool = False, channel: Optional[str] = None,
    ) -> None:
        if channel is None:
            channel = "retransmit" if retransmit else "data"
        chan = self._chan(channel)
        cell = chan.get((src, dst))
        if cell is None:
            chan[(src, dst)] = [nbytes, tuples]
        else:
            cell[0] += nbytes
            cell[1] += tuples

    def add_messages(self, src, dst, nbytes, tuples, channel: str) -> None:
        """:meth:`add` for every message of an exchange, given as
        equal-length integer arrays."""
        for cell in zip(src.tolist(), dst.tolist(), nbytes.tolist(), tuples.tolist()):
            self.add(*cell, channel=channel)

    # ---------------------------------------------------------------- totals

    def _chan(self, channel: str) -> Dict[Tuple[int, int], List[int]]:
        if channel not in CHANNELS:
            raise ValueError(f"unknown channel {channel!r}; expected {CHANNELS}")
        return getattr(self, channel)

    def bytes_total(self, channel: str = "data") -> int:
        return sum(cell[0] for cell in self._chan(channel).values())

    def tuples_total(self, channel: str = "data") -> int:
        return sum(cell[1] for cell in self._chan(channel).values())

    def row_bytes(self, channel: str = "data") -> List[int]:
        """Bytes sent by each rank (wire only)."""
        out = [0] * self.n_ranks
        for (src, _dst), (nbytes, _t) in self._chan(channel).items():
            out[src] += nbytes
        return out

    def col_bytes(self, channel: str = "data") -> List[int]:
        """Bytes received by each rank (wire only)."""
        out = [0] * self.n_ranks
        for (_src, dst), (nbytes, _t) in self._chan(channel).items():
            out[dst] += nbytes
        return out

    def as_dense(self, channel: str = "data", *, what: str = "bytes"):
        """Dense ``(n_ranks, n_ranks)`` ndarray of bytes or tuples."""
        import numpy as np

        idx = 0 if what == "bytes" else 1
        out = np.zeros((self.n_ranks, self.n_ranks), dtype=np.int64)
        for (src, dst), cell in self._chan(channel).items():
            out[src, dst] = cell[idx]
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form: entries as ``[src, dst, bytes, tuples]``."""
        out: Dict[str, Any] = {
            "seq": self.seq,
            "kind": self.kind,
            "phase": self.phase,
            "n_ranks": self.n_ranks,
        }
        for channel in CHANNELS:
            out[channel] = [
                [s, d, c[0], c[1]]
                for (s, d), c in sorted(self._chan(channel).items())
            ]
        return out

    @classmethod
    def from_dict(cls, rec: Mapping[str, Any]) -> "CommMatrix":
        m = cls(
            int(rec["seq"]), str(rec["kind"]), str(rec["phase"]),
            int(rec["n_ranks"]),
        )
        for channel in CHANNELS:
            for s, d, nbytes, tuples in rec.get(channel, ()):
                m.add(int(s), int(d), int(nbytes), int(tuples), channel=channel)
        return m


class CommMatrixRecorder:
    """Collects one :class:`CommMatrix` per exchange for a whole run.

    Attached to a :class:`~repro.comm.simcluster.SimCluster` it observes
    every wire message; it never charges anything, so enabling it cannot
    perturb modeled time or results.  Exposed on
    ``FixpointResult.comm_profile``.
    """

    def __init__(self, n_ranks: int):
        self.n_ranks = n_ranks
        self.matrices: List[CommMatrix] = []
        self._open: Optional[CommMatrix] = None

    # --------------------------------------------------------------- capture

    def begin(self, kind: str, phase: str) -> CommMatrix:
        """Open the matrix for one exchange; closes any previous one."""
        m = CommMatrix(len(self.matrices), kind, phase, self.n_ranks)
        self.matrices.append(m)
        self._open = m
        return m

    def record(
        self, src: int, dst: int, nbytes: int, tuples: int,
        *, retransmit: bool = False,
    ) -> None:
        """Record one wire message into the currently open exchange."""
        self._open.add(src, dst, nbytes, tuples, retransmit=retransmit)

    # --------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.matrices)

    def bytes_total(self, channel: str = "data") -> int:
        return sum(m.bytes_total(channel) for m in self.matrices)

    def tuples_total(self, channel: str = "data") -> int:
        return sum(m.tuples_total(channel) for m in self.matrices)

    def bytes_by_kind(self, channel: str = "data") -> Dict[str, int]:
        out: Dict[str, int] = {}
        for m in self.matrices:
            out[m.kind] = out.get(m.kind, 0) + m.bytes_total(channel)
        return out

    def bytes_saved(self) -> int:
        """Wire bytes avoided by the PR 7 layer, over exchanges that
        carried pre-combine accounting (pre-combine − on-wire; negative
        if a codec's framing overhead outgrew its compression)."""
        saved = 0
        for m in self.matrices:
            pre = m.bytes_total("precombine")
            if pre or m.precombine:
                saved += pre - m.bytes_total("data")
        return saved

    def total_matrix(self, channel: str = "data"):
        """Dense run-total rank×rank byte matrix."""
        import numpy as np

        out = np.zeros((self.n_ranks, self.n_ranks), dtype=np.int64)
        for m in self.matrices:
            for (src, dst), (nbytes, _t) in m._chan(channel).items():
                out[src, dst] += nbytes
        return out

    def rank_superstep_bytes(self, channel: str = "data"):
        """``(n_exchanges, n_ranks)`` bytes-sent grid (heatmap input)."""
        import numpy as np

        out = np.zeros((len(self.matrices), self.n_ranks), dtype=np.int64)
        for i, m in enumerate(self.matrices):
            out[i, :] = m.row_bytes(channel)
        return out

    # ----------------------------------------------------- reconciliation

    def reconcile(
        self, ledger_by_kind: Mapping[str, int], *, strict: bool = True
    ) -> Dict[str, Any]:
        """Check matrix totals against the bytes the ledger charged.

        ``ledger_by_kind`` is charged bytes per collective kind: the
        ledger's ``comm.by_kind`` online, :func:`comm_bytes_from_spans`
        offline.  For every captured kind, the primary-channel byte total
        must equal that kind's entry, and the retransmit channel the
        ``retransmit`` entry.  Returns the comparison; raises
        ``ValueError`` on mismatch when ``strict``.
        """
        # Non-fixpoint exchanges record their charged traffic in a kind-
        # specific channel (see KIND_CHANNEL), every other exchange in
        # "data"; the ledger keys all of them by the exchange's kind.
        by_kind: Dict[str, int] = {}
        for m in self.matrices:
            chan = KIND_CHANNEL.get(m.kind, "data")
            by_kind[m.kind] = by_kind.get(m.kind, 0) + m.bytes_total(chan)
        mismatches = {}
        for kind, nbytes in sorted(by_kind.items()):
            expected = ledger_by_kind.get(kind, 0)
            if nbytes != expected:
                mismatches[kind] = {"matrix": nbytes, "ledger": expected}
        retrans = self.bytes_total("retransmit")
        expected_retrans = ledger_by_kind.get("retransmit", 0)
        if retrans != expected_retrans:
            mismatches["retransmit"] = {
                "matrix": retrans, "ledger": expected_retrans,
            }
        report = {
            "kinds": sorted(by_kind),
            "bytes_by_kind": by_kind,
            "retransmit_bytes": retrans,
            "mismatches": mismatches,
            "ok": not mismatches,
        }
        if strict and mismatches:
            raise ValueError(f"comm matrices do not reconcile: {mismatches}")
        return report

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_ranks": self.n_ranks,
            "n_exchanges": len(self.matrices),
            "bytes_total": self.bytes_total("data"),
            "tuples_total": self.tuples_total("data"),
            "retransmit_bytes": self.bytes_total("retransmit"),
            "precombine_bytes": self.bytes_total("precombine"),
            "rebalance_bytes": self.bytes_total("rebalance"),
            "bytes_saved": self.bytes_saved(),
            "bytes_by_kind": self.bytes_by_kind("data"),
            "matrices": [m.to_dict() for m in self.matrices],
        }


def comm_bytes_from_spans(spans: Sequence[Any]) -> Dict[str, int]:
    """Charged bytes per collective kind, rebuilt from the span stream.

    The ledger emits one ``comm`` span per rank per collective, each
    carrying the charge's ``nbytes``; summing rank 0's lane counts every
    charge once, which is the ledger's ``comm.by_kind``.
    """
    out: Dict[str, int] = {}
    for sp in spans:
        if sp.cat == "comm" and sp.rank == 0:
            out[sp.name] = out.get(sp.name, 0) + int(sp.attrs["nbytes"])
    return out


def comm_profile_from_spans(spans: Sequence[Any]) -> Optional[CommMatrixRecorder]:
    """Rebuild a recorder from ``comm_matrix`` instant spans (offline path).

    Returns ``None`` when the trace carries no comm-matrix records (the
    run was traced without ``--diagnostics``).
    """
    matrices = [
        CommMatrix.from_dict(sp.attrs)
        for sp in spans
        if sp.name == "comm_matrix" and sp.attrs.get("kind") is not None
    ]
    if not matrices:
        return None
    rec = CommMatrixRecorder(max(m.n_ranks for m in matrices))
    rec.matrices = sorted(matrices, key=lambda m: m.seq)
    return rec


# ============================================================ critical path


@dataclass
class StepAttribution:
    """One BSP charge on the modeled timeline, attributed to its bound."""

    modeled_start: float
    seconds: float
    #: ``compute`` or ``comm``.
    cat: str
    #: Pipeline phase the charge billed (``local_join``, ``comm``, ...).
    phase: str
    #: Span name (phase name for compute, collective kind for comm).
    name: str
    #: The rank whose work gates this charge (comm charges synchronize
    #: everyone, so the bound is nominal: the lowest participating rank).
    bounding_rank: Optional[int]
    #: max/mean over participating ranks' seconds; 1.0 when synchronized.
    imbalance: float
    #: Fraction of ranks that did no work in this charge.
    idle_fraction: float
    stratum: Optional[int] = None
    iteration: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "modeled_start": self.modeled_start,
            "seconds": self.seconds,
            "cat": self.cat,
            "phase": self.phase,
            "name": self.name,
            "bounding_rank": self.bounding_rank,
            "imbalance": self.imbalance,
            "idle_fraction": self.idle_fraction,
            "stratum": self.stratum,
            "iteration": self.iteration,
        }


@dataclass
class CriticalPathReport:
    """Critical-path decomposition of a run's modeled timeline."""

    steps: List[StepAttribution]
    n_ranks: int
    #: Modeled seconds per phase, summed over the steps each phase gates.
    phase_seconds: Dict[str, float]
    #: Each phase's fraction of total modeled time.
    phase_shares: Dict[str, float]
    #: Per phase, rank → number of steps that rank bounded.
    bounding_counts: Dict[str, Dict[int, int]]
    total_seconds: float

    def validate(self, expected_total: float, rel_tol: float = 1e-6) -> None:
        """Assert step attributions tile the modeled timeline exactly.

        ``expected_total`` is the cost-model total (``PhaseLedger.
        total_seconds()`` online, the max span ``modeled_end`` offline).
        """
        if not math.isclose(
            self.total_seconds, expected_total,
            rel_tol=rel_tol, abs_tol=rel_tol,
        ):
            raise ValueError(
                f"critical path sums to {self.total_seconds!r}, expected "
                f"{expected_total!r} (rel_tol={rel_tol})"
            )
        share_sum = sum(self.phase_shares.values())
        if self.phase_shares and not math.isclose(
            share_sum, 1.0, rel_tol=rel_tol, abs_tol=rel_tol
        ):
            raise ValueError(
                f"phase shares sum to {share_sum!r}, expected 1.0"
            )

    def dominant_phase(self) -> Optional[str]:
        if not self.phase_seconds:
            return None
        return max(self.phase_seconds, key=lambda p: self.phase_seconds[p])

    def bounding_rank_of(self, phase: str) -> Optional[int]:
        """The rank that most often gates the given phase."""
        counts = self.bounding_counts.get(phase)
        if not counts:
            return None
        return max(sorted(counts), key=lambda r: counts[r])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "total_seconds": self.total_seconds,
            "n_ranks": self.n_ranks,
            "phase_seconds": dict(sorted(self.phase_seconds.items())),
            "phase_shares": dict(sorted(self.phase_shares.items())),
            "bounding_counts": {
                p: dict(sorted(c.items()))
                for p, c in sorted(self.bounding_counts.items())
            },
            "n_steps": len(self.steps),
            "dominant_phase": self.dominant_phase(),
        }


def critical_path(
    spans: Sequence[Any], *, n_ranks: Optional[int] = None
) -> CriticalPathReport:
    """Attribute every modeled charge to the rank and phase that gates it.

    Works on live :class:`~repro.obs.tracer.Span` objects or span records
    reloaded from a trace file.  Per-rank lane spans sharing one
    ``modeled_start`` belong to the same ledger charge; within a charge
    the modeled cost is the max over ranks (BSP), so the longest lane
    entry *is* the critical path through that charge.
    """
    lanes = [
        sp for sp in spans
        if sp.rank is not None and sp.cat in ("compute", "comm")
    ]
    if n_ranks is None:
        n_ranks = max((sp.rank for sp in lanes), default=-1) + 1
    groups: Dict[Tuple[float, str, str], List[Any]] = {}
    for sp in lanes:
        # One ledger charge = one (start, cat, name) cohort; comm charges
        # at a zero-duration boundary cannot collide with compute ones.
        groups.setdefault((sp.modeled_start, sp.cat, sp.name), []).append(sp)
    steps: List[StepAttribution] = []
    for (start, cat, name), cohort in sorted(groups.items()):
        durations = [
            (sp.modeled_end - sp.modeled_start, sp.rank) for sp in cohort
        ]
        seconds, bounding_rank = max(durations)
        # min-rank tiebreak keeps attribution deterministic.
        bounding_rank = min(r for d, r in durations if d == seconds)
        phase = cat == "comm" and cohort[0].attrs.get("phase") or name
        active = [d for d, _r in durations if d > 0]
        mean = sum(active) / n_ranks if n_ranks else 0.0
        imbalance = (seconds / mean) if mean > 0 else 1.0
        idle = 1.0 - len(active) / n_ranks if n_ranks else 0.0
        stratum = cohort[0].stratum
        iteration = cohort[0].iteration
        steps.append(
            StepAttribution(
                modeled_start=start,
                seconds=seconds,
                cat=cat,
                phase=str(phase),
                name=name,
                bounding_rank=bounding_rank if seconds > 0 else None,
                imbalance=imbalance,
                idle_fraction=idle,
                stratum=stratum,
                iteration=iteration,
            )
        )
    phase_seconds: Dict[str, float] = {}
    bounding: Dict[str, Dict[int, int]] = {}
    for step in steps:
        phase_seconds[step.phase] = (
            phase_seconds.get(step.phase, 0.0) + step.seconds
        )
        if step.bounding_rank is not None:
            per = bounding.setdefault(step.phase, {})
            per[step.bounding_rank] = per.get(step.bounding_rank, 0) + 1
    total = sum(phase_seconds.values())
    shares = (
        {p: s / total for p, s in phase_seconds.items()} if total > 0 else {}
    )
    return CriticalPathReport(
        steps=steps,
        n_ranks=n_ranks,
        phase_seconds=phase_seconds,
        phase_shares=shares,
        bounding_counts=bounding,
        total_seconds=total,
    )


# ============================================================== skew doctor


@dataclass
class Diagnosis:
    """One structured finding with an actionable recommendation."""

    code: str
    severity: str  # "info" | "warn"
    message: str
    recommendation: str
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "recommendation": self.recommendation,
            "data": self.data,
        }

    def render(self) -> str:
        tag = "!" if self.severity == "warn" else "·"
        return f"{tag} [{self.code}] {self.message}\n    ↳ {self.recommendation}"


def gini(values: Iterable[float]) -> float:
    """Gini coefficient of a non-negative sample (0 = even, →1 = skewed)."""
    vals = sorted(float(v) for v in values)
    n = len(vals)
    total = sum(vals)
    if n == 0 or total <= 0:
        return 0.0
    # Mean absolute difference formulation over the sorted sample.
    cum = 0.0
    for i, v in enumerate(vals, start=1):
        cum += i * v
    return (2.0 * cum) / (n * total) - (n + 1.0) / n


def measure_bucket_skew(rel) -> Optional[Dict[str, Any]]:
    """Bucket-occupancy skew of one relation: its full rows per non-empty
    bucket, summarized (order-independent); None when it is empty."""
    import numpy as np

    by_bucket = np.bincount(rel.table.stored()[1] // rel.schema.n_subbuckets)
    sizes = by_bucket[by_bucket > 0].tolist()
    total = sum(sizes)
    if total <= 0:
        return None
    return {
        "tuples": total,
        "buckets": len(sizes),
        "gini_buckets": gini(sizes),
        "top_bucket_share": max(sizes) / total,
    }


def _vote_flips(spans: Sequence[Any]) -> Tuple[Dict[str, int], int]:
    """Per-rule outer-side flip counts from ``iteration_summary`` spans."""
    last: Dict[str, str] = {}
    flips: Dict[str, int] = {}
    n_iters = 0
    for sp in sorted(
        (s for s in spans if s.name == "iteration_summary"),
        key=lambda s: (s.stratum or 0, s.iteration or 0),
    ):
        n_iters += 1
        for rule, side in (sp.attrs.get("outer_choices") or {}).items():
            prev = last.get(rule)
            if prev is not None and prev != side:
                flips[rule] = flips.get(rule, 0) + 1
            last[rule] = side
    return flips, n_iters


@dataclass
class SkewReport:
    """The skew doctor's full findings for one run."""

    diagnoses: List[Diagnosis]
    #: Per-superstep (charge) imbalance factors along the critical path.
    step_imbalance: List[Dict[str, Any]]
    #: Per-relation placement stats (only when relations were available).
    relation_skew: Dict[str, Dict[str, Any]]
    vote_flips: Dict[str, int]

    @property
    def warnings(self) -> List[Diagnosis]:
        return [d for d in self.diagnoses if d.severity == "warn"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "diagnoses": [d.to_dict() for d in self.diagnoses],
            "n_warnings": len(self.warnings),
            "step_imbalance": self.step_imbalance,
            "relation_skew": self.relation_skew,
            "vote_flips": dict(sorted(self.vote_flips.items())),
        }

    def render(self) -> str:
        if not self.diagnoses:
            return "skew doctor: no findings — load looks healthy"
        lines = [f"skew doctor: {len(self.diagnoses)} finding(s), "
                 f"{len(self.warnings)} warning(s)"]
        for d in self.diagnoses:
            lines.append(d.render())
        return "\n".join(lines)


def diagnose_skew(
    spans: Sequence[Any],
    *,
    n_ranks: Optional[int] = None,
    relations: Optional[Mapping[str, Any]] = None,
    comm_profile: Optional[CommMatrixRecorder] = None,
    imbalance_threshold: float = 2.0,
    starvation_threshold: float = 0.5,
    top_bucket_threshold: float = 0.25,
    flip_threshold: int = 4,
) -> SkewReport:
    """Run every skew check and emit structured diagnoses.

    ``relations`` (name → ``VersionedRelation``) unlocks bucket-level
    placement analysis; offline trace-report runs without it.
    """
    cp = critical_path(spans, n_ranks=n_ranks)
    n_ranks = cp.n_ranks
    diagnoses: List[Diagnosis] = []

    # ---- per-superstep compute imbalance + starvation -------------------
    step_imbalance: List[Dict[str, Any]] = []
    worst_by_phase: Dict[str, StepAttribution] = {}
    starved = 0
    for step in cp.steps:
        if step.cat != "compute" or step.seconds <= 0:
            continue
        step_imbalance.append({
            "phase": step.phase,
            "stratum": step.stratum,
            "iteration": step.iteration,
            "seconds": step.seconds,
            "imbalance": step.imbalance,
            "idle_fraction": step.idle_fraction,
            "bounding_rank": step.bounding_rank,
        })
        if step.idle_fraction >= starvation_threshold:
            starved += 1
        prev = worst_by_phase.get(step.phase)
        if prev is None or step.imbalance > prev.imbalance:
            worst_by_phase[step.phase] = step
    for phase, step in sorted(worst_by_phase.items()):
        if step.imbalance < imbalance_threshold:
            continue
        where = (
            f"stratum {step.stratum} iteration {step.iteration}"
            if step.iteration is not None
            else "seed pass"
        )
        diagnoses.append(Diagnosis(
            code="compute-imbalance",
            severity="warn",
            message=(
                f"phase {phase!r} ({where}) is bounded by rank "
                f"{step.bounding_rank}: max/mean compute {step.imbalance:.2f}x"
            ),
            recommendation=(
                "increase sub-buckets for the relation feeding this phase "
                "(EngineConfig.subbuckets) or enable auto_balance"
            ),
            data={
                "phase": phase,
                "imbalance": step.imbalance,
                "bounding_rank": step.bounding_rank,
                "stratum": step.stratum,
                "iteration": step.iteration,
            },
        ))
    n_compute = len(step_imbalance)
    if n_compute and starved / n_compute >= 0.25:
        diagnoses.append(Diagnosis(
            code="delta-starvation",
            severity="warn",
            message=(
                f"{starved}/{n_compute} compute supersteps left ≥"
                f"{starvation_threshold:.0%} of ranks idle"
            ),
            recommendation=(
                "Δ is concentrating on few ranks — re-key the recursive "
                "relation or raise its sub-bucket count so deltas spread"
            ),
            data={"starved_steps": starved, "compute_steps": n_compute},
        ))

    # ---- relation placement skew ----------------------------------------
    relation_skew: Dict[str, Dict[str, Any]] = {}
    if relations:
        for name in sorted(relations):
            rel = relations[name]
            stats = measure_bucket_skew(rel)
            if stats is None:
                continue
            by_rank = rel.sizes_by_rank()
            mean_rank = float(by_rank.mean())
            stats["rank_imbalance"] = (
                float(by_rank.max()) / mean_rank if mean_rank > 0 else 1.0
            )
            stats["subbuckets"] = rel.schema.n_subbuckets
            relation_skew[name] = stats
            share = stats["top_bucket_share"]
            if share >= top_bucket_threshold and stats["buckets"] > 1:
                diagnoses.append(Diagnosis(
                    code="bucket-skew",
                    severity="warn",
                    message=(
                        f"sub-bucket relation {name!r}: top bucket holds "
                        f"{share:.0%} of {stats['tuples']} tuples "
                        f"(Gini {stats['gini_buckets']:.2f})"
                    ),
                    recommendation=(
                        f"raise subbuckets[{name!r}] above "
                        f"{rel.schema.n_subbuckets} to split the hot bucket "
                        "across more ranks (§IV-C)"
                    ),
                    data={"relation": name, **stats},
                ))

    # ---- join-vote oscillation ------------------------------------------
    flips, n_iters = _vote_flips(spans)
    for rule, n_flips in sorted(flips.items()):
        if n_flips < flip_threshold:
            continue
        diagnoses.append(Diagnosis(
            code="vote-oscillation",
            severity="info",
            message=(
                f"join vote flipped {n_flips}× in {n_iters} supersteps "
                f"for {rule}"
            ),
            recommendation=(
                "the relation sizes straddle the vote boundary; consider "
                "static_outer or vote hysteresis to avoid re-planning churn"
            ),
            data={"rule": rule, "flips": n_flips, "iterations": n_iters},
        ))

    # ---- comm-matrix hotspots -------------------------------------------
    if comm_profile is not None and len(comm_profile):
        total_mat = comm_profile.total_matrix("data")
        sent = total_mat.sum(axis=1)
        total_bytes = int(sent.sum())
        if total_bytes > 0 and comm_profile.n_ranks > 1:
            hot = int(sent.argmax())
            share = float(sent[hot]) / total_bytes
            if share >= max(
                top_bucket_threshold, 2.0 / comm_profile.n_ranks
            ):
                diagnoses.append(Diagnosis(
                    code="comm-hotspot",
                    severity="warn",
                    message=(
                        f"rank {hot} sends {share:.0%} of all exchanged "
                        f"bytes ({int(sent[hot])} of {total_bytes})"
                    ),
                    recommendation=(
                        "the sender-side partition is skewed; rebalance the "
                        "outer relation or sub-bucket its join key"
                    ),
                    data={
                        "rank": hot,
                        "share": share,
                        "bytes": int(sent[hot]),
                    },
                ))
        retrans = comm_profile.bytes_total("retransmit")
        if retrans:
            diagnoses.append(Diagnosis(
                code="retransmit-traffic",
                severity="info",
                message=(
                    f"{retrans} bytes retransmitted for fault recovery "
                    "(tagged channel; excluded from algorithmic traffic)"
                ),
                recommendation=(
                    "expected under fault injection; investigate if seen "
                    "on a healthy network"
                ),
                data={"retransmit_bytes": retrans},
            ))

    return SkewReport(
        diagnoses=diagnoses,
        step_imbalance=step_imbalance,
        relation_skew=relation_skew,
        vote_flips=flips,
    )


# ================================================================= exports


def collapsed_stacks(spans: Sequence[Any]) -> List[str]:
    """Critical-path flamegraph in collapsed-stack format.

    One line per charge: ``stratum N;iteration I;PHASE;NAME WEIGHT`` with
    the weight in integer modeled microseconds — feed to ``flamegraph.pl``
    or speedscope.  The stacks sum to total modeled time, so the flame's
    width *is* the modeled critical path.
    """
    cp = critical_path(spans)
    totals: Dict[str, int] = {}
    for step in cp.steps:
        stratum = "stratum ?" if step.stratum is None else f"stratum {step.stratum}"
        iteration = (
            "seed" if step.iteration is None else f"iteration {step.iteration}"
        )
        frames = [stratum, iteration, step.phase]
        if step.name != step.phase:
            frames.append(step.name)
        stack = ";".join(frames)
        totals[stack] = totals.get(stack, 0) + int(round(step.seconds * 1e6))
    return [f"{stack} {weight}" for stack, weight in sorted(totals.items())]


def write_flamegraph(path: str, spans: Sequence[Any]) -> int:
    """Write collapsed stacks to ``path``; returns the number of lines."""
    lines = collapsed_stacks(spans)
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    return len(lines)


def render_comm_heatmap(
    profile: CommMatrixRecorder, *, channel: str = "data", width: int = 64
) -> str:
    """Rank×superstep bytes-sent heatmap via the shared ASCII renderer."""
    from repro.metrics.asciiplot import ascii_heatmap

    grid = profile.rank_superstep_bytes(channel)
    return ascii_heatmap(
        grid.T,
        title=f"bytes sent per rank per exchange [{channel}]",
        x_label="exchange (superstep order)",
        y_label="rank",
        width=width,
    )


def render_compute_heatmap(
    spans: Sequence[Any], *, width: int = 64
) -> str:
    """Rank×superstep compute-seconds heatmap from the span lanes."""
    import numpy as np

    from repro.metrics.asciiplot import ascii_heatmap

    cp = critical_path(spans)
    compute_steps = [s for s in cp.steps if s.cat == "compute"]
    if not compute_steps:
        return "(no compute supersteps recorded)"
    starts = {s.modeled_start: i for i, s in enumerate(compute_steps)}
    grid = np.zeros((cp.n_ranks, len(compute_steps)))
    for sp in spans:
        if sp.rank is None or sp.cat != "compute":
            continue
        col = starts.get(sp.modeled_start)
        if col is not None:
            grid[sp.rank, col] += sp.modeled_end - sp.modeled_start
    return ascii_heatmap(
        grid,
        title="compute seconds per rank per superstep",
        x_label="compute superstep",
        y_label="rank",
        width=width,
    )


# ========================================================== full diagnosis


@dataclass
class DiagnosticsReport:
    """Everything the diagnostics plane knows about one run."""

    critical_path: CriticalPathReport
    skew: SkewReport
    comm_profile: Optional[CommMatrixRecorder] = None
    reconciliation: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "critical_path": self.critical_path.to_dict(),
            "skew": self.skew.to_dict(),
        }
        if self.comm_profile is not None:
            prof = self.comm_profile.to_dict()
            prof.pop("matrices", None)  # summary only; full grids are huge
            out["comm_profile"] = prof
        if self.reconciliation is not None:
            out["reconciliation"] = self.reconciliation
        return out

    def render(self) -> str:
        cp = self.critical_path
        lines = ["critical path (modeled):"]
        if not cp.steps:
            lines.append(
                "  needs a tracer: it is read off the per-rank span lanes "
                "(--trace, or EngineConfig.diagnostics.tracer)"
            )
        else:
            lines.append(
                f"  {'phase':14s} {'seconds':>12s} {'share':>7s} "
                f"{'bounding rank':>14s}"
            )
            for phase in sorted(
                cp.phase_seconds, key=lambda p: -cp.phase_seconds[p]
            ):
                rank = cp.bounding_rank_of(phase)
                rank_s = "-" if rank is None else str(rank)
                lines.append(
                    f"  {phase:14s} {cp.phase_seconds[phase]:12.6f} "
                    f"{cp.phase_shares.get(phase, 0.0):6.1%} {rank_s:>14s}"
                )
            lines.append(f"  {'total':14s} {cp.total_seconds:12.6f} {1:6.1%}")
        if self.comm_profile is not None:
            p = self.comm_profile
            lines.append(
                f"comm matrices: {len(p)} exchange(s), "
                f"{p.bytes_total('data')} data bytes / "
                f"{p.tuples_total('data')} tuples, "
                f"{p.bytes_total('retransmit')} retransmit bytes"
            )
            pre = p.bytes_total("precombine")
            if pre:
                saved = p.bytes_saved()
                pct = 100.0 * saved / pre if pre else 0.0
                lines.append(
                    f"  wire layer: {pre} pre-combine bytes -> "
                    f"{pre - saved} on-wire, {saved} saved ({pct:.1f}%)"
                )
            if self.reconciliation is not None:
                ok = "reconciled" if self.reconciliation["ok"] else "MISMATCH"
                lines.append(f"  ledger reconciliation: {ok}")
        lines.append(self.skew.render())
        return "\n".join(lines)


def diagnose(
    spans: Sequence[Any],
    *,
    n_ranks: Optional[int] = None,
    relations: Optional[Mapping[str, Any]] = None,
    comm_profile: Optional[CommMatrixRecorder] = None,
    comm_bytes_by_kind: Optional[Mapping[str, int]] = None,
    expected_total: Optional[float] = None,
    rel_tol: float = 1e-6,
) -> DiagnosticsReport:
    """One-call diagnostics: critical path + skew doctor + reconciliation.

    Online callers pass ``relations`` and the ledger's
    ``comm_bytes_by_kind`` from the ``FixpointResult``; offline callers
    (trace-report) pass only the spans, and the matrices and charged
    bytes are rebuilt from them.  The critical path, and its check
    against ``expected_total``, needs the per-rank span lanes of a traced
    run; the skew doctor and the reconciliation do not.
    """
    if comm_profile is None:
        comm_profile = comm_profile_from_spans(spans)
    cp = critical_path(spans, n_ranks=n_ranks)
    if expected_total is not None and cp.steps:
        cp.validate(expected_total, rel_tol=rel_tol)
    skew = diagnose_skew(
        spans,
        n_ranks=n_ranks,
        relations=relations,
        comm_profile=comm_profile,
    )
    reconciliation = None
    if comm_profile is not None:
        if comm_bytes_by_kind is None:
            comm_bytes_by_kind = comm_bytes_from_spans(spans)
        reconciliation = comm_profile.reconcile(comm_bytes_by_kind, strict=False)
    return DiagnosticsReport(
        critical_path=cp,
        skew=skew,
        comm_profile=comm_profile,
        reconciliation=reconciliation,
    )
