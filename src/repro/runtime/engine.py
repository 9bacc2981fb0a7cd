"""The distributed semi-naïve fixpoint engine (paper Fig. 1's pipeline).

Each iteration of a recursive stratum executes, per rule:

1. **vote** — dynamic join planning (Algorithm 1): one-word allreduce
   choosing the smaller side as the *outer* (transmitted) relation;
2. **intra-bucket comm** — the outer side is serialized and sent to every
   sub-bucket rank of the matching inner bucket (``MPI_Alltoallv``);
3. **local join** — each rank probes its inner shards' nested index with
   the received outer tuples and emits head tuples;
4. **all-to-all** — emitted tuples are routed to their home rank by the
   head relation's double-hash placement;
5. **fused dedup / local aggregation** — the receiving rank absorbs each
   tuple into the accumulator store; only improvements enter Δ.

A final allreduce of Δ sizes decides termination.  All compute is charged
to the :class:`~repro.comm.ledger.PhaseLedger` per rank per superstep, so
modeled time exposes imbalance exactly as real ranks would.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.comm.costmodel import BYTES_PER_WORD, CommEvent
from repro.comm.simcluster import SimCluster
from repro.core.join_planner import JoinSide, vote_outer_relation
from repro.core.local_agg import AbsorbStats
from repro.faults import checkpoint as ckpt_mod
from repro.faults.checkpoint import (
    DegradedStats,
    RecoveryStats,
    StratumCheckpoint,
    replica_buddies,
)
from repro.faults.invariants import accumulator_map, monotonicity_audit
from repro.faults.plane import (
    FaultPlane,
    PermanentRankFailure,
    RankFailure,
    UnrecoverableRankLoss,
)
from repro.comm.wire import encoded_nbytes
from repro.core.balancer import recommend_subbuckets
from repro.kernels.absorb import vector_combiner
from repro.kernels.block import lex_group
from repro.kernels.route import decode_wire_boxes, encode_boxes, encode_wire_sends
from repro.obs.tracer import NULL_TRACER
from repro.planner.ast import Program
from repro.planner.compile_rules import CompiledProgram, CompiledRule, compile_program
from repro.planner.stratify import Stratum
from repro.relational.storage import RelationStore, VersionedRelation
from repro.runtime.config import EngineConfig
from repro.runtime.executor import EXECUTORS
from repro.runtime.result import FixpointResult, IterationTrace
from repro.util.hashing import HashSeed, hash_columns
from repro.util.timing import PhaseTimer

TupleT = Tuple[int, ...]

# Phase names (paper Fig. 2's breakdown).
P_VOTE = "vote"
P_INTRA = "intra_bucket"
P_JOIN = "local_join"
P_COMM = "comm"
P_DEDUP = "dedup_agg"
P_OTHER = "other"
#: Incremental maintenance (PR 10): routing an EDB update batch to its
#: home shards and installing downstream change-set Δs.
P_SEED = "incremental_seed"

PHASES = (P_VOTE, P_INTRA, P_JOIN, P_COMM, P_DEDUP, P_OTHER, P_SEED)


class Engine:
    """Evaluates one compiled program on a simulated cluster."""

    def __init__(self, program: Program, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self.tracer = self.config.tracer if self.config.tracer is not None else NULL_TRACER
        self.compiled: CompiledProgram = compile_program(
            program,
            subbuckets=self.config.subbuckets,
            default_subbuckets=self.config.default_subbuckets,
        )
        #: Deterministic fault injector (None = perfect network).
        self.fault_plane: Optional[FaultPlane] = (
            FaultPlane(self.config.faults, self.config.n_ranks)
            if self.config.faults is not None
            else None
        )
        #: Diagnostics plane: rank×rank traffic capture (observation only;
        #: results and ledger charges are bit-identical either way).
        self.comm_recorder = None
        if self.config.diagnostics:
            from repro.obs.analysis import CommMatrixRecorder

            self.comm_recorder = CommMatrixRecorder(self.config.n_ranks)
        self.cluster = SimCluster(
            self.config.n_ranks,
            self.config.cost_model,
            reorder_seed=self.config.reorder_messages_seed,
            tracer=self.tracer,
            fault_plane=self.fault_plane,
            comm_recorder=self.comm_recorder,
        )
        #: Fault/checkpoint/recovery accounting, exposed on the result.
        self.recovery: Optional[RecoveryStats] = (
            RecoveryStats()
            if self.fault_plane is not None
            or self.config.checkpoint_every is not None
            else None
        )
        #: Ranks permanently excluded from the world (elastic degraded
        #: mode, PR 9) and its accounting; the set grows once per
        #: permanent loss and every later checkpoint/replica ring is
        #: computed over the survivors.
        self.dead_ranks: set = set()
        self.degraded: Optional[DegradedStats] = None
        # Lattice monotonicity audit: only worth paying for when injected
        # corruption could actually reach an absorb.
        self._audit = (
            self.config.faults is not None
            and self.config.faults.audit_monotonicity
            and self.config.faults.has_message_faults
        )
        #: Effective executor and why: the columnar kernels opt out when
        #: the program needs features they don't cover (B-tree shards,
        #: head operators with no array form) — reported on the result,
        #: never silent.  Aggregators without a vector combiner fall back
        #: per shard, not per engine.
        self.executor, self.executor_reason = self._resolve_executor()
        #: The tuple representation's data plane (chosen once, here).
        self._exec = EXECUTORS[self.executor]()
        self.store = RelationStore(
            self.config.n_ranks,
            seed=HashSeed().derive(self.config.seed),
            use_btree=self.config.use_btree,
            layout=self.executor,
        )
        for schema in self.compiled.schemas.values():
            self.store.declare(schema)
        self.timer = PhaseTimer(tracer=self.tracer)
        self.counters: Dict[str, int] = defaultdict(int)
        self.trace: List[IterationTrace] = []
        self._iterations = 0
        # Re-entrant result building (incremental updates rebuild the
        # result after every batch): last-folded counter values and the
        # count of comm matrices already embedded in the trace stream.
        self._metric_counter_base: Dict[str, int] = {}
        self._embedded_matrices = 0
        #: Wire layer (PR 7): per-head-relation (combiner, can_combine)
        #: plan for sender-side folding; resolved lazily per relation.
        self.wire = self.config.wire
        self._wire_plans: Dict[str, Tuple[object, bool]] = {}
        #: Online adaptive spatial rebalancing (PR 8): periodically grows
        #: skewed relations' sub-bucket counts mid-fixpoint.  None when
        #: ``EngineConfig.rebalance`` is off.
        self.rebalancer = None
        if self.config.rebalance:
            from repro.runtime.rebalance import RebalanceManager

            self.rebalancer = RebalanceManager(self.config)

    def _wire_plan(self, head_name: str) -> Tuple[object, bool]:
        """Sender-combining plan for one head relation.

        Plain relations fold by deduplication (no combiner needed);
        aggregates fold only when their vector combiner exists and is
        marked ``combinable`` (sender folding provably commutes with
        receiver absorption).  Everything else ships verbatim — the
        codec still applies.
        """
        plan = self._wire_plans.get(head_name)
        if plan is None:
            schema = self.compiled.schemas[head_name]
            if not schema.is_aggregate:
                plan = (None, True)
            else:
                comb = vector_combiner(schema.aggregator)
                if comb is not None and comb.combinable:
                    plan = (comb, True)
                else:
                    plan = (None, False)
            self._wire_plans[head_name] = plan
        return plan

    def _resolve_executor(self) -> Tuple[str, str]:
        """(executor name, reason): ``"requested"``, ``"use_btree"``, or
        the first rule whose head has no array form."""
        if self.config.executor == "scalar":
            return "scalar", "requested"
        if self.config.use_btree:
            return "scalar", "use_btree"
        for cr in self.compiled.compiled.values():
            if cr.emit_spec is None or not cr.emit_spec.vectorizable:
                return "scalar", f"rule {cr.rule!r} has no vectorizable emit"
        return "columnar", "requested"

    # ------------------------------------------------------------------ load

    def load(self, name: str, tuples: Iterable[TupleT]) -> int:
        """Load facts into a relation (EDB input, or IDB warm start)."""
        if name not in self.store:
            raise KeyError(
                f"unknown relation {name!r}; declared: "
                f"{sorted(self.compiled.schemas)}"
            )
        rel = self.store[name]
        stats = AbsorbStats()
        with self.timer.phase("load"):
            admitted = rel.load(tuples, stats=stats)
            rel.advance()
        self.counters["loaded"] += admitted
        return admitted

    # --------------------------------------------------------------- balance

    def auto_balance(
        self,
        name: str,
        *,
        tolerance: float = 2.0,
        max_subbuckets: int = 16,
    ) -> int:
        """Adaptively sub-bucket a loaded relation (paper §IV-C's rule:
        "if the data size on each process is still imbalanced, the
        imbalanced relation will be logically divided into sub-buckets").

        Measures the relation's projected imbalance, grows the sub-bucket
        count until max/mean ≤ ``tolerance`` (or the cap), and physically
        redistributes the tuples — charging the redistribution alltoallv
        to the ``balance`` phase, as the real system would pay it.

        Returns the chosen sub-bucket count.
        """
        rel = self.store[name]
        tuples = list(rel.iter_full())
        if not tuples:
            return rel.schema.n_subbuckets
        n_sub, _report = recommend_subbuckets(
            tuples,
            rel.schema,
            self.config.n_ranks,
            tolerance=tolerance,
            max_subbuckets=max_subbuckets,
            seed=rel.dist.seed,
        )
        if n_sub == rel.schema.n_subbuckets:
            return n_sub
        new_schema = dataclasses.replace(rel.schema, n_subbuckets=n_sub)
        new_rel = VersionedRelation(
            new_schema,
            self.config.n_ranks,
            seed=rel.dist.seed,
            use_btree=self.config.use_btree,
            layout=self.executor,
        )
        self._exec.invalidate()
        # Physically move every tuple whose owner changes (phase: balance).
        sends: Dict[int, Dict[int, List[TupleT]]] = {}
        rows = np.asarray(tuples, dtype=np.int64)
        old_owners = rel.dist.rank_of_rows(rows).tolist()
        new_owners = new_rel.dist.rank_of_rows(rows).tolist()
        for t, src, dst in zip(tuples, old_owners, new_owners):
            sends.setdefault(src, {}).setdefault(dst, []).append(t)
        self.cluster.alltoallv(sends, arity=rel.schema.arity, phase="balance")
        new_rel.load(tuples)
        new_rel.advance()
        self.store.relations[name] = new_rel
        self.compiled.schemas[name] = new_schema
        return n_sub

    # ------------------------------------------------------------------- run

    def run(self) -> FixpointResult:
        """Evaluate all strata to fixpoint and return the result."""
        with self.tracer.span(
            "run",
            cat="run",
            attrs={
                "n_ranks": self.config.n_ranks,
                "executor": self.executor,
                "executor_reason": self.executor_reason,
            },
        ):
            if self.config.auto_balance is not None:
                for decl in self.compiled.program.edb:
                    if self.store[decl.name].full_size():
                        with self.tracer.span(
                            "auto_balance", cat="phase",
                            attrs={"relation": decl.name},
                        ):
                            self.auto_balance(
                                decl.name, tolerance=self.config.auto_balance
                            )
            for stratum in self.compiled.strata:
                self._run_stratum(stratum)
        return self._build_result()

    def _build_result(self) -> FixpointResult:
        """Assemble a :class:`FixpointResult` from the engine's live state.

        Called at the end of :meth:`run` and again after every
        incremental update (:mod:`repro.runtime.incremental`), so it must
        be safe to invoke repeatedly — metric counters are folded
        incrementally and gauges overwritten.
        """
        if self.recovery is not None and self.fault_plane is not None:
            self.recovery.injected = self.fault_plane.stats
        self._finalize_metrics()
        if self.comm_recorder is not None and self.tracer.enabled:
            # Embed the matrices in the span stream so trace-report can
            # rebuild the comm profile offline from the trace file alone.
            for matrix in self.comm_recorder.matrices[self._embedded_matrices:]:
                self.tracer.instant(
                    "comm_matrix", cat="diagnostics", attrs=matrix.to_dict()
                )
            self._embedded_matrices = len(self.comm_recorder.matrices)
        return FixpointResult(
            relations=dict(self.store.relations),
            iterations=self._iterations,
            ledger=self.cluster.ledger,
            timer=self.timer,
            trace=self.trace,
            counters=dict(self.counters),
            spans=self.tracer.spans,
            metrics=self.tracer.metrics,
            recovery=self.recovery,
            degraded=self.degraded,
            comm_profile=self.comm_recorder,
            rebalance=(
                [e.to_dict() for e in self.rebalancer.events]
                if self.rebalancer is not None
                else None
            ),
            executor=self.executor,
            executor_requested=self.config.executor,
            executor_reason=self.executor_reason,
        )

    def _finalize_metrics(self) -> None:
        """Fold run-level aggregates into the metrics registry.

        Re-entrant: tuple counters fold only their growth since the last
        call (updates re-finalize after each batch); gauges overwrite and
        histograms take a fresh snapshot sample per call.
        """
        if not self.tracer.enabled:
            return
        metrics = self.tracer.metrics
        for name, value in self.counters.items():
            if name.startswith("wire_"):
                metrics.gauge(name).set(value)
            else:
                grown = value - self._metric_counter_base.get(name, 0)
                if grown > 0:
                    metrics.counter(f"tuples/{name}").inc(grown)
                self._metric_counter_base[name] = value
        metrics.gauge("iterations").set(self._iterations)
        if self.wire.enabled:
            saved = (
                self.counters["wire_precombine_bytes"]
                - self.counters["wire_on_wire_bytes"]
            )
            metrics.gauge("wire_bytes_saved").set(saved)
            metrics.gauge("wire_collective_saved_seconds").set(
                self.cluster.collective_saved_seconds
            )
        ledger = self.cluster.ledger
        metrics.gauge("imbalance_ratio").set(ledger.imbalance_ratio())
        metrics.gauge("modeled_seconds").set(ledger.total_seconds())
        metrics.gauge("wall_seconds").set(self.timer.total())
        metrics.histogram("rank_compute_seconds").observe_many(
            ledger.rank_compute.tolist()
        )
        for name, rel in self.store.relations.items():
            metrics.histogram("relation_tuples_by_rank").observe_many(
                float(v) for v in rel.full_sizes_by_rank()
            )
            metrics.gauge(f"relation_tuples/{name}").set(rel.full_size())
        if self.recovery is not None:
            for key, value in self.recovery.as_dict().items():
                if isinstance(value, dict):
                    for sub, v in value.items():
                        metrics.gauge(f"faults/{key}/{sub}").set(float(v))
                else:
                    metrics.gauge(f"faults/{key}").set(float(value))

    def relation(self, name: str) -> VersionedRelation:
        return self.store[name]

    def explain(self) -> str:
        """Human-readable evaluation plan: strata, schemas, join kernels.

        The declarative-engine equivalent of ``EXPLAIN``: shows how each
        relation is placed (join columns = bucket key, sub-buckets,
        dependent columns and their aggregator) and how each rule executes
        (probe direction candidates, static or voted layout).
        """
        lines = [f"plan for {len(self.compiled.program.rules)} rule(s) on "
                 f"{self.config.n_ranks} rank(s)"]
        lines.append("relations:")
        for name in sorted(self.compiled.schemas):
            s = self.compiled.schemas[name]
            agg = f", {s.aggregator.name} over cols {s.dep_cols}" if s.is_aggregate else ""
            lines.append(
                f"  {name}(arity={s.arity}) bucket=hash(cols {s.join_cols})"
                f" subbuckets={s.n_subbuckets}{agg}"
            )
        for stratum in self.compiled.strata:
            kind = "recursive" if stratum.recursive else "single-pass"
            lines.append(f"stratum {stratum.index} [{kind}]: "
                         f"{', '.join(stratum.relations)}")
            for cr in self.compiled.rules_of(stratum):
                lines.append(f"  {cr.rule!r}")
                if cr.is_join:
                    layout = (
                        "outer chosen per iteration by Algorithm-1 vote"
                        if self.config.dynamic_join
                        else f"static outer = {self.config.static_outer}"
                    )
                    lines.append(
                        f"    join keys: left cols {cr.left_key_cols} ≡ "
                        f"right cols {cr.right_key_cols}; {layout}"
                    )
        return "\n".join(lines)

    # ----------------------------------------------------------- stratum loop

    def _run_stratum(self, stratum: Stratum) -> None:
        """Cold start: the loop's first pass is the naive seed pass."""
        with self.tracer.span(
            "stratum",
            cat="stratum",
            stratum=stratum.index,
            attrs={
                "relations": sorted(stratum.relations),
                "recursive": stratum.recursive,
            },
        ):
            self._stratum_loop(
                stratum, [(cr, None) for cr in self.compiled.rules_of(stratum)]
            )

    def _stratum_loop(
        self,
        stratum: Stratum,
        first_pass: List[Tuple[CompiledRule, Optional[int]]],
    ) -> None:
        """One stratum's fixpoint loop, with checkpoint/rollback recovery.

        ``first_pass`` lists the ``(rule, delta_atom)`` directions that
        iteration 0 evaluates, and is the only thing that tells a cold
        start from an incremental update: cold is ``(rule, None)`` for
        every rule — the naive seed pass, all body atoms reading the full
        version, the whole job for a non-recursive stratum — and an
        update is ``(rule, i)`` for every body position whose relation
        has a pending Δ (:mod:`repro.runtime.incremental`).  Every later
        iteration evaluates each rule once per recursive body atom.

        ``iteration == -1`` means the first pass has not run yet;
        afterwards ``iteration`` is the last *fully absorbed* iteration.
        A :class:`~repro.faults.plane.RankFailure` raised anywhere inside
        an iteration rolls the stratum back to the last checkpoint and
        replays — re-absorbed tuples are lattice no-ops, so the replayed
        run is bit-for-bit the run that would have happened without the
        failure (verified in the chaos tests).
        """
        update = any(atom is not None for _, atom in first_pass)
        update_attrs = {"update_pass": True} if update else None
        semi_naive = [
            (cr, i)
            for cr in self.compiled.rules_of(stratum)
            for i, rel_name in enumerate(cr.body_names)
            if rel_name in stratum.relations
        ]
        every = self.config.checkpoint_every
        ckpt: Optional[StratumCheckpoint] = (
            self._take_checkpoint(stratum, -1, changed=True)
            if every is not None
            else None
        )
        iteration = -1
        changed = True
        while True:
            try:
                if iteration < 0:
                    if self.rebalancer is not None:
                        # First skew check before the first pass: the EDBs
                        # are fully loaded and a hot bucket is already
                        # visible, so resizing here spares the seed
                        # pass's own joins the skew (CC-style programs
                        # scan the whole edge relation there).  Inside
                        # the try: a crash mid-exchange rolls back to the
                        # pre-loop checkpoint and replays the decision.
                        self.rebalancer.maybe_rebalance(self, stratum, -1)
                    number, directions, attrs = 0, first_pass, update_attrs
                elif not changed or iteration >= self.config.max_iterations:
                    break
                else:
                    # Counted before it runs: a crash in flight is
                    # reported against this iteration, the first pass's
                    # against -1.
                    iteration += 1
                    self._iterations += 1
                    number, directions, attrs = iteration, semi_naive, None
                it_stats = _IterStats()
                with self.tracer.span(
                    "iteration",
                    cat="iteration",
                    iteration=number,
                    stratum=stratum.index,
                    attrs=attrs,
                ):
                    for cr, delta_atom in directions:
                        self._eval_rule(cr, delta_atom, it_stats)
                    changed = self._advance_and_count(stratum)
                    self._record_iteration(stratum, number, it_stats)
                iteration = number
                if not stratum.recursive:
                    return
                if (
                    self.rebalancer is not None
                    and changed
                    and iteration % self.config.rebalance_every == 0
                ):
                    # Iteration boundary: Δs advanced, nothing in flight
                    # (after the first pass, IDB relations it just
                    # populated get their first skew check).  Inside the
                    # try, so a crash mid-rebalance rolls back like any
                    # other iteration failure.  Runs before the
                    # checkpoint below so snapshots capture the new map.
                    self.rebalancer.maybe_rebalance(self, stratum, iteration)
                if every is not None and changed and iteration % every == 0:
                    ckpt = self._take_checkpoint(stratum, iteration, changed)
            except RankFailure as failure:
                if ckpt is None:
                    raise  # no checkpoint to recover from — unrecoverable
                iteration, changed = self._recover(
                    stratum, ckpt, failure, at_iteration=iteration
                )
        if changed:
            raise RuntimeError(
                f"stratum {stratum.relations} did not converge within "
                f"{self.config.max_iterations} iterations"
                + (
                    " during an incremental update"
                    if update
                    else " — non-terminating program (is every aggregate "
                    "a finite-height lattice?)"
                )
            )

    # --------------------------------------------- incremental maintenance

    def _seed_update(self, edb_deltas: Dict[str, "np.ndarray"]) -> Dict[str, int]:
        """Route one EDB insertion batch to its home shards (update seed).

        Models the batch arriving round-robin across ranks and being
        alltoallv'd to owner ranks through the normal bucket/sub-bucket
        placement — charged to the ``incremental_seed`` phase with its own
        ledger kind and CommMatrix ``update`` channel, payloads codec-
        encoded when the wire layer is on.  Each relation's stale Δ (the
        full content :meth:`load` leaves behind, or a previous update's
        seed) is flushed first; afterwards Δ holds exactly the batch rows
        newly admitted on the affected ranks.

        A restartable rank crash during the exchange retries after
        ``FaultPlane.mark_restarted`` — nothing has been absorbed yet, so
        the retry replays bit-identically.  Returns each relation's
        global Δ size.
        """
        cost = self.cluster.cost
        n_ranks = self.config.n_ranks
        out: Dict[str, int] = {}
        for name in sorted(edb_deltas):
            rel = self.store[name]
            batch = sorted(set(map(tuple, np.asarray(
                edb_deltas[name], dtype=np.int64
            ).reshape(-1, rel.schema.arity).tolist())))
            rel.install_delta(None)  # flush the stale Δ left by load()
            if not batch:
                out[name] = 0
                continue
            arr = np.asarray(batch, dtype=np.int64)
            with self.timer.phase(P_SEED):
                dst_arr = rel.dist.rank_of_rows(arr)
                src_arr = np.arange(arr.shape[0], dtype=np.int64) % n_ranks
                order, starts, _counts = lex_group(
                    np.column_stack([src_arr, dst_arr])
                )
                routed = arr[order]
                bounds = np.append(starts, arr.shape[0]).tolist()
                boxes: List[object] = [
                    routed[a:b] for a, b in zip(bounds[:-1], bounds[1:])
                ]
                sizing = {"count_of": len}
                if self.wire.enabled:
                    _n, payloads = encode_boxes(boxes, self.wire.codec)
                    boxes = list(zip(boxes, payloads))
                    sizing = {
                        "count_of": lambda box: box[0].shape[0],
                        "nbytes_of": lambda box: encoded_nbytes(box[1]),
                        "collective": self.wire.alltoallv,
                    }
                sends: Dict[int, Dict[int, List[object]]] = {}
                heads = order[starts]
                for src, dst, box in zip(
                    src_arr[heads].tolist(), dst_arr[heads].tolist(), boxes
                ):
                    sends.setdefault(src, {})[dst] = [box]
                attempts = 0
                while True:
                    try:
                        self.cluster.alltoallv(
                            sends,
                            arity=rel.schema.arity,
                            phase=P_SEED,
                            kind="incremental_seed",
                            channel="update",
                            **sizing,
                        )
                        break
                    except PermanentRankFailure:
                        raise
                    except RankFailure as failure:
                        # Nothing absorbed yet: restart the rank and replay
                        # the exchange, within the fault plane's own retry
                        # budget (then escalate).
                        attempts += 1
                        faults = self.config.faults
                        if faults is None or faults.retry_policy().exhausted(
                            attempts
                        ):
                            raise
                        self.fault_plane.mark_restarted(failure.rank)
                        self.counters["update_seed_retries"] += 1
                # Owners absorb the routed rows; the loader's placement is
                # the same hash the exchange routed by, and absorption
                # dedups, so duplicate deliveries can never double-apply.
                rel.load(arr)
                rel.advance()
                per_rank_adm = rel.delta_sizes_by_rank()
                self.cluster.ledger.add_compute_step(
                    P_SEED,
                    np.bincount(dst_arr, minlength=n_ranks)
                    * (cost.tuple_agg * cost.compute_scale)
                    + per_rank_adm * (cost.tuple_insert * cost.compute_scale),
                )
            n = rel.delta_size()
            self.counters["update_seed_tuples"] += n
            out[name] = n
        return out

    # ------------------------------------------------- checkpoint / recovery

    def _stratum_state_bytes(self, names) -> Tuple[int, np.ndarray]:
        """(total, per-rank) serialized bytes of the named relations."""
        per_rank = np.zeros(self.config.n_ranks, dtype=np.int64)
        for name in names:
            rel = self.store[name]
            per_rank += rel.full_sizes_by_rank() * (
                rel.schema.arity * BYTES_PER_WORD
            )
        return int(per_rank.sum()), per_rank

    def _take_checkpoint(
        self, stratum: Stratum, iteration: int, changed: bool
    ) -> StratumCheckpoint:
        """Coordinated snapshot of the stratum's mutable relations.

        Only this stratum's head relations can change inside its fixpoint
        loop (EDBs and earlier strata are frozen by stratification), so
        they are all that needs saving.  The modeled cost of every rank
        writing its partition to stable storage in parallel is charged to
        the ``checkpoint`` phase.

        With the online rebalancer active, every rebalance-eligible
        relation is captured too (the rebalancer may resize EDBs the
        stratum only reads), and each snapshot pins the relation's schema
        so rollback reverts the sub-bucket map together with the shards.
        """
        names = sorted(stratum.relations)
        if self.rebalancer is not None:
            names = sorted(
                set(names) | set(self.rebalancer.eligible_names(self.store))
            )
        with self.tracer.span(
            "checkpoint", cat="phase", stratum=stratum.index,
            attrs={"iteration": iteration},
        ):
            with self.timer.phase("checkpoint"):
                ckpt = ckpt_mod.capture(
                    self.store,
                    names,
                    stratum=stratum.index,
                    iteration=iteration,
                    changed=changed,
                    iterations_total=self._iterations,
                    counters=dict(self.counters),
                    trace_len=len(self.trace),
                )
                if self.rebalancer is not None:
                    ckpt.rebalance = self.rebalancer.state()
            total_bytes, per_rank = self._stratum_state_bytes(names)
            seconds = self.cluster.cost.checkpoint_write(
                self.config.n_ranks, int(per_rank.max())
            )
            # Charged directly (not through a collective) so the fault
            # plane can never fire mid-checkpoint.
            self.cluster.ledger.add_comm(
                CommEvent(
                    kind="checkpoint",
                    phase="checkpoint",
                    nbytes=total_bytes,
                    messages=self.config.n_ranks,
                    seconds=seconds,
                )
            )
            # Buddy replication (PR 9): each live rank mirrors its shard
            # partition to the next ``replicas`` live ranks on the ring.
            # The mirrors are what make a *permanent* loss survivable; a
            # checkpoint without them only covers restartable crashes.
            replica_bytes = 0
            replica_seconds = 0.0
            if self.config.replicas >= 1:
                live = sorted(set(range(self.config.n_ranks)) - self.dead_ranks)
                ckpt.live_ranks = live
                if len(live) > 1:
                    eff = min(self.config.replicas, len(live) - 1)
                    replica_bytes = int(per_rank[live].sum()) * eff
                    replica_seconds = self.cluster.cost.checkpoint_replicate(
                        self.config.n_ranks,
                        int(per_rank.max()),
                        self.config.replicas,
                    )
                    self.cluster.ledger.add_comm(
                        CommEvent(
                            kind="replica",
                            phase="checkpoint",
                            nbytes=replica_bytes,
                            messages=len(live) * eff,
                            seconds=replica_seconds,
                        )
                    )
                    if self.comm_recorder is not None:
                        per_rank_tuples = np.zeros(
                            self.config.n_ranks, dtype=np.int64
                        )
                        for name in names:
                            per_rank_tuples += self.store[name].full_sizes_by_rank()
                        m = self.comm_recorder.begin("replica", "checkpoint")
                        for rank in live:
                            for buddy in replica_buddies(
                                rank, live, self.config.replicas
                            ):
                                m.add(
                                    rank,
                                    buddy,
                                    int(per_rank[rank]),
                                    int(per_rank_tuples[rank]),
                                    channel="replica",
                                )
        if self.recovery is not None:
            self.recovery.checkpoints += 1
            self.recovery.checkpoint_tuples += ckpt.tuples
            self.recovery.checkpoint_bytes += ckpt.nbytes
            self.recovery.checkpoint_seconds += seconds
            self.recovery.replica_bytes += replica_bytes
            self.recovery.replica_seconds += replica_seconds
        return ckpt

    def _recover(
        self,
        stratum: Stratum,
        ckpt: StratumCheckpoint,
        failure: RankFailure,
        *,
        at_iteration: int,
    ) -> Tuple[int, bool]:
        """Roll the stratum back to ``ckpt`` and restart the failed rank.

        Every relation the stratum mutates is restored from the snapshot
        (survivors re-read their partitions; the dead rank's shard is
        re-fetched and redistributed to its replacement — "restart with
        spare", so placement and therefore replayed results are identical).
        Engine counters, iteration totals and the trace are rewound too,
        so a recovered run's bookkeeping matches a fault-free run's.
        Returns the (iteration, changed) loop position to resume from.

        A *permanent* loss (the failure detector escalated to
        :class:`PermanentRankFailure`) takes the elastic degraded-mode
        path instead: the rank never comes back, its state is restored
        from a buddy replica and its buckets are re-owned onto survivors.
        """
        if isinstance(failure, PermanentRankFailure):
            return self._recover_permanent(
                stratum, ckpt, failure, at_iteration=at_iteration
            )
        in_flight = at_iteration + 1 if at_iteration >= 0 else 0
        with self.tracer.span(
            "recovery", cat="phase", stratum=stratum.index,
            attrs={
                "failed_rank": failure.rank,
                "superstep": failure.superstep,
                "detected_at": failure.where,
                "restored_iteration": ckpt.iteration,
            },
        ):
            with self.timer.phase("recovery"):
                failed_bytes = ckpt.rank_nbytes(self.store, failure.rank)
                ckpt_mod.restore(self.store, ckpt)
                self._exec.invalidate()
                self.counters = defaultdict(int)
                self.counters.update(ckpt.counters)
                self._iterations = ckpt.iterations_total
                del self.trace[ckpt.trace_len:]
                if self.rebalancer is not None:
                    # Restore may have reverted sub-bucket maps; re-sync
                    # the compiled program's schema view and rewind the
                    # rebalancer's bookkeeping so replay re-decides the
                    # rolled-back resizes identically.
                    for name in ckpt.relations:
                        self.compiled.schemas[name] = self.store[name].schema
                    self.rebalancer.restore_state(ckpt.rebalance)
            _total, per_rank = self._stratum_state_bytes(ckpt.relations)
            seconds = self.cluster.cost.recovery_restore(
                self.config.n_ranks, int(per_rank.max()), failed_bytes
            )
            self.cluster.ledger.add_comm(
                CommEvent(
                    kind="recovery",
                    phase="recovery",
                    nbytes=failed_bytes,
                    messages=self.config.n_ranks,
                    seconds=seconds,
                )
            )
            if self.fault_plane is not None:
                self.fault_plane.mark_restarted(failure.rank)
        if self.recovery is not None:
            self.recovery.failures += 1
            self.recovery.recoveries += 1
            self.recovery.rolled_back_iterations += max(
                0, in_flight - max(ckpt.iteration, 0)
            )
            self.recovery.recovery_seconds += seconds
            self.recovery.events.append(
                (stratum.index, in_flight, ckpt.iteration)
            )
        return ckpt.iteration, ckpt.changed

    def _recover_permanent(
        self,
        stratum: Stratum,
        ckpt: StratumCheckpoint,
        failure: PermanentRankFailure,
        *,
        at_iteration: int,
    ) -> Tuple[int, bool]:
        """Elastic degraded-mode recovery: finish the run without the rank.

        Unlike the restart path, the lost rank never comes back.  The
        survivors (1) roll the stratum back to the checkpoint, (2) restore
        the dead rank's checkpointed shard partition from its first
        surviving buddy replica, and (3) re-own every shard the dead rank
        held by installing the placement overlay — the owner function is
        re-derived over the shrunken world, so every survivor computes the
        same new map without coordination.  Because placement never enters
        tuple *values* and lattice absorption is order-independent, the
        replayed fixpoint on the degraded world produces results, Δ
        fingerprints and iteration counts identical to a fault-free run
        (the Algorithm-1 vote may legitimately see different per-rank
        sizes; it only picks the probe direction, never the answer).

        Raises :class:`UnrecoverableRankLoss` — loudly, never silently
        wrong — when no replica of the dead rank's state survives.
        """
        rank = failure.rank
        if self.config.replicas < 1:
            raise UnrecoverableRankLoss(
                rank,
                failure.superstep,
                "no checkpoint replica exists (replicas=0); "
                "rerun with --replicas >= 1",
            )
        live_at_capture = (
            ckpt.live_ranks
            if ckpt.live_ranks is not None
            else sorted(set(range(self.config.n_ranks)) - self.dead_ranks)
        )
        buddies = replica_buddies(rank, live_at_capture, self.config.replicas)
        buddy = next(
            (b for b in buddies if b not in self.dead_ranks and b != rank),
            None,
        )
        if buddy is None:
            raise UnrecoverableRankLoss(
                rank,
                failure.superstep,
                f"all replica buddies {buddies} of the lost rank are dead "
                "too; rerun with a higher --replicas",
            )
        in_flight = at_iteration + 1 if at_iteration >= 0 else 0
        with self.tracer.span(
            "recovery", cat="phase", stratum=stratum.index,
            attrs={
                "failed_rank": rank,
                "superstep": failure.superstep,
                "detected_at": failure.where,
                "restored_iteration": ckpt.iteration,
                "permanent": True,
                "replica_buddy": buddy,
            },
        ):
            with self.timer.phase("recovery"):
                failed_bytes = ckpt.rank_nbytes(self.store, rank)
                ckpt_mod.restore(self.store, ckpt)
                self._exec.invalidate()
                self.counters = defaultdict(int)
                self.counters.update(ckpt.counters)
                self._iterations = ckpt.iterations_total
                del self.trace[ckpt.trace_len:]
                if self.rebalancer is not None:
                    for name in ckpt.relations:
                        self.compiled.schemas[name] = self.store[name].schema
                    self.rebalancer.restore_state(ckpt.rebalance)
                # Checkpoint-state bytes/tuples the dead rank held — this
                # is exactly what the buddy's mirror copy restores.
                restored_bytes = ckpt.rank_nbytes(self.store, rank)
                restored_tuples = 0
                for name in ckpt.relations:
                    restored_tuples += int(
                        self.store[name].full_sizes_by_rank()[rank]
                    )
                # Re-own: install the overlay on EVERY relation (EDBs
                # included — the dead rank cannot own anything anymore),
                # diffing ownership to account the migrated shards.
                reowned = 0
                moves: List[Tuple[int, int, int]] = []
                for _name, rel in sorted(self.store.relations.items()):
                    old_dist = rel.dist
                    keys = [
                        k for k in rel.shards if old_dist.owner(*k) == rank
                    ]
                    rel.exclude_ranks({rank})
                    for key in keys:
                        tuples = rel.shards[key].full_size()
                        moves.append((
                            rel.dist.owner(*key),
                            tuples * rel.schema.arity * BYTES_PER_WORD,
                            tuples,
                        ))
                    reowned += len(keys)
                self._exec.invalidate()
            _total, per_rank = self._stratum_state_bytes(ckpt.relations)
            restore_seconds = self.cluster.cost.recovery_restore(
                self.config.n_ranks, int(per_rank.max()), failed_bytes
            )
            self.cluster.ledger.add_comm(
                CommEvent(
                    kind="recovery",
                    phase="recovery",
                    nbytes=failed_bytes,
                    messages=self.config.n_ranks,
                    seconds=restore_seconds,
                )
            )
            reown_seconds = self.cluster.cost.recovery_reown(
                self.config.n_ranks, restored_bytes
            )
            self.cluster.ledger.add_comm(
                CommEvent(
                    kind="reown",
                    phase="recovery",
                    nbytes=restored_bytes,
                    messages=max(1, len(live_at_capture) - 1),
                    seconds=reown_seconds,
                )
            )
            if self.comm_recorder is not None:
                m = self.comm_recorder.begin("reown", "recovery")
                for dst, nbytes, tuples in moves:
                    m.add(buddy, dst, nbytes, tuples, channel="recovery")
            self.dead_ranks.add(rank)
            if self.fault_plane is not None:
                self.fault_plane.mark_excluded(rank)
        if self.degraded is None:
            self.degraded = DegradedStats()
        self.degraded.excluded_ranks.append(rank)
        self.degraded.epoch += 1
        self.degraded.reowned_shards += reowned
        self.degraded.restored_tuples += restored_tuples
        self.degraded.restored_bytes += restored_bytes
        self.degraded.replica_sources.append((rank, buddy))
        self.degraded.reown_seconds += reown_seconds
        if self.recovery is not None:
            self.recovery.failures += 1
            self.recovery.recoveries += 1
            self.recovery.rolled_back_iterations += max(
                0, in_flight - max(ckpt.iteration, 0)
            )
            self.recovery.recovery_seconds += restore_seconds + reown_seconds
            self.recovery.events.append(
                (stratum.index, in_flight, ckpt.iteration)
            )
        return ckpt.iteration, ckpt.changed

    def _advance_and_count(self, stratum: Stratum) -> bool:
        """Promote Δs and run the distributed fixpoint test."""
        per_rank = np.zeros(self.config.n_ranks, dtype=np.int64)
        with self.timer.phase(P_OTHER):
            for name in stratum.relations:
                rel = self.store[name]
                rel.advance()
                per_rank += rel.delta_sizes_by_rank()
            total = self.cluster.allreduce(
                [int(v) for v in per_rank], sum, nbytes=8, phase=P_OTHER
            )
        return total > 0

    # Seed for the Δ-trajectory fingerprints; any fixed constant works,
    # it just decorrelates them from placement hashing.
    _FP_SEED = 0x5EED_D157

    def _delta_fingerprints(self, stratum: Stratum) -> Dict[str, int]:
        """Order-independent multiset digest of each stratum relation's Δ.

        XOR-reduces a whole-row hash over the Δ blocks, then mixes in the
        row count (xor alone cannot see duplicate pairs).  Invariant to
        shard layout, delivery order and executor — the test plane's
        witness that rebalancing never bends the Δ *trajectory*.
        """
        out: Dict[str, int] = {}
        for name in sorted(stratum.relations):
            rel = self.store[name]
            cols = tuple(range(rel.schema.arity))
            acc = np.uint64(0)
            count = 0
            for _owner, block in rel.version_blocks("delta"):
                acc ^= np.bitwise_xor.reduce(
                    hash_columns(block, cols, seed=self._FP_SEED)
                )
                count += block.shape[0]
            out[name] = int(
                (int(acc) + count * 0x9E37_79B1) & 0xFFFF_FFFF_FFFF_FFFF
            )
        return out

    def _record_iteration(self, stratum: Stratum, iteration: int, st: "_IterStats") -> None:
        if not self.config.track_trace:
            return
        # One snapshot of each clock; the span stream's iteration_summary
        # carries both, so the ledger, the timer, and the trace can never
        # report different per-iteration deltas.
        phase_delta = self.cluster.ledger.snapshot()
        wall_delta = self.timer.snapshot()
        fingerprints = (
            self._delta_fingerprints(stratum)
            if self.config.delta_fingerprints
            else {}
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "iteration_summary",
                cat="summary",
                iteration=iteration,
                stratum=stratum.index,
                attrs={
                    "modeled_phase_seconds": phase_delta,
                    "wall_phase_seconds": wall_delta,
                    "admitted": st.admitted,
                    "suppressed": st.suppressed,
                    "intra_bucket_tuples": st.intra_tuples,
                    "alltoall_tuples": st.comm_tuples,
                    "outer_choices": st.outer_choices,
                },
            )
            metrics = self.tracer.metrics
            metrics.histogram("admitted_per_iteration").observe(st.admitted)
            metrics.histogram("suppressed_per_iteration").observe(st.suppressed)
            metrics.histogram("alltoall_tuples_per_iteration").observe(
                st.comm_tuples
            )
        self.trace.append(
            IterationTrace(
                stratum=stratum.index,
                iteration=iteration,
                phase_seconds=phase_delta,
                admitted=st.admitted,
                suppressed=st.suppressed,
                outer_choices=st.outer_choices,
                intra_bucket_tuples=st.intra_tuples,
                alltoall_tuples=st.comm_tuples,
                wall_phase_seconds=wall_delta,
                delta_fingerprints=fingerprints,
            )
        )

    # ------------------------------------------------------- rule evaluation

    def _eval_rule(
        self, cr: CompiledRule, delta_atom: Optional[int], stats: "_IterStats"
    ) -> None:
        """Evaluate one rule with body atom ``delta_atom`` reading Δ.

        ``delta_atom=None`` is the naive seed pass (all atoms read full).
        The pipeline is written once here; only the tuple representation
        lives in :attr:`_exec` (:mod:`repro.runtime.executor`).
        """
        cfg = self.config
        cluster = self.cluster
        cost = cluster.cost
        ex = self._exec
        if not cr.is_join:
            rel = self.store[cr.body_names[0]]
            per_rank_scan = np.zeros(cfg.n_ranks, dtype=np.int64)
            with self.timer.phase(P_JOIN):
                emitted = ex.scan_emit(
                    cr, rel, "delta" if delta_atom == 0 else "full", per_rank_scan
                )
            cluster.ledger.add_compute_step(
                P_JOIN, per_rank_scan * (cost.tuple_probe * cost.compute_scale)
            )
            self._route_and_absorb(cr.head_name, emitted, stats)
            return
        rels = (self.store[cr.body_names[0]], self.store[cr.body_names[1]])
        vers = tuple("delta" if delta_atom == i else "full" for i in (0, 1))

        # ---- phase: vote (dynamic join planning, Algorithm 1) ----
        with self.timer.phase(P_VOTE):
            if cfg.dynamic_join:
                side = vote_outer_relation(
                    cluster,
                    _sizes_by_rank(rels[0], vers[0]),
                    _sizes_by_rank(rels[1], vers[1]),
                    phase=P_VOTE,
                    abstain_empty=cfg.vote_abstain_empty,
                )
            else:
                side = (
                    JoinSide.LEFT_OUTER
                    if cfg.static_outer == "left"
                    else JoinSide.RIGHT_OUTER
                )
        outer_pos = 0 if side is JoinSide.LEFT_OUTER else 1
        stats.outer_choices[repr(cr.rule)] = ("left", "right")[outer_pos]
        outer_rel, outer_ver = rels[outer_pos], vers[outer_pos]
        inner_rel, inner_ver = rels[1 - outer_pos], vers[1 - outer_pos]
        probe_cols = (cr.probe_from_left, cr.probe_from_right)[outer_pos]

        # ---- phase: intra-bucket communication (serialize + replicate) ----
        per_rank_ser = np.zeros(cfg.n_ranks, dtype=np.int64)
        with self.timer.phase(P_INTRA):
            sends, n_intra = ex.intra_sends(
                cr, outer_pos, outer_rel, outer_ver, inner_rel, probe_cols,
                per_rank_ser,
            )
            cluster.ledger.add_compute_step(
                P_INTRA, per_rank_ser * (cost.tuple_serialize * cost.compute_scale)
            )
            recv = cluster.alltoallv(
                sends,
                arity=outer_rel.schema.arity,
                phase=P_INTRA,
                count_of=ex.intra_count_of,
            )
        stats.intra_tuples += n_intra
        self.counters["intra_bucket_tuples"] += n_intra

        # ---- phase: local join ----
        per_rank_probe = np.zeros(cfg.n_ranks, dtype=np.int64)
        per_rank_emit = np.zeros(cfg.n_ranks, dtype=np.int64)
        with self.timer.phase(P_JOIN):
            emitted = ex.local_join(
                cr, outer_pos, recv, inner_rel, inner_ver, probe_cols,
                per_rank_probe, per_rank_emit,
            )
            cluster.ledger.add_compute_step(
                P_JOIN,
                per_rank_probe * (cost.tuple_probe * cost.compute_scale)
                + per_rank_emit * (cost.tuple_emit * cost.compute_scale),
            )
        n_emitted = int(per_rank_emit.sum())
        stats.emitted += n_emitted
        self.counters["emitted"] += n_emitted

        self._route_and_absorb(cr.head_name, emitted, stats)

    # ------------------------------------------------ routing and absorption

    def _wire_exchange(self, head, head_name: str, sends):
        """The route all-to-all, through the wire layer (PR 7) when on.

        Enabled, it folds each box per independent key where the lattice
        allows, encodes payloads with the configured codec, charges the
        fold at serialization cost and the exchange at *encoded* bytes,
        lets the collective autotuner pick direct vs Bruck, and decodes
        on the receive side; disabled, boxes travel as built at their raw
        tuple size.
        """
        wire = self.wire
        cluster = self.cluster
        arity = head.schema.arity
        sizing = _RAW_BOX
        if wire.enabled:
            combiner, can_combine = self._wire_plan(head_name)
            sends, folded = encode_wire_sends(
                sends,
                n_indep=head.schema.n_indep,
                combiner=combiner,
                combine=wire.sender_combine and can_combine,
                codec=wire.codec,
            )
            if any(folded.values()):
                cost = cluster.cost
                per_tuple = cost.tuple_serialize * cost.compute_scale
                charge = np.zeros(self.config.n_ranks)
                for src, n_folded in folded.items():
                    charge[src] = n_folded * per_tuple
                cluster.ledger.add_compute_step(P_COMM, charge)
            sizing = dict(_WIRE_BOX, collective=wire.alltoallv)
            pre0 = cluster.route_precombine_bytes
            wire0 = cluster.route_wire_bytes
            coll0 = dict(cluster.collective_counts)
        recv = cluster.alltoallv(sends, arity=arity, phase=P_COMM, **sizing)
        if not wire.enabled:
            return recv
        # Tally per exchange into the engine counters (not read off the
        # cluster at the end) so checkpoint rollback rewinds them and a
        # recovered run's books match a fault-free run's.
        self.counters["wire_precombine_bytes"] += (
            cluster.route_precombine_bytes - pre0
        )
        self.counters["wire_on_wire_bytes"] += cluster.route_wire_bytes - wire0
        for choice, n in cluster.collective_counts.items():
            self.counters[f"wire_collective_{choice}"] += n - coll0.get(choice, 0)
        return {
            r: decode_wire_boxes(boxes, arity, wire.codec)
            for r, boxes in recv.items()
        }

    def _route_and_absorb(self, head_name: str, emitted, stats: "_IterStats") -> None:
        """All-to-all emitted tuples to their home shards and absorb them.

        ``emitted`` is in the executor's representation: tuple lists per
        rank (scalar) or one row block per rank (columnar).
        """
        head = self.store[head_name]
        cost = self.cluster.cost
        ex = self._exec

        # ---- phase: all-to-all of materialized tuples ----
        with self.timer.phase(P_COMM):
            sends, n_comm = ex.route_sends(emitted, head.dist, self.wire.enabled)
            recv = self._wire_exchange(head, head_name, sends)
        stats.comm_tuples += n_comm
        self.counters["alltoall_tuples"] += n_comm

        # ---- phase: fused dedup / local aggregation ----
        before = (
            accumulator_map(head)
            if self._audit and head.schema.is_aggregate
            else None
        )
        per_rank_recv = np.zeros(self.config.n_ranks, dtype=np.int64)
        per_rank_adm = np.zeros(self.config.n_ranks, dtype=np.int64)
        with self.timer.phase(P_DEDUP):
            for r, boxes in recv.items():
                absorb_stats = AbsorbStats()
                ex.absorb(head, boxes, absorb_stats)
                per_rank_recv[r] = absorb_stats.received
                per_rank_adm[r] = absorb_stats.admitted
                stats.admitted += absorb_stats.admitted
                stats.suppressed += absorb_stats.suppressed
            self.cluster.ledger.add_compute_step(
                P_DEDUP,
                per_rank_recv * (cost.tuple_agg * cost.compute_scale)
                + per_rank_adm * (cost.tuple_insert * cost.compute_scale),
            )
        if before is not None:
            monotonicity_audit(before, head)
        self.counters["admitted"] += int(per_rank_adm.sum())
        self.counters["suppressed"] += int(per_rank_recv.sum() - per_rank_adm.sum())


#: How ``SimCluster.alltoallv`` sizes a route box as built —
#: ``(bucket, sub, batch)``, a tuple list or a row block …
_RAW_BOX = {"count_of": lambda box: len(box[2])}
#: … and in wire form, ``(bucket, sub, n_rows, pre_rows, payload)``:
#: charged at encoded bytes, pre-combine rows kept observable.
_WIRE_BOX = {
    "count_of": lambda box: box[2],
    "nbytes_of": lambda box: encoded_nbytes(box[4]),
    "pre_count_of": lambda box: box[3],
}


class _IterStats:
    """Mutable per-iteration counters (internal)."""

    __slots__ = ("admitted", "suppressed", "emitted", "intra_tuples",
                 "comm_tuples", "outer_choices")

    def __init__(self) -> None:
        self.admitted = 0
        self.suppressed = 0
        self.emitted = 0
        self.intra_tuples = 0
        self.comm_tuples = 0
        self.outer_choices: Dict[str, str] = {}


def _sizes_by_rank(rel: VersionedRelation, version: str) -> List[int]:
    arr = (
        rel.delta_sizes_by_rank() if version == "delta" else rel.full_sizes_by_rank()
    )
    return [int(v) for v in arr]
