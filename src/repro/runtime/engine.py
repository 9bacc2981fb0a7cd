"""The distributed semi-naïve fixpoint engine (paper Fig. 1's pipeline).

Each iteration of a recursive stratum executes, per rule:

1. **vote** — dynamic join planning (Algorithm 1): one-word allreduce
   choosing the smaller side as the *outer* (transmitted) relation;
2. **intra-bucket comm** — the outer side is serialized and sent to every
   sub-bucket rank of the matching inner bucket (``MPI_Alltoallv``); with
   the wire layer on, an EDB inner's light join keys live in their
   bucket's home cell on the bucket's own rank (:meth:`Engine.load`), so
   their tuples are sent there only.  A copy bound for its own rank is
   never a message: it goes straight to that rank's probe, and only the
   copies that cross are charged serialization.  A *co-placed* join —
   no heavy key on either side, the outer placed by the join key
   (:meth:`Engine._co_placed`) — has nothing to cross and runs no
   exchange at all;
3. **local join** — each rank probes its inner shards' nested index with
   the received outer tuples and emits head tuples;
4. **all-to-all** — emitted tuples are routed to their home rank by the
   head relation's double-hash placement;
5. **fused dedup / local aggregation** — the receiving rank absorbs each
   tuple into the accumulator store; only improvements enter Δ.

A final allreduce of Δ sizes decides termination.  All compute is charged
to the :class:`~repro.comm.ledger.PhaseLedger` per rank per superstep, so
modeled time exposes imbalance exactly as real ranks would.

This module is that pipeline and nothing else: how tuples are held while
they cross it is :mod:`repro.runtime.executor`'s business,
checkpoint/rollback (:mod:`repro.runtime.recovery`) is a manager the
stratum loop consults at iteration boundaries, ``None`` when switched
off, and the one relation-wide resize (:meth:`Engine.auto_balance`, the
exchange in :mod:`repro.runtime.rebalance`) runs before the first
stratum, so a relation's sub-bucket map is fixed for the whole fixpoint.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.comm.simcluster import SimCluster
from repro.comm.wire import payload_codec
from repro.core.balancer import recommend_subbuckets
from repro.core.join_planner import JoinSide, vote_outer_relation
from repro.faults.invariants import monotonicity_audit
from repro.faults.plane import FaultPlane, PermanentRankFailure, RankFailure
from repro.kernels.absorb import sender_fold_plan
from repro.kernels.route import build_route_sends, decode_wire_boxes, encode_wire_sends
from repro.obs.tracer import NULL_TRACER
from repro.planner.ast import Program
from repro.planner.compile_rules import CompiledProgram, CompiledRule, compile_program
from repro.planner.stratify import Stratum
from repro.relational.distribution import heavy_keys
from repro.relational.storage import RelationStore, VersionedRelation
from repro.runtime.config import EngineConfig
from repro.runtime.executor import ColumnarExecutor
from repro.runtime.rebalance import reshard_relation
from repro.runtime.recovery import RecoveryManager
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


class Engine:
    """Evaluates one compiled program on a simulated cluster — its own
    :class:`SimCluster`, owning every rank, unless :mod:`repro.runtime.spmd`
    passes ``cluster``: one rank's slice of a cluster shared per rank."""

    def __init__(self, program: Program, config: Optional[EngineConfig] = None,
                 *, cluster=None):
        self.config = config or EngineConfig()
        self.config.validate()
        tracer = self.config.diagnostics.tracer
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.compiled: CompiledProgram = compile_program(
            program,
            subbuckets=self.config.subbuckets,
            default_subbuckets=self.config.default_subbuckets,
        )
        #: Diagnostics plane: rank×rank traffic capture (observation only;
        #: results and ledger charges are bit-identical either way).
        self.comm_recorder = None
        if self.config.diagnostics.enabled:
            from repro.obs.analysis import CommMatrixRecorder

            self.comm_recorder = CommMatrixRecorder(self.config.n_ranks)
        self._slice = cluster
        self.cluster = cluster if cluster is not None else SimCluster.from_config(
            self.config, tracer=self.tracer, comm_recorder=self.comm_recorder
        )
        #: Deterministic fault injector (None = perfect network).
        self.fault_plane: Optional[FaultPlane] = self.cluster.faults
        #: Checkpoint/rollback plane (:mod:`repro.runtime.recovery`); None
        #: without a fault plane or ``checkpoint_every``, so a plain run
        #: executes none of it.
        self.recovery: Optional[RecoveryManager] = (
            RecoveryManager(self.config)
            if self.fault_plane is not None
            or self.config.recovery.checkpoint_every is not None
            else None
        )
        # Lattice monotonicity audit: only worth paying for when injected
        # corruption could actually reach an absorb.
        faults = self.config.faults.config
        self._audit = faults is not None and faults.has_message_faults
        #: The data plane: how tuples are held while they cross the pipeline.
        self._exec = ColumnarExecutor()
        self.store = RelationStore(
            self.config.n_ranks, seed=HashSeed().derive(self.config.seed)
        )
        for schema in self.compiled.schemas.values():
            self.store.declare(schema)
        self.timer = PhaseTimer(tracer=self.tracer)
        self.counters: Dict[str, int] = defaultdict(int)
        self.trace: List[IterationTrace] = []
        self._iterations = 0
        #: What the last :meth:`run` returned; None before the first.
        self.last_result: Optional[FixpointResult] = None
        # Re-entrant result building (incremental updates rebuild the
        # result after every batch): the count of comm matrices already
        # embedded in the trace stream.
        self._embedded_matrices = 0
        #: Wire layer (PR 7) and each relation's sender-fold plan.
        self.wire = self.config.wire
        self._wire_plans = {
            name: sender_fold_plan(schema)
            for name, schema in self.compiled.schemas.items()
            if self.wire
        }
        #: Relations only loads and updates write: placed by heavy and
        #: light keys under the wire layer.
        self._edb = frozenset(decl.name for decl in self.compiled.program.edb)
        #: :meth:`_co_placed`'s answers, per (outer, inner placement, key).
        self._co_placed_cache: Dict[tuple, bool] = {}

    # ------------------------------------------------------------------ load

    def load(self, name: str, tuples: Iterable[TupleT]) -> int:
        """Load facts into a relation (EDB input, or IDB warm start).

        With the wire layer on, a sub-bucketed EDB relation's first load
        fixes its heavy-key set (:meth:`_freeze_heavy_keys`) until a
        resize recounts it
        (:func:`~repro.runtime.rebalance.reshard_relation`).
        """
        if name not in self.store:
            raise KeyError(
                f"unknown relation {name!r}; declared: "
                f"{sorted(self.compiled.schemas)}"
            )
        rel = self.store[name]
        with self.timer.phase("load"):
            if self._first_split_load(rel):
                tuples = rel.rows_of(tuples)
                self._freeze_heavy_keys(rel, tuples)
            admitted = rel.load(self._owned_rows(rel, tuples))
            rel.advance()
        self.counters["loaded"] += admitted
        return admitted

    def _first_split_load(self, rel: VersionedRelation) -> bool:
        """Whether loading ``rel`` now fixes its heavy-key set: the wire
        layer is on, ``rel`` is an EDB relation with a non-join column
        (without one every row sits in sub-bucket 0 anyway) that is
        sub-bucketed or may be resized (``auto_balance``), and no load,
        update or iteration has advanced it yet — the same test on every
        slice of a per-rank run."""
        return (
            self.wire
            and rel.schema.name in self._edb
            and bool(rel.schema.other_cols)
            and (
                rel.schema.n_subbuckets > 1
                or self.config.auto_balance is not None
            )
            and not rel.delta_gen
        )

    def _freeze_heavy_keys(self, rel: VersionedRelation, rows: np.ndarray) -> None:
        """Place ``rel`` by the keys holding more than m/(p·n_sub) of the m
        ``rows`` (:func:`~repro.relational.distribution.heavy_keys`), every
        other key light.  A rank hosts about n_sub cells, so a light key
        holds at most an average cell's rows and no rank's share grows
        far past m/p by keeping a key whole.  Each slice of a per-rank
        run reads every row, so every rank counts the same set; sharing
        it is one allgather, charged to the load phase, in which each
        key's bucket home announces it: a count word and the keys per
        rank.  A rank crash inside it restarts the rank and replays it
        (:meth:`_restartable`)."""
        n_ranks = self.config.n_ranks
        width = len(rel.schema.join_cols)
        heavy = heavy_keys(
            rows, rel.schema.join_cols, n_ranks * rel.schema.n_subbuckets
        )
        keys = np.asarray(heavy, dtype=np.int64).reshape(len(heavy), width)
        homed = np.bincount(
            rel.dist.buckets_of_key_rows(keys, range(width)), minlength=n_ranks
        )
        heavy = self._restartable(lambda: self.cluster.allgather(
            [heavy] * n_ranks, nbytes_per_rank=8 * (1 + width * int(homed.max())),
            phase="load",
        ), "load_retries")[0]
        rel.set_schema(dataclasses.replace(rel.schema, heavy_keys=heavy))
        self.compiled.schemas[rel.schema.name] = rel.schema

    def _owned_rows(self, rel: VersionedRelation, rows):
        """``rows`` as this engine stores them: all of them, or on one
        slice of a per-rank run only those its comm says it owns."""
        if self._slice is None:
            return rows
        arr = rel.rows_of(rows)
        return arr[self._slice.owns(rel.dist.rank_of_rows(arr))]

    def _restartable(self, step, counter: str):
        """Run ``step()``; after a restartable rank crash inside it,
        restart the rank and run it again.

        For a step outside the stratum loop's checkpoints whose
        collectives mutate nothing before they return — a load's
        heavy-key allgather, a resize, an update seed — so a replay is
        bit-identical.  Each restart is charged and counted by
        :meth:`RecoveryManager.restart
        <repro.runtime.recovery.RecoveryManager.restart>` and tallied in
        ``counters[counter]``.  Retries stay within the fault plane's own
        budget (then the failure escalates); a permanent loss is never
        retried.
        """
        attempts = 0
        while True:
            try:
                return step()
            except PermanentRankFailure:
                raise
            except RankFailure as failure:
                attempts += 1
                faults = self.config.faults.config
                if faults is None or attempts > faults.max_retries:
                    raise
                self.recovery.restart(self, failure)
                self.counters[counter] += 1

    # --------------------------------------------------------------- balance

    def auto_balance(
        self,
        name: str,
        *,
        tolerance: float = 2.0,
        max_subbuckets: int = 64,
    ) -> int:
        """Adaptively sub-bucket a loaded relation (paper §IV-C's rule:
        "if the data size on each process is still imbalanced, the
        imbalanced relation will be logically divided into sub-buckets").

        Measures the relation's projected imbalance, picks the sub-bucket
        count at which max/mean ≤ ``tolerance`` (or the cap) and, when
        that is more than the relation has, redistributes the shards
        through the block exchange
        (:func:`~repro.runtime.rebalance.reshard_relation`, full and Δ
        kept as they are, a heavy-key set recounted at the new count) —
        charged to the ``balance`` phase through the wire layer when it
        is on, as the real system would pay it.  It never shrinks a
        relation's count.  The exchange changes nothing until its
        collectives return, so a rank crash inside it restarts the rank
        and replays the resize (:meth:`_restartable`).

        Returns the relation's sub-bucket count afterwards.
        """
        rel = self.store[name]
        rows = rel.table.version_block("full")
        if not rows.shape[0]:
            return rel.schema.n_subbuckets
        n_sub, _report = recommend_subbuckets(
            rows,
            rel.schema,
            self.config.n_ranks,
            tolerance=tolerance,
            max_subbuckets=max_subbuckets,
            seed=rel.dist.seed,
        )
        if n_sub > rel.schema.n_subbuckets:
            self._restartable(lambda: reshard_relation(
                rel, n_sub, self.cluster, wire=self.wire
            ), "balance_retries")
            self.compiled.schemas[name] = rel.schema
        return rel.schema.n_subbuckets

    # ------------------------------------------------------------------- run

    def run(self) -> FixpointResult:
        """Evaluate all strata to fixpoint and return the result."""
        with self.tracer.span(
            "run", cat="run", attrs={"n_ranks": self.config.n_ranks}
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
        self.last_result = self._build_result()
        return self.last_result

    def _build_result(self) -> FixpointResult:
        """Assemble a :class:`FixpointResult` from the engine's live state.

        Called at the end of :meth:`run` and again after every
        incremental update (:mod:`repro.runtime.incremental`), so it must
        be safe to invoke repeatedly — only matrices not yet embedded in
        the span stream are embedded.
        """
        recovery = self.recovery
        if recovery is not None and self.fault_plane is not None:
            recovery.stats.injected = self.fault_plane.stats
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
            recovery=recovery.stats if recovery is not None else None,
            degraded=recovery.degraded if recovery is not None else None,
            comm_profile=self.comm_recorder,
        )

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
        The checkpoint plane is consulted once per boundary; no relation
        is resized inside the loop, so a snapshot's rows always match the
        live sub-bucket map.  A :class:`~repro.faults.plane.RankFailure`
        raised anywhere inside an iteration rolls the stratum back to the last
        checkpoint (:meth:`RecoveryManager.recover
        <repro.runtime.recovery.RecoveryManager.recover>`) and replays —
        bit-for-bit the run that would have happened without the failure
        (verified in the chaos tests).
        """
        update = any(atom is not None for _, atom in first_pass)
        update_attrs = {"update_pass": True} if update else None
        semi_naive = [
            (cr, i)
            for cr in self.compiled.rules_of(stratum)
            for i, rel_name in enumerate(cr.body_names)
            if rel_name in stratum.relations
        ]
        recovery = self.recovery
        ckpt = None
        if recovery is not None and recovery.due(-1, True):
            ckpt = recovery.checkpoint(self, stratum, -1, True)
        iteration = -1
        changed = True
        while True:
            try:
                if iteration < 0:
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
                if recovery is not None and recovery.due(iteration, changed):
                    ckpt = recovery.checkpoint(self, stratum, iteration, changed)
            except RankFailure as failure:
                if ckpt is None:
                    raise  # no checkpoint to recover from — unrecoverable
                iteration, changed = recovery.recover(
                    self, stratum, ckpt, failure, at_iteration=iteration
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

    def _advance_and_count(self, stratum: Stratum) -> bool:
        """Promote Δs and run the distributed fixpoint test."""
        per_rank = np.zeros(self.config.n_ranks, dtype=np.int64)
        with self.timer.phase(P_OTHER):
            for name in stratum.relations:
                rel = self.store[name]
                rel.advance()
                per_rank += rel.sizes_by_rank("delta")
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
        shard layout and delivery order — the test plane's witness that
        a resize never bends the Δ *trajectory*.
        """
        out: Dict[str, int] = {}
        n_ranks = self.config.n_ranks
        for name in sorted(stratum.relations):
            rel = self.store[name]
            rows, segs = rel.table.stored("delta")
            owner = rel.rank_of_segment()[segs]
            # (xor, rows) per rank
            xors = np.zeros(n_ranks, dtype=np.uint64)
            np.bitwise_xor.at(xors, owner, hash_columns(
                rows, tuple(range(rel.schema.arity)), seed=self._FP_SEED
            ))
            parts = list(zip(
                map(int, xors), np.bincount(owner, minlength=n_ranks).tolist()
            ))
            acc = count = 0
            for part_acc, part_count in self.cluster.agree(parts):
                acc ^= part_acc
                count += part_count
            out[name] = (acc + count * 0x9E37_79B1) & 0xFFFF_FFFF_FFFF_FFFF
        return out

    def _record_iteration(self, stratum: Stratum, iteration: int, st: "_IterStats") -> None:
        # One snapshot of each clock, kept once: in self.trace, which a
        # rollback rewinds.  The iteration_summary instant repeats them
        # for offline traces, which have no result to read.
        phase_delta = self.cluster.ledger.snapshot()
        wall_delta = self.timer.snapshot()
        fingerprints = (
            self._delta_fingerprints(stratum)
            if self.config.diagnostics.delta_fingerprints
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
        The pipeline is written once here; the tuple representation lives
        in :attr:`_exec` (:mod:`repro.runtime.executor`).
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
                    rels[0].sizes_by_rank(vers[0]).tolist(),
                    rels[1].sizes_by_rank(vers[1]).tolist(),
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
        co_placed = self._co_placed(outer_rel, inner_rel, probe_cols)
        n_remote = 0
        recv = None
        with self.timer.phase(P_INTRA):
            home, home_ends, sends = ex.intra_sends(
                cr, outer_pos, outer_rel, outer_ver, inner_rel, probe_cols,
                co_placed,
            )
            if sends is not None:
                # Each rank serializes the copies it sends: with the wire
                # on, those that cross; off, every copy (§IV-C).
                per_rank_ser = np.bincount(
                    sends.src, sends.n_rows, minlength=cfg.n_ranks
                )
                if not self.wire:
                    per_rank_ser += np.diff(home_ends)
                cluster.ledger.add_compute_step(
                    P_INTRA, per_rank_ser * (cost.tuple_serialize * cost.compute_scale)
                )
                recv = cluster.alltoallv(
                    sends, arity=outer_rel.schema.arity, phase=P_INTRA
                )
                n_remote = int(sends.n_rows.sum())
            else:
                cluster.skip_superstep()
        n_intra = home.shape[0] + n_remote
        stats.intra_tuples += n_intra
        self.counters["intra_bucket_tuples"] += n_intra
        self.counters["intra_remote_tuples"] += n_remote

        # ---- phase: local join ----
        per_rank_probe = np.zeros(cfg.n_ranks, dtype=np.int64)
        per_rank_emit = np.zeros(cfg.n_ranks, dtype=np.int64)
        with self.timer.phase(P_JOIN):
            emitted = ex.local_join(
                cr, outer_pos, home, home_ends, recv, inner_rel, inner_ver,
                probe_cols, per_rank_probe, per_rank_emit,
                fold=self._wire_plans.get(cr.head_name),
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

    def _co_placed(
        self, outer: VersionedRelation, inner: VersionedRelation, probe_cols
    ) -> bool:
        """Whether no intra-bucket copy of the join can leave its rank:
        the wire is on, neither relation spreads a key (one sub-bucket or
        an empty heavy set), the outer is placed by the join key and both
        put each bucket's home cell on one rank, overlay included.  Read
        off the placements, never a row, so every slice agrees."""
        key = (outer.dist, inner.dist, tuple(probe_cols))
        if key not in self._co_placed_cache:
            self._co_placed_cache[key] = self.wire and (
                all(
                    rel.schema.n_subbuckets == 1 or rel.schema.heavy_keys == ()
                    for rel in (outer, inner)
                )
                and outer.schema.join_cols == key[2]
                and np.array_equal(
                    outer.dist.owner_table[:, 0], inner.dist.owner_table[:, 0]
                )
            )
        return self._co_placed_cache[key]

    # ------------------------------------------------ routing and absorption

    def _wire_exchange(self, head, sends, folded: Dict[int, int]):
        """The route all-to-all, through the wire layer when it is on:
        every received row with its segment, as the bounded runs
        :meth:`~repro.relational.storage.VersionedRelation.absorb` takes.

        Enabled, it ``delta``-encodes the payloads of the boxes bound
        for other ranks, each framed with its segment, charges the route
        step's sender fold (``folded`` rows per source) at serialization
        cost and the exchange at *encoded* bytes, lets the collective
        autotuner pick direct vs Bruck, and decodes on the receive side;
        disabled, boxes travel as built at their raw tuple size.
        """
        wire = self.wire
        cluster = self.cluster
        arity = head.schema.arity
        codec = payload_codec(wire)
        if wire:
            sends = encode_wire_sends(sends, codec=codec)
            if any(cluster.agree(
                [folded.get(r, 0) for r in range(self.config.n_ranks)]
            )):
                cost = cluster.cost
                per_tuple = cost.tuple_serialize * cost.compute_scale
                charge = np.zeros(self.config.n_ranks)
                for src, n_folded in folded.items():
                    charge[src] = n_folded * per_tuple
                cluster.ledger.add_compute_step(P_COMM, charge)
            pre0 = cluster.route_precombine_bytes
            wire0 = cluster.route_wire_bytes
            coll0 = dict(cluster.collective_counts)
        recv = cluster.alltoallv(sends, arity=arity, phase=P_COMM, autotune=wire)
        if wire:
            # Tally per exchange into the engine counters (not read off
            # the cluster at the end) so checkpoint rollback rewinds them
            # and a recovered run's books match a fault-free run's.
            self.counters["wire_precombine_bytes"] += (
                cluster.route_precombine_bytes - pre0
            )
            self.counters["wire_on_wire_bytes"] += cluster.route_wire_bytes - wire0
            for choice, n in cluster.collective_counts.items():
                self.counters[f"wire_collective_{choice}"] += n - coll0.get(choice, 0)
        # The delivery's table: on a per-rank slice, every slice's boxes.
        # A box's segment is its header word, read from its frame when it
        # crossed the wire.
        n_rows = recv.table.n_rows
        return [
            (rows, np.repeat(header[:, 0], n_rows[boxes]))
            for boxes, rows, header in decode_wire_boxes(recv, arity, codec)
        ]

    def _route_and_absorb(self, head_name: str, emitted, stats: "_IterStats") -> None:
        """All-to-all emitted tuples to their home shards and absorb them.

        ``emitted`` holds one row block per rank, or a ``(rows,
        pre_fold_counts)`` pair where the local join already folded.
        """
        head = self.store[head_name]
        cost = self.cluster.cost

        # ---- phase: all-to-all of materialized tuples ----
        with self.timer.phase(P_COMM):
            sends, n_comm, folded = build_route_sends(
                emitted, head.dist, self.wire,
                self._wire_plans.get(head_name),
            )
            routed = self._wire_exchange(head, sends, folded)
        stats.comm_tuples += n_comm
        self.counters["alltoall_tuples"] += n_comm

        # ---- phase: fused dedup / local aggregation ----
        touched = [] if self._audit and head.schema.is_aggregate else None
        with self.timer.phase(P_DEDUP):
            absorbed = head.absorb(routed, audit=touched)
            self.cluster.ledger.add_compute_step(
                P_DEDUP,
                absorbed.received * (cost.tuple_agg * cost.compute_scale)
                + absorbed.admitted * (cost.tuple_insert * cost.compute_scale),
            )
        if touched is not None:
            monotonicity_audit(head, touched)
        admitted = int(absorbed.admitted.sum())
        suppressed = int(absorbed.received.sum()) - admitted
        stats.admitted += admitted
        stats.suppressed += suppressed
        self.counters["admitted"] += admitted
        self.counters["suppressed"] += suppressed


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
