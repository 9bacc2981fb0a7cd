"""Checkpoint / rollback recovery: the plane ``Engine._stratum_loop`` calls.

A :class:`RecoveryManager` exists only when the run has a fault plane or
``checkpoint_every`` (``Engine.recovery`` is ``None`` otherwise, so an
un-checkpointed run executes none of this).  At each iteration boundary
the loop asks whether a checkpoint is :meth:`~RecoveryManager.due` and
takes it; every :class:`~repro.faults.plane.RankFailure` it catches goes
to :meth:`~RecoveryManager.recover`, which holds the one rollback:

1. shards and version generations of every checkpointed relation
   (:func:`repro.faults.checkpoint.restore`); no relation is resized
   inside a stratum, so its sub-bucket map needs no rollback;
2. the relations' cached join indexes (retired: the tables are new);
3. ``Engine.counters``, the iteration total and the trace, so a
   recovered run's books match a fault-free run's.

A restartable crash then restarts the rank ("restart with spare":
placement, and so the replay, is unchanged; re-absorbed tuples are
lattice no-ops).  A *permanent* loss finishes without the rank: its
first surviving buddy replica is found **before** anything is mutated
(:class:`~repro.faults.plane.UnrecoverableRankLoss` leaves the state
untouched), every relation gets the ``exclude_ranks`` placement overlay
— the owner function re-derived over the shrunken world, so survivors
agree without coordination — and the re-own is charged beside the
restore.  Placement never enters tuple *values* and absorption is
order-independent, so the degraded replay reaches the fault-free
answers, Δ fingerprints and iteration counts (the Algorithm-1 vote may
see other per-rank sizes; it only picks the probe direction).
"""

from __future__ import annotations

from collections import defaultdict
from typing import List, Optional, Tuple

import numpy as np

from repro.comm.costmodel import BYTES_PER_WORD, CommEvent
from repro.faults import checkpoint as ckpt_mod
from repro.faults.checkpoint import (
    DegradedStats,
    RecoveryStats,
    StratumCheckpoint,
    replica_buddies,
)
from repro.faults.plane import (
    PermanentRankFailure,
    RankFailure,
    UnrecoverableRankLoss,
)


def _state_bytes(store, names, n_ranks: int) -> np.ndarray:
    """Per-rank serialized bytes of the named relations."""
    per_rank = np.zeros(n_ranks, dtype=np.int64)
    for name in names:
        rel = store[name]
        per_rank += rel.sizes_by_rank() * (rel.schema.arity * BYTES_PER_WORD)
    return per_rank


class RecoveryManager:
    """Checkpoint cadence, capture, the one rollback and their accounting."""

    def __init__(self, config) -> None:
        self.config = config
        #: Fault/checkpoint/recovery accounting, exposed on the result.
        self.stats = RecoveryStats()
        #: Ranks permanently excluded from the world (elastic degraded
        #: mode): grows once per permanent loss, and every later replica
        #: ring is computed over the survivors.
        self.dead_ranks: set = set()
        self.degraded: Optional[DegradedStats] = None

    def due(self, iteration: int, changed: bool) -> bool:
        """Cadence: before the first pass (``iteration == -1``), then at
        every ``checkpoint_every``-th iteration that changed something."""
        every = self.config.recovery.checkpoint_every
        return every is not None and (
            iteration < 0 or (changed and iteration % every == 0)
        )

    # ------------------------------------------------------------ checkpoint

    def checkpoint(
        self, engine, stratum, iteration: int, changed: bool
    ) -> StratumCheckpoint:
        """Coordinated snapshot of the stratum's mutable relations.

        Only this stratum's heads can change inside its loop (EDBs and
        earlier strata are frozen by stratification).  Charged as every
        rank writing its partition to stable storage in parallel
        (``checkpoint`` phase).
        """
        cfg = self.config
        store, cluster = engine.store, engine.cluster
        names = sorted(stratum.relations)
        with engine.tracer.span(
            "checkpoint", cat="phase", stratum=stratum.index,
            attrs={"iteration": iteration},
        ):
            with engine.timer.phase("checkpoint"):
                ckpt = ckpt_mod.capture(
                    store,
                    names,
                    stratum=stratum.index,
                    iteration=iteration,
                    changed=changed,
                    iterations_total=engine._iterations,
                    counters=engine.counters,
                    trace_len=len(engine.trace),
                )
            per_rank = _state_bytes(store, names, cfg.n_ranks)
            seconds = cluster.cost.checkpoint_write(
                cfg.n_ranks, int(per_rank.max())
            )
            # Charged directly (not through a collective) so the fault
            # plane can never fire mid-checkpoint.
            cluster.ledger.add_comm(
                CommEvent(
                    kind="checkpoint",
                    phase="checkpoint",
                    nbytes=int(per_rank.sum()),
                    messages=cfg.n_ranks,
                    seconds=seconds,
                )
            )
            replica_bytes, replica_seconds = (
                self._replicate(engine, ckpt, names, per_rank)
                if cfg.recovery.replicas >= 1
                else (0, 0.0)
            )
        stats = self.stats
        stats.checkpoints += 1
        stats.checkpoint_tuples += ckpt.tuples
        stats.checkpoint_bytes += ckpt.nbytes
        stats.checkpoint_seconds += seconds
        stats.replica_bytes += replica_bytes
        stats.replica_seconds += replica_seconds
        return ckpt

    def _replicate(self, engine, ckpt, names, per_rank) -> Tuple[int, float]:
        """Buddy replication: each live rank mirrors its partition to the
        next ``replicas`` live ranks on the ring.  The mirrors are what
        make a *permanent* loss survivable; a checkpoint without them
        only covers restartable crashes.  Returns (bytes, seconds)."""
        cfg = self.config
        live = sorted(set(range(cfg.n_ranks)) - self.dead_ranks)
        ckpt.live_ranks = live
        if len(live) <= 1:
            return 0, 0.0
        eff = min(cfg.recovery.replicas, len(live) - 1)
        nbytes = int(per_rank[live].sum()) * eff
        seconds = engine.cluster.cost.checkpoint_replicate(
            cfg.n_ranks, int(per_rank.max()), cfg.recovery.replicas
        )
        engine.cluster.ledger.add_comm(
            CommEvent(
                kind="replica",
                phase="checkpoint",
                nbytes=nbytes,
                messages=len(live) * eff,
                seconds=seconds,
            )
        )
        if engine.comm_recorder is not None:
            per_rank_tuples = np.zeros(cfg.n_ranks, dtype=np.int64)
            for name in names:
                per_rank_tuples += engine.store[name].sizes_by_rank()
            m = engine.comm_recorder.begin("replica", "checkpoint")
            for rank in live:
                for buddy in replica_buddies(rank, live, cfg.recovery.replicas):
                    m.add(
                        rank,
                        buddy,
                        int(per_rank[rank]),
                        int(per_rank_tuples[rank]),
                        channel="replica",
                    )
        return nbytes, seconds

    # -------------------------------------------------------------- recovery

    def recover(
        self,
        engine,
        stratum,
        ckpt: StratumCheckpoint,
        failure: RankFailure,
        *,
        at_iteration: int,
    ) -> Tuple[int, bool]:
        """Roll the stratum back to ``ckpt`` after ``failure`` (restart
        the rank, or finish without it — module docstring); returns the
        ``(iteration, changed)`` loop position to resume from."""
        cfg = self.config
        store, cluster = engine.store, engine.cluster
        rank = failure.rank
        permanent = isinstance(failure, PermanentRankFailure)
        attrs = {
            "failed_rank": rank,
            "superstep": failure.superstep,
            "detected_at": failure.where,
            "restored_iteration": ckpt.iteration,
        }
        if permanent:
            buddy = self._surviving_buddy(ckpt, failure)
            attrs.update(permanent=True, replica_buddy=buddy)
        in_flight = at_iteration + 1 if at_iteration >= 0 else 0
        with engine.tracer.span(
            "recovery", cat="phase", stratum=stratum.index, attrs=attrs
        ):
            with engine.timer.phase("recovery"):
                # What the failed rank held when it crashed.
                failed_bytes = int(
                    _state_bytes(store, ckpt.relations, cfg.n_ranks)[rank]
                )
                ckpt_mod.restore(store, ckpt)
                engine.counters = defaultdict(int)
                engine.counters.update(ckpt.counters)
                engine._iterations = ckpt.iterations_total
                del engine.trace[ckpt.trace_len:]
                if permanent:
                    reowned = self._reown(store, ckpt, rank)
            per_rank = _state_bytes(store, ckpt.relations, cfg.n_ranks)
            seconds = self._charge_restore(
                cluster, int(per_rank.max()), failed_bytes
            )
            if permanent:
                seconds += self._book_reown(engine, ckpt, rank, buddy, *reowned)
            elif engine.fault_plane is not None:
                engine.fault_plane.mark_restarted(rank)
        stats = self.stats
        stats.failures += 1
        stats.recoveries += 1
        stats.rolled_back_iterations += max(
            0, in_flight - max(ckpt.iteration, 0)
        )
        stats.recovery_seconds += seconds
        stats.events.append((stratum.index, in_flight, ckpt.iteration))
        return ckpt.iteration, ckpt.changed

    def restart(self, engine, failure: RankFailure) -> None:
        """Restart ``failure``'s rank in place, outside any stratum, for
        a step that mutates nothing before its collectives return
        (``Engine._restartable`` then runs it again), so nothing rolls
        back.  The replacement rank alone re-fetches the shards the
        failed rank held, charged like :meth:`recover`'s restore, and
        the failure and the recovery are counted as the loop's are."""
        cfg = self.config
        failed_bytes = int(_state_bytes(
            engine.store, engine.store.relations, cfg.n_ranks
        )[failure.rank])
        with engine.tracer.span("recovery", cat="phase", attrs={
            "failed_rank": failure.rank,
            "superstep": failure.superstep,
            "detected_at": failure.where,
        }):
            seconds = self._charge_restore(
                engine.cluster, failed_bytes, failed_bytes
            )
            engine.fault_plane.mark_restarted(failure.rank)
        self.stats.failures += 1
        self.stats.recoveries += 1
        self.stats.recovery_seconds += seconds

    def _charge_restore(
        self, cluster, max_rank_bytes: int, failed_bytes: int
    ) -> float:
        """Charge a restart's restore to the ``recovery`` phase."""
        n_ranks = self.config.n_ranks
        seconds = cluster.cost.recovery_restore(
            n_ranks, max_rank_bytes, failed_bytes
        )
        cluster.ledger.add_comm(
            CommEvent(
                kind="recovery",
                phase="recovery",
                nbytes=failed_bytes,
                messages=n_ranks,
                seconds=seconds,
            )
        )
        return seconds

    # What a permanent loss adds around the rollback.

    def _surviving_buddy(
        self, ckpt: StratumCheckpoint, failure: PermanentRankFailure
    ) -> int:
        """First surviving replica buddy of a permanently lost rank.
        Raises :class:`UnrecoverableRankLoss` — loudly, never silently
        wrong — when no replica of its state survives; pure, so the raise
        leaves everything untouched."""
        if self.config.recovery.replicas < 1:
            raise UnrecoverableRankLoss(
                failure.rank,
                failure.superstep,
                "no checkpoint replica exists (replicas=0); "
                "rerun with --replicas >= 1",
            )
        buddies = replica_buddies(
            failure.rank, ckpt.live_ranks, self.config.recovery.replicas
        )
        for buddy in buddies:
            if buddy not in self.dead_ranks:
                return buddy
        raise UnrecoverableRankLoss(
            failure.rank,
            failure.superstep,
            f"all replica buddies {buddies} of the lost rank are dead "
            "too; rerun with a higher --replicas",
        )

    def _reown(self, store, ckpt: StratumCheckpoint, rank: int):
        """Install the placement overlay excluding ``rank`` on EVERY
        relation (EDBs included — a dead rank owns nothing anymore).

        Returns the checkpoint-state bytes and tuples the dead rank held
        (exactly what the buddy's mirror restores) and one ``(new owner,
        bytes, tuples)`` move per re-owned shard.
        """
        restored_bytes = int(
            _state_bytes(store, ckpt.relations, self.config.n_ranks)[rank]
        )
        restored_tuples = sum(
            int(store[name].sizes_by_rank()[rank]) for name in ckpt.relations
        )
        moves: List[Tuple[int, int, int]] = []
        for _name, rel in sorted(store.relations.items()):
            segs, sizes = np.unique(rel.table.stored()[1], return_counts=True)
            lost = rel.rank_of_segment()[segs] == rank
            rel.exclude_ranks({rank})
            for owner, tuples in zip(
                rel.rank_of_segment()[segs[lost]].tolist(), sizes[lost].tolist()
            ):
                moves.append(
                    (owner, tuples * rel.schema.arity * BYTES_PER_WORD, tuples)
                )
        return restored_bytes, restored_tuples, moves

    def _book_reown(
        self, engine, ckpt, rank, buddy, restored_bytes, restored_tuples, moves
    ) -> float:
        """Charge the re-own, retire the rank and account the degraded
        world; returns the modeled seconds of the re-owning collective."""
        seconds = engine.cluster.cost.recovery_reown(
            self.config.n_ranks, restored_bytes
        )
        engine.cluster.ledger.add_comm(
            CommEvent(
                kind="reown",
                phase="recovery",
                nbytes=restored_bytes,
                messages=max(1, len(ckpt.live_ranks) - 1),
                seconds=seconds,
            )
        )
        if engine.comm_recorder is not None:
            m = engine.comm_recorder.begin("reown", "recovery")
            for dst, nbytes, tuples in moves:
                m.add(buddy, dst, nbytes, tuples, channel="recovery")
        self.dead_ranks.add(rank)
        if engine.fault_plane is not None:
            engine.fault_plane.mark_excluded(rank)
        if self.degraded is None:
            self.degraded = DegradedStats()
        deg = self.degraded
        deg.excluded_ranks.append(rank)
        deg.epoch += 1
        deg.reowned_shards += len(moves)
        deg.restored_tuples += restored_tuples
        deg.restored_bytes += restored_bytes
        deg.replica_sources.append((rank, buddy))
        deg.reown_seconds += seconds
        return seconds
