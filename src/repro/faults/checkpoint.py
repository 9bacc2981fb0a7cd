"""Iteration-boundary checkpoints and recovery bookkeeping.

A :class:`StratumCheckpoint` is a coordinated snapshot of everything a
stratum's fixpoint loop mutates: the row table of every relation in the
stratum (deep-copied, so later iterations cannot alias into it), the
engine's tuple counters, and the loop's position.  Because the simulated
cluster is one process, "each rank writes its shard partition to stable
storage" collapses to a deep copy — the *modeled* cost of the parallel
write is still charged to the ledger by the engine
(:meth:`repro.comm.costmodel.CostModel.checkpoint_write`).

Restores deep-copy *out of* the snapshot, so one checkpoint survives any
number of rollbacks (repeated failures within one interval all recover
from the same boundary).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.comm.costmodel import BYTES_PER_WORD
from repro.faults.plane import InjectionStats

TupleT = Tuple[int, ...]


@dataclass
class RelationSnapshot:
    """Frozen row table of one relation (plus version generations)."""

    table: object
    full_gen: int
    delta_gen: int
    tuples: int
    nbytes: int


@dataclass
class StratumCheckpoint:
    """One coordinated snapshot of a stratum's mutable state.

    ``iteration == -1`` marks the pre-seed checkpoint (the stratum has not
    run its naive pass yet); ``iteration == k >= 0`` means iterations
    ``0..k`` are fully absorbed and Δ-advanced.
    """

    stratum: int
    iteration: int
    changed: bool
    #: Engine-level totals at capture time, restored verbatim on rollback
    #: so replayed work is not double-counted.
    iterations_total: int
    counters: Dict[str, int]
    trace_len: int
    relations: Dict[str, RelationSnapshot] = field(default_factory=dict)
    #: Ranks alive at capture time (the buddy ring is computed over
    #: these); ``None`` when replication is off.
    live_ranks: Optional[List[int]] = None

    @property
    def tuples(self) -> int:
        return sum(snap.tuples for snap in self.relations.values())

    @property
    def nbytes(self) -> int:
        return sum(snap.nbytes for snap in self.relations.values())


def capture(
    store,
    names,
    *,
    stratum: int,
    iteration: int,
    changed: bool,
    iterations_total: int,
    counters: Dict[str, int],
    trace_len: int,
) -> StratumCheckpoint:
    """Snapshot the named relations (deep copy) plus loop position."""
    ckpt = StratumCheckpoint(
        stratum=stratum,
        iteration=iteration,
        changed=changed,
        iterations_total=iterations_total,
        counters=dict(counters),
        trace_len=trace_len,
    )
    for name in sorted(names):
        rel = store[name]
        tuples = rel.full_size()
        ckpt.relations[name] = RelationSnapshot(
            table=copy.deepcopy(rel.table),
            full_gen=rel.full_gen,
            delta_gen=rel.delta_gen,
            tuples=tuples,
            nbytes=tuples * rel.schema.arity * BYTES_PER_WORD,
        )
    return ckpt


def restore(store, ckpt: StratumCheckpoint) -> None:
    """Roll the named relations back to the checkpoint's row tables.

    Deep-copies out of the snapshot (the checkpoint stays reusable); the
    restored tables are new objects, so every join index a relation
    cached over the old ones is rebuilt on its next use.
    """
    for name, snap in ckpt.relations.items():
        rel = store[name]
        rel.table = copy.deepcopy(snap.table)
        rel.full_gen = snap.full_gen
        rel.delta_gen = snap.delta_gen


def replica_buddies(rank: int, live_ranks, replicas: int) -> List[int]:
    """The buddy ring: ranks mirroring ``rank``'s snapshot.

    Buddies of ``live[i]`` are ``live[i+1 .. i+replicas]`` (mod the live
    count) — a ring over the *live* ranks at capture time, so buddies are
    always candidates to survive the holder.  Deterministic and
    computable by every rank without coordination.
    """
    live = sorted(live_ranks)
    if rank not in live or replicas <= 0 or len(live) <= 1:
        return []
    i = live.index(rank)
    n = len(live)
    out: List[int] = []
    for k in range(1, min(replicas, n - 1) + 1):
        out.append(live[(i + k) % n])
    return out


@dataclass
class RecoveryStats:
    """Fault, checkpoint and recovery accounting for one run."""

    checkpoints: int = 0
    checkpoint_tuples: int = 0
    checkpoint_bytes: int = 0
    checkpoint_seconds: float = 0.0
    #: Buddy-replication traffic (``replicas`` mirror copies per
    #: checkpoint), charged on top of the local checkpoint write.
    replica_bytes: int = 0
    replica_seconds: float = 0.0
    failures: int = 0
    recoveries: int = 0
    rolled_back_iterations: int = 0
    recovery_seconds: float = 0.0
    injected: InjectionStats = field(default_factory=InjectionStats)
    #: (stratum, detected-at iteration, restored-to iteration) per
    #: rollback; a restart outside the stratum loop rolls nothing back.
    events: List[Tuple[int, int, int]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "checkpoints": self.checkpoints,
            "checkpoint_tuples": self.checkpoint_tuples,
            "checkpoint_bytes": self.checkpoint_bytes,
            "checkpoint_seconds": self.checkpoint_seconds,
            "replica_bytes": self.replica_bytes,
            "replica_seconds": self.replica_seconds,
            "failures": self.failures,
            "recoveries": self.recoveries,
            "rolled_back_iterations": self.rolled_back_iterations,
            "recovery_seconds": self.recovery_seconds,
            "injected": self.injected.as_dict(),
        }


@dataclass
class DegradedStats:
    """What elastic degraded-mode recovery did after a permanent loss.

    Populated on :class:`repro.runtime.result.FixpointResult` only when a
    rank was lost for good and the run finished on the shrunken world.
    """

    #: Ranks permanently excluded from the world, in exclusion order.
    excluded_ranks: List[int] = field(default_factory=list)
    #: Placement epoch: bumps once per exclusion (0 = never degraded).
    epoch: int = 0
    #: Shards whose ownership moved off dead ranks onto survivors.
    reowned_shards: int = 0
    #: Tuples / bytes restored from buddy replicas (the dead ranks' state).
    restored_tuples: int = 0
    restored_bytes: int = 0
    #: ``(dead_rank, buddy_rank)`` — which surviving buddy supplied each
    #: dead rank's replica.
    replica_sources: List[Tuple[int, int]] = field(default_factory=list)
    #: Modeled seconds spent in the re-owning collective.
    reown_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "excluded_ranks": list(self.excluded_ranks),
            "epoch": self.epoch,
            "reowned_shards": self.reowned_shards,
            "restored_tuples": self.restored_tuples,
            "restored_bytes": self.restored_bytes,
            "replica_sources": [list(p) for p in self.replica_sources],
            "reown_seconds": self.reown_seconds,
        }
