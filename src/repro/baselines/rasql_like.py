"""RaSQL/BigDatalog-style engine: aggregate-oblivious distribution.

Paper §IV-A: "our investigation into the implementations of both
BigDatalog and RaSQL use a global hashmap with a special partition key to
store intermediate results during recursive computations.  This inter-node
recursive aggregation operation and global auxiliary structure greatly
increases the communication overhead."

This engine reproduces that strategy on our substrate:

1. join-generated candidates are shuffled to a **global aggregation
   hashmap** partitioned by group key (all-to-all #1) — the candidate
   stream includes every non-improving tuple, since suppression can only
   happen *after* this shuffle;
2. improvements are shuffled **again** into the join-layout relation
   (all-to-all #2) so the next iteration can join on them.

PARALAGG pays exactly one all-to-all for the same work, because its
placement makes the aggregation group's home rank and the join-layout home
rank the *same* rank.  The engine also uses a static join order (Spark
plans don't re-order per iteration) and no sub-bucketing, and its cost
model adds Spark scheduling latency and a driver serial fraction.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.serial import SerialFractionLedger
from repro.comm.boxes import BoxTable
from repro.comm.costmodel import CostModel
from repro.kernels.block import group_columns
from repro.planner.ast import Program
from repro.relational.schema import Schema
from repro.relational.storage import VersionedRelation
from repro.runtime.config import EngineConfig
from repro.runtime.engine import Engine, P_COMM, P_DEDUP
from repro.runtime.executor import ColumnarExecutor
from repro.util.hashing import HashSeed


def rasql_cost_model(compute_scale: float = 1.0) -> CostModel:
    """Cost constants for a Spark-on-one-node deployment.

    Shuffles ride the local filesystem/serialization stack (lower β, higher
    α than MPI), and every tuple crosses a JVM (de)serialization boundary.
    ``compute_scale`` is the same work-density κ the PARALAGG runs use, so
    cross-engine comparisons stay apples-to-apples.
    """
    return CostModel(
        alpha=2.0e-5,       # task scheduling + shuffle setup per message
        beta=2.0e9,         # serialized shuffle bandwidth
        tuple_probe=1.1e-7,
        tuple_emit=6.0e-8,
        tuple_insert=2.2e-7,
        tuple_agg=9.0e-8,
        tuple_serialize=1.2e-7,  # Kryo/Java serialization per tuple
        compute_scale=compute_scale,
    )


class _UnfoldedJoin(ColumnarExecutor):
    """The local join without its sender fold: the global hashmap's
    shuffle carries every join candidate, suppressed ones included."""

    def local_join(
        self, cr, outer_pos, received, inner_rel, inner_ver, probe_cols,
        per_rank_probe, per_rank_emit, fold=None,
    ):
        return super().local_join(
            cr, outer_pos, received, inner_rel, inner_ver, probe_cols,
            per_rank_probe, per_rank_emit,
        )


def _groups(keys: np.ndarray):
    """``(first, rows)`` per distinct value of ``keys``, in order of first
    appearance; ``rows`` are the value's row indices in arrival order."""
    order, starts, counts = group_columns([keys])
    for s0 in np.argsort(order[starts], kind="stable").tolist():
        lo, n = int(starts[s0]), int(counts[s0])
        yield int(keys[order[lo]]), order[lo : lo + n]


class RaSQLLikeEngine(Engine):
    """Engine variant modeling RaSQL/BigDatalog's aggregation strategy."""

    #: Fraction of per-superstep compute serialized at the Spark driver.
    SERIAL_FRACTION = 0.06

    def __init__(
        self,
        program: Program,
        config: Optional[EngineConfig] = None,
        *,
        serial_fraction: Optional[float] = None,
    ):
        config = replace(
            config or EngineConfig(),
            dynamic_join=False,           # static plan, as compiled by Spark
            static_outer="left",
            subbuckets={},                # no spatial load balancing
            default_subbuckets=1,
        )
        if config.cost_model is None:
            config = replace(config, cost_model=rasql_cost_model())
        super().__init__(program, config)
        self._exec = _UnfoldedJoin()
        # serial_fraction=0 isolates the *algorithmic* communication
        # difference from Spark's driver constants (ablation use).
        frac = self.SERIAL_FRACTION if serial_fraction is None else serial_fraction
        self.cluster.ledger = SerialFractionLedger(
            n_ranks=config.n_ranks, serial_fraction=frac, tracer=self.tracer
        )
        # The "global hashmap": one auxiliary store per aggregate relation,
        # partitioned by the full group key (its own hash space).
        self._agg_stores: Dict[str, VersionedRelation] = {}
        for name, schema in self.compiled.schemas.items():
            if schema.is_aggregate:
                agg_schema = Schema(
                    name=f"{name}__globalagg",
                    arity=schema.arity,
                    join_cols=tuple(range(schema.n_indep)),
                    n_dep=schema.n_dep,
                    aggregator=schema.aggregator,
                    n_subbuckets=1,
                )
                self._agg_stores[name] = VersionedRelation(
                    agg_schema,
                    config.n_ranks,
                    seed=HashSeed().derive(config.seed ^ 0xA66),
                )

    # ---------------------------------------------------------------- absorb

    def _route_and_absorb(
        self,
        head_name: str,
        emitted: Dict[int, np.ndarray],
        stats,
    ) -> None:
        head = self.store[head_name]
        if not head.schema.is_aggregate:
            super()._route_and_absorb(head_name, emitted, stats)
            return
        agg_rel = self._agg_stores[head_name]
        cost = self.cluster.cost

        # ---- all-to-all #1: candidates → global aggregation hashmap ----
        # One box per (source, destination), sources and destinations
        # ascending, each box's rows in arrival order.
        with self.timer.phase(P_COMM):
            blocks = {s: b for s, b in emitted.items() if b.shape[0]}
            rows = np.concatenate(
                [*blocks.values(), np.zeros((0, head.schema.arity), dtype=np.int64)]
            )
            src = np.repeat(
                np.asarray(list(blocks), dtype=np.int64),
                [b.shape[0] for b in blocks.values()],
            )
            dst = agg_rel.dist.rank_of_rows(rows)
            order, starts, counts = group_columns([src, dst])
            heads = order[starts]
            n_comm = rows.shape[0]
            recv = self.cluster.alltoallv(
                BoxTable(src[heads], dst[heads], counts, rows=rows[order]),
                arity=head.schema.arity,
                phase=P_COMM,
            )
        stats.comm_tuples += n_comm
        self.counters["alltoall_tuples"] += n_comm

        # ---- merge into the global hashmap; harvest improvements ----
        # Each rank's arrivals, shard by shard in order of first arrival:
        # every admitted arrival's row, in arrival order.  One absorb
        # takes every rank's, rank after rank, so the collected rows
        # come out rank after rank too.
        improved: Dict[int, np.ndarray] = {}
        with self.timer.phase(P_DEDUP):
            receivers, parts, segs = [], [], []
            for r, rows in recv.rows():
                receivers.append(r)
                for seg, idx in _groups(agg_rel.segments_of_rows(rows)):
                    parts.append(rows[idx])
                    segs.append(np.full(idx.shape[0], seg, dtype=np.int64))
            runs = [(np.concatenate(parts), np.concatenate(segs))] if parts else []
            out: List[np.ndarray] = []
            absorbed = agg_rel.absorb(runs, collect=out)
            if out:
                rows = np.concatenate(out)
                ends = np.cumsum(absorbed.admitted[receivers]).tolist()
                for r, lo, hi in zip(receivers, [0, *ends[:-1]], ends):
                    improved[r] = rows[lo:hi]
            stats.suppressed += int(absorbed.suppressed.sum())
            self.cluster.ledger.add_compute_step(
                P_DEDUP,
                absorbed.received * (cost.tuple_agg * cost.compute_scale)
                + absorbed.admitted * (cost.tuple_insert * cost.compute_scale),
            )
        self.counters["globalagg_tuples"] += int(absorbed.received.sum())

        # ---- all-to-all #2: improvements → join-layout relation ----
        # (PARALAGG avoids this round entirely: its group home rank IS the
        # join-layout home rank.)
        super()._route_and_absorb(head_name, improved, stats)

    def _advance_and_count(self, stratum) -> bool:
        for rel in self._agg_stores.values():
            rel.advance()  # keep auxiliary Δs from accumulating
        return super()._advance_and_count(stratum)
