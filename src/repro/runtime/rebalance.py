"""Online adaptive spatial rebalancing (paper §IV-C, closed-loop; PR 8).

The static engine fixes every relation's sub-bucket count up front
(``Schema.n_subbuckets``), and the PR 6 skew doctor merely *reports* when
a hot join key concentrates a relation on one bucket.  This module closes
the loop: every ``EngineConfig.rebalance_every`` iterations of a
recursive stratum the engine measures per-bucket occupancy, and past a
configurable top-bucket/Gini threshold it grows the offending relation's
sub-bucket count **mid-fixpoint**, re-hashing the shards and moving rows
through an intra-bucket alltoallv redistribution exchange.

Correctness story, proven by ``tests/test_rebalance.py``:

* the exchange preserves the exact tuple multiset of both versions
  (full and Δ) — property-tested over arbitrary shard contents;
* a tuple's bucket never changes on a resize (join columns and hash
  seed are fixed), so redistribution is purely intra-bucket traffic;
* results, Δ trajectories and iteration counts are bit-identical to a
  static run — only placement (and hence modeled time) moves;
* every installed row, segment and charge equals the per-box tuple
  protocol the exchange replaced (kept in the tests as the reference);
* the trigger is a pure function of replicated post-checkpoint state,
  and the manager's bookkeeping rides in stratum checkpoints, so crash
  rollback replays every rebalance decision deterministically.

Cost honesty: the periodic decision is charged as an allgather (each
rank contributes its bucket occupancy), and the exchange is one
:class:`~repro.comm.boxes.BoxTable` through the wire layer like every
other all-to-all — codec-encoded payloads charged at encoded bytes to
the α–β model, recorded as a ``rebalance`` CommEvent/CommMatrix channel
and a ``rebalance`` trace instant.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.comm.boxes import BoxTable, Delivery
from repro.comm.wire import payload_codec
from repro.core.balancer import recommend_subbuckets
from repro.kernels.route import decode_wire_boxes, encode_wire_sends, home_boxes
from repro.obs.analysis import gini

#: Ledger/timer phase and CommMatrix channel for everything this module does.
REBALANCE_PHASE = "rebalance"


@dataclass(frozen=True)
class SkewMeasure:
    """Per-bucket occupancy summary of one relation (the trigger input)."""

    total: int
    top_share: float
    gini: float
    n_buckets: int


@dataclass
class RebalanceEvent:
    """One executed mid-fixpoint resize (surfaced on the result/trace)."""

    relation: str
    stratum: int
    iteration: int
    old_subbuckets: int
    new_subbuckets: int
    #: Which policy chose the target: ``"recommend"`` (first trigger,
    #: seeded from :func:`repro.core.balancer.recommend_subbuckets`) or
    #: ``"double"`` (subsequent growth).
    policy: str
    top_share: float
    gini: float
    total_tuples: int
    shipped_tuples: int
    moved_tuples: int
    wire_bytes: int
    #: Fault-plane superstep of the redistribution exchange (-1 without a
    #: fault plane) — lets chaos tests aim a crash mid-rebalance.
    superstep: int

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


def measure_bucket_skew(rel) -> Optional[SkewMeasure]:
    """Bucket-occupancy skew of one relation (the skew doctor's math).

    Full sizes per bucket over the non-empty buckets; order-independent.
    """
    by_bucket = np.bincount(rel.table.stored()[1] // rel.schema.n_subbuckets)
    sizes = by_bucket[by_bucket > 0].tolist()
    total = sum(sizes)
    if total <= 0:
        return None
    return SkewMeasure(
        total=total,
        top_share=max(sizes) / total,
        gini=gini(sizes),
        n_buckets=len(sizes),
    )


def reshard_relation(
    rel,
    n_subbuckets: int,
    cluster,
    *,
    wire: bool = False,
    phase: str = REBALANCE_PHASE,
) -> Dict[str, int]:
    """Resize ``rel`` to ``n_subbuckets`` via the redistribution exchange.

    Standalone (no Engine needed — the property tests drive it directly):

    1. take every old shard's full then Δ rows, each in nested order,
       as one source block each;
    2. re-hash every row under the new placement and cut one box table
       by (source block, bucket, new sub-bucket)
       (:func:`~repro.kernels.route.home_boxes`), each box's version
       and new segment kept in box-aligned arrays, the payloads
       ``delta``-encoded when ``wire`` is on and ``raw`` otherwise;
    3. one alltoallv charged at encoded bytes (collective autotuned
       when ``wire`` is on), ``kind="rebalance"``,
       into the CommMatrix ``rebalance`` channel;
    4. install the delivered boxes into a fresh row table, receivers in
       rank order, each one's boxes in delivery order, first copy only.

    Nothing is mutated before the collective returns, so a rank crash
    surfacing inside the exchange leaves the relation untouched for
    checkpoint rollback.  Returns shipped/moved/byte totals.
    """
    if n_subbuckets == rel.schema.n_subbuckets:
        return {"shipped": 0, "moved": 0, "wire_bytes": 0}
    new_schema = dataclasses.replace(rel.schema, n_subbuckets=n_subbuckets)
    new_dist = rel.dist.with_subbuckets(n_subbuckets)
    codec = payload_codec(wire)
    # Source blocks in (old segment, full before Δ) order: the full
    # version keyed 2·seg, Δ 2·seg + 1, each in nested order.
    full, full_segs = rel.table.version("full")
    delta, delta_segs = rel.table.version("delta")
    block = np.concatenate([2 * full_segs, 2 * delta_segs + 1])
    block_heads, box = home_boxes(block, np.concatenate([full, delta]), new_dist)
    src = rel.rank_of_segment()[block_heads >> 1]
    # Boxes by receiver, then sender, each message's in block order: the
    # order the install reads them in, so a fault-free delivery decodes
    # slices of the payload buffer, not gathers of it.
    k = np.lexsort((src, box["dst"]))
    kinds = (block_heads & 1)[k]
    segs = (box["bucket"] * n_subbuckets + box["sub"])[k]
    row_lo = np.cumsum(box["n_rows"]) - box["n_rows"]
    table = encode_wire_sends(BoxTable(
        src[k], box["dst"][k], box["n_rows"][k], rows=box["rows"], row_lo=row_lo[k]
    ), codec=codec)
    remote = table.src != table.dst
    n_shipped = int(table.n_rows.sum())
    n_moved = int(table.n_rows[remote].sum())
    wire_bytes = int(table.nbytes[remote].sum())
    recv = cluster.alltoallv(
        table,
        arity=new_schema.arity,
        phase=phase,
        kind="rebalance",
        channel="rebalance",
        autotune=wire,
    )
    # The fault plane models at-least-once delivery; absorb-style
    # exchanges shrug off duplicates via set semantics, but this install
    # replaces the relation's rows wholesale.  So receivers go in rank
    # order, each one's boxes in delivery order, and a re-delivered box
    # index is dropped.
    order = recv.order[np.argsort(table.dst[recv.order], kind="stable")]
    first = np.sort(np.unique(order, return_index=True)[1])
    runs = decode_wire_boxes(Delivery(table, order[first]), new_schema.arity, codec)
    rel.install_reshard(new_schema, [
        (rows, np.repeat(segs[boxes], table.n_rows[boxes]),
         np.repeat(kinds[boxes], table.n_rows[boxes]))
        for boxes, rows in runs
    ])
    return {"shipped": n_shipped, "moved": n_moved, "wire_bytes": wire_bytes}


class RebalanceManager:
    """The engine's online rebalancing policy and bookkeeping.

    Stateless between runs except for the event log and the set of
    relations whose first resize consulted the offline recommender —
    both captured into stratum checkpoints (via :meth:`state`) so a
    crash rollback replays decisions bit-for-bit.
    """

    def __init__(self, config) -> None:
        self.config = config
        self.events: List[RebalanceEvent] = []
        #: Relations whose first trigger already seeded from the offline
        #: recommender; later triggers plain-double.
        self._seeded: Set[str] = set()

    # ------------------------------------------------------- checkpoint state

    def state(self) -> Dict[str, object]:
        return {
            "events_len": len(self.events),
            "seeded": tuple(sorted(self._seeded)),
        }

    def restore_state(self, state: Optional[Dict[str, object]]) -> None:
        if state is None:
            return
        del self.events[int(state["events_len"]):]
        self._seeded = set(state["seeded"])

    # --------------------------------------------------------------- policy

    def eligible_names(self, store) -> List[str]:
        """Relations a sub-bucket resize can help: those with non-join
        independent columns (the sub-bucket hash input)."""
        return sorted(
            name
            for name, rel in store.relations.items()
            if rel.schema.other_cols
        )

    def _target_subbuckets(
        self, rel, measure: SkewMeasure
    ) -> Optional[Tuple[int, str]]:
        """Trigger test + target count for one relation; None = keep."""
        cfg = self.config
        n_sub = rel.schema.n_subbuckets
        if n_sub >= cfg.rebalance_max_subbuckets:
            return None
        if measure.total < cfg.rebalance_min_tuples:
            return None
        if measure.top_share < cfg.rebalance_threshold:
            return None
        # Projected tuples on the hottest rank relative to the mean, if
        # the top bucket's mass splits across the current fan-out.  Once
        # the fan-out covers the skew this drops under the factor and
        # growth self-extinguishes.
        overload = measure.top_share * rel.n_ranks / n_sub
        if overload < cfg.rebalance_factor:
            return None
        doubled = min(n_sub * 2, cfg.rebalance_max_subbuckets)
        if rel.schema.name not in self._seeded:
            # First trigger: seed from the offline recommender (satellite
            # of the paper's "if ... still imbalanced" rule), never less
            # than one doubling.
            self._seeded.add(rel.schema.name)
            recommended, _report = recommend_subbuckets(
                list(rel.iter_full()),
                rel.schema,
                rel.n_ranks,
                max_subbuckets=cfg.rebalance_max_subbuckets,
                seed=rel.dist.seed,
            )
            target = max(doubled, recommended)
            return min(target, cfg.rebalance_max_subbuckets), "recommend"
        return doubled, "double"

    # ----------------------------------------------------------------- hook

    def maybe_rebalance(self, engine, stratum, iteration: int) -> int:
        """The engine's periodic hook: measure, decide, redistribute.

        Runs at an iteration boundary (Δs advanced, no pending absorbs).
        Charges one decision allgather per check — each rank contributes
        its local bucket occupancy — then executes every triggered
        resize.  Returns the number of relations resized.
        """
        store = engine.store
        names = self.eligible_names(store)
        if not names:
            return 0
        cluster = engine.cluster
        plane = engine.fault_plane
        n_resized = 0
        with engine.timer.phase(REBALANCE_PHASE):
            # The decision rendezvous: bucket occupancies are replicated
            # so every rank reaches the same verdict.  Also the first
            # crash point of a rebalance round.
            cluster.allgather(
                [len(names)] * engine.config.n_ranks,
                nbytes_per_rank=2 * 8 * len(names),
                phase=REBALANCE_PHASE,
            )
            for name in names:
                rel = store[name]
                measure = measure_bucket_skew(rel)
                if measure is None:
                    continue
                decision = self._target_subbuckets(rel, measure)
                if decision is None:
                    continue
                target, policy = decision
                old_n = rel.schema.n_subbuckets
                step = plane.superstep if plane is not None else -1
                info = reshard_relation(
                    rel,
                    target,
                    cluster,
                    wire=engine.wire,
                    phase=REBALANCE_PHASE,
                )
                # The relation's schema object changed; keep the compiled
                # program's view (used by routing and explain) in sync and
                # drop every join index built under the old placement.
                engine.compiled.schemas[name] = rel.schema
                engine._exec.invalidate()
                event = RebalanceEvent(
                    relation=name,
                    stratum=stratum.index,
                    iteration=iteration,
                    old_subbuckets=old_n,
                    new_subbuckets=rel.schema.n_subbuckets,
                    policy=policy,
                    top_share=measure.top_share,
                    gini=measure.gini,
                    total_tuples=measure.total,
                    shipped_tuples=info["shipped"],
                    moved_tuples=info["moved"],
                    wire_bytes=info["wire_bytes"],
                    superstep=step,
                )
                self.events.append(event)
                # Tallied into engine counters (not read off the cluster
                # at the end) so checkpoint rollback rewinds them.
                engine.counters["rebalance_events"] += 1
                engine.counters["rebalance_shipped_tuples"] += info["shipped"]
                engine.counters["rebalance_moved_tuples"] += info["moved"]
                engine.counters["rebalance_wire_bytes"] += info["wire_bytes"]
                engine.tracer.instant(
                    "rebalance", cat=REBALANCE_PHASE, attrs=event.to_dict()
                )
                n_resized += 1
        return n_resized
