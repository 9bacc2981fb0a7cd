"""Online adaptive spatial rebalancing (paper §IV-C, closed-loop; PR 8).

The static engine fixes every relation's sub-bucket count up front
(``Schema.n_subbuckets``), and the PR 6 skew doctor merely *reports* when
a hot join key concentrates a relation on one bucket.  This module closes
the loop: every ``EngineConfig.rebalance.every`` iterations of a
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
rank contributes its bucket occupancy, and the key counts that recount
a heavy-key set at the new count), and the exchange is one
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
from repro.kernels.block import group_columns
from repro.kernels.route import decode_wire_boxes, encode_wire_sends, home_boxes
from repro.obs.analysis import gini
from repro.relational.distribution import Distribution, heavy_keys

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


def recount_words(rel, n_cells: int) -> np.ndarray:
    """Words each rank contributes to recount ``rel``'s heavy-key set at
    ``n_cells`` cells: its row count, then a (key, count) pair for each
    key it holds that is heavy now (a partial count) or holds more than
    m/``n_cells`` of the m rows (all of a light key's rows sit in its
    home cell, so that count is the key's own)."""
    rows, segs = rel.table.version("full")
    owner = rel.rank_of_segment()[segs]
    join_cols = rel.schema.join_cols
    words = np.ones(rel.n_ranks, dtype=np.int64)
    if not rows.shape[0]:
        return words
    order, starts, counts = group_columns(
        [owner] + [rows[:, c] for c in join_cols]
    )
    heads = order[starts]
    report = counts * n_cells > rows.shape[0]
    is_heavy = rel.dist.heavy_rows(rows[heads], join_cols)
    if is_heavy is not None:
        report |= is_heavy
    words += (len(join_cols) + 1) * np.bincount(
        owner[heads[report]], minlength=rel.n_ranks
    )
    return words


def reshard_relation(
    rel,
    n_subbuckets: int,
    cluster,
    *,
    wire: bool = False,
    phase: str = REBALANCE_PHASE,
    recount_charged: bool = False,
) -> Dict[str, int]:
    """Resize ``rel`` to ``n_subbuckets`` via the redistribution exchange.

    Standalone (no Engine needed — the property tests drive it directly):

    1. take every old shard's full then Δ rows, each in nested order,
       as one source block each;
    2. recount a heavy-key set, when ``rel`` has one, at the new count:
       the keys above m/(p·``n_subbuckets``) of the m full rows
       (:func:`~repro.relational.distribution.heavy_keys`), since a
       light key stays whole however many sub-buckets there are.  The
       partial counts are one allgather of :func:`recount_words`,
       unless the caller already paid for them (``recount_charged``);
    3. re-hash every row under the new placement and cut one box table
       by (source block, bucket, new sub-bucket)
       (:func:`~repro.kernels.route.home_boxes`), each box's header word
       ``2 · new segment + version``, the payloads ``delta``-encoded
       (that word framed) when ``wire`` is on and ``raw`` otherwise;
    4. one alltoallv charged at encoded bytes (collective autotuned
       when ``wire`` is on), ``kind="rebalance"``,
       into the CommMatrix ``rebalance`` channel;
    5. install the delivered boxes into a fresh row table, receivers in
       rank order, each one's boxes in delivery order, first copy only,
       segment and version read from each box's header word.

    Nothing is mutated before the collective returns, so a rank crash
    surfacing inside the exchange leaves the relation untouched for
    checkpoint rollback.  Returns shipped/moved/byte totals.
    """
    if n_subbuckets == rel.schema.n_subbuckets:
        return {"shipped": 0, "moved": 0, "wire_bytes": 0}
    # Source blocks in (old segment, full before Δ) order: the full
    # version keyed 2·seg, Δ 2·seg + 1, each in nested order.
    full, full_segs = rel.table.version("full")
    delta, delta_segs = rel.table.version("delta")
    n_cells = rel.n_ranks * n_subbuckets
    heavy = rel.schema.heavy_keys
    if heavy is not None:
        if not recount_charged:
            cluster.allgather(
                [None] * rel.n_ranks,
                nbytes_per_rank=8 * int(recount_words(rel, n_cells).max()),
                phase=phase,
            )
        heavy = heavy_keys(full, rel.schema.join_cols, n_cells)
    new_schema = dataclasses.replace(
        rel.schema, n_subbuckets=n_subbuckets, heavy_keys=heavy
    )
    new_dist = Distribution(new_schema, rel.n_ranks, rel.dist.seed, rel.dist.dead_ranks)
    codec = payload_codec(wire)
    block = np.concatenate([2 * full_segs, 2 * delta_segs + 1])
    block_heads, box = home_boxes(block, np.concatenate([full, delta]), new_dist)
    src = rel.rank_of_segment()[block_heads >> 1]
    # Boxes by receiver, then sender, each message's in block order: the
    # order the install reads them in, so a fault-free delivery decodes
    # slices of the payload buffer, not gathers of it.
    # A box's header word is its block key over the new segment,
    # 2·segment + version.
    k = np.lexsort((src, box["dst"]))
    row_lo = np.cumsum(box["n_rows"]) - box["n_rows"]
    table = encode_wire_sends(BoxTable(
        src[k], box["dst"][k], box["n_rows"][k],
        header=2 * box["header"][k] + (block_heads & 1)[k, None],
        rows=box["rows"], row_lo=row_lo[k],
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
    keyed = [
        (rows, np.repeat(header[:, 0], table.n_rows[boxes]))
        for boxes, rows, header in runs
    ]
    rel.install_reshard(new_schema, [(rows, key >> 1, key & 1) for rows, key in keyed])
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

    def _may_grow(self, rel) -> bool:
        """Whether a check can still resize ``rel``: it is under the cap,
        and its top bucket (a share of at most 1) split over today's
        fan-out could still overload a rank past ``factor``."""
        cfg = self.config.rebalance
        n_sub = rel.schema.n_subbuckets
        return n_sub < cfg.max_subbuckets and rel.n_ranks >= cfg.factor * n_sub

    def _target_subbuckets(
        self, rel, measure: SkewMeasure
    ) -> Optional[Tuple[int, str]]:
        """Trigger test + target count for one relation; None = keep."""
        cfg = self.config
        n_sub = rel.schema.n_subbuckets
        if not self._may_grow(rel):
            return None
        if measure.total < cfg.rebalance.min_tuples:
            return None
        if measure.top_share < cfg.rebalance.threshold:
            return None
        # Projected tuples on the hottest rank relative to the mean, if
        # the top bucket's mass splits across the current fan-out.  Once
        # the fan-out covers the skew this drops under the factor and
        # growth self-extinguishes.
        overload = measure.top_share * rel.n_ranks / n_sub
        if overload < cfg.rebalance.factor:
            return None
        doubled = min(n_sub * 2, cfg.rebalance.max_subbuckets)
        if rel.schema.name not in self._seeded:
            # First trigger: seed from the offline recommender (satellite
            # of the paper's "if ... still imbalanced" rule), never less
            # than one doubling.
            self._seeded.add(rel.schema.name)
            recommended, _report = recommend_subbuckets(
                rel.table.version_block("full"),
                rel.schema,
                rel.n_ranks,
                max_subbuckets=cfg.rebalance.max_subbuckets,
                seed=rel.dist.seed,
            )
            target = max(doubled, recommended)
            return min(target, cfg.rebalance.max_subbuckets), "recommend"
        return doubled, "double"

    # ----------------------------------------------------------------- hook

    def maybe_rebalance(self, engine, stratum, iteration: int) -> int:
        """The engine's periodic hook: measure, decide, redistribute.

        Runs at an iteration boundary (Δs advanced, no pending absorbs).
        Charges one decision allgather per check — each rank contributes
        its local bucket occupancy and, for a relation with a heavy-key
        set that may still grow, the key counts a resize recounts the
        set from (:func:`recount_words` at the cap, so any target's set
        follows) — then executes every triggered resize.
        Returns the number of relations resized.
        """
        store = engine.store
        names = self.eligible_names(store)
        if not names:
            return 0
        cluster = engine.cluster
        plane = engine.fault_plane
        n_ranks = engine.config.n_ranks
        n_resized = 0
        with engine.timer.phase(REBALANCE_PHASE):
            words = np.full(n_ranks, 2 * len(names), dtype=np.int64)
            for name in names:
                rel = store[name]
                if rel.schema.heavy_keys is not None and self._may_grow(rel):
                    words += recount_words(
                        rel, n_ranks * self.config.rebalance.max_subbuckets
                    )
            # The decision rendezvous: bucket occupancies are replicated
            # so every rank reaches the same verdict.  Also the first
            # crash point of a rebalance round.
            cluster.allgather(
                [len(names)] * n_ranks,
                nbytes_per_rank=8 * int(words.max()),
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
                    recount_charged=True,
                )
                # The relation's schema object changed; keep the compiled
                # program's view (used by routing and explain) in sync.
                engine.compiled.schemas[name] = rel.schema
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
