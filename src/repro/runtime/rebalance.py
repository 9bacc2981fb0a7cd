"""The relation-wide resize: re-hash a relation to a new sub-bucket count.

:meth:`Engine.auto_balance <repro.runtime.engine.Engine.auto_balance>`
(paper §IV-C's "if the data size on each process is still imbalanced"
rule) picks a count with
:func:`~repro.core.balancer.recommend_subbuckets` and moves the rows
with :func:`reshard_relation`, once, before the first stratum, so a
relation's sub-bucket map is fixed for the whole fixpoint.

Correctness story, proven by ``tests/test_rebalance.py``:

* the exchange preserves the exact tuple multiset of both versions
  (full and Δ) — property-tested over arbitrary shard contents;
* a tuple's bucket never changes on a resize (join columns and hash
  seed are fixed), so redistribution is purely intra-bucket traffic;
* results, Δ trajectories and iteration counts are bit-identical to a
  static run — only placement (and hence modeled time) moves;
* every installed row, segment and charge equals the per-box tuple
  protocol the exchange replaced (kept in the tests as the reference);
* nothing is mutated before the collectives return, so a rank crash
  inside the resize is survived by restarting the rank and running it
  again.

Cost honesty: recounting a heavy-key set is charged as an allgather of
the key counts (:func:`recount_words`), and the exchange is one
:class:`~repro.comm.boxes.BoxTable` through the wire layer like every
other all-to-all — codec-encoded payloads charged at encoded bytes to
the α–β model, recorded as a ``rebalance`` CommEvent/CommMatrix channel.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro.comm.boxes import BoxTable, Delivery
from repro.comm.wire import payload_codec
from repro.kernels.block import group_columns
from repro.kernels.route import decode_wire_boxes, encode_wire_sends, home_boxes
from repro.relational.distribution import Distribution, heavy_keys

#: Ledger phase every resize is charged to.
BALANCE_PHASE = "balance"


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
) -> Dict[str, int]:
    """Resize ``rel`` to ``n_subbuckets`` via the redistribution exchange.

    Standalone (no Engine needed — the property tests drive it directly):

    1. take every old shard's full then Δ rows, each in nested order,
       as one source block each;
    2. recount a heavy-key set, when ``rel`` has one, at the new count:
       the keys above m/(p·``n_subbuckets``) of the m full rows
       (:func:`~repro.relational.distribution.heavy_keys`), since a
       light key stays whole however many sub-buckets there are.  The
       partial counts are one allgather of :func:`recount_words`;
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

    Both collectives are charged to the ``balance`` phase.  Nothing is
    mutated before they return, so a rank crash surfacing inside either
    leaves the relation untouched, and running the resize again replays
    it bit for bit.  Returns shipped/moved/byte totals.
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
        cluster.allgather(
            [None] * rel.n_ranks,
            nbytes_per_rank=8 * int(recount_words(rel, n_cells).max()),
            phase=BALANCE_PHASE,
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
        phase=BALANCE_PHASE,
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
