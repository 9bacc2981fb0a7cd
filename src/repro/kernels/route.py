"""Vectorized send-side exchange tables and their codec pass.

An exchange is one :class:`~repro.comm.boxes.BoxTable`: per-box int64
columns over one grouped row block, built straight from the grouping
that places the rows, and once encoded one payload buffer.  No Python
runs per box between the build and absorb.

``build_intra_sends``
    Intra-bucket replication (pipeline phase 2): an outer tuple whose
    join key is light in the inner relation's placement goes to its
    bucket's home cell, sub-bucket 0, where every inner row of the key
    lives; a heavy key's goes to each sub-bucket owner of its inner-side
    bucket (:meth:`~repro.relational.distribution.Distribution.
    heavy_rows`).  The home cell sits on the bucket's own rank, which
    holds the outer tuples of any relation placed by the same key, so
    their light copies are self-sends the all-to-all never charges.
    Boxes are plain rows — a row's bucket is a hash of its join-key
    values, which the receiver probes by anyway — and the all-to-all
    charges them per tuple.

``build_route_sends``
    Home routing of emitted head tuples (phase 4): where the wire
    layer's sender fold applies, each source's block is folded per
    independent key first; one hash pass then computes every remaining
    row's (bucket, sub, owner) and rows are stably grouped per
    destination shard into route boxes.

``home_boxes``
    That grouping, by (source block, bucket, sub): the route builder's
    per batch, and the reshard's over a relation's full and Δ blocks
    (:func:`~repro.runtime.rebalance.reshard_relation`).

Both work on consecutive source ranks at once, up to :data:`_CHUNK_ROWS`
rows (a larger source alone): one hash pass, one owner-table gather
(:attr:`~repro.relational.distribution.Distribution.owner_table`) and
one stable grouping serve the whole batch.  The codec is batched the
same way: :func:`encode_wire_sends` encodes consecutive boxes, and
:func:`decode_wire_boxes` the delivered ones in delivery order, in
:data:`_CHUNK_ROWS`-row runs that the receiving store absorbs one at a
time.

Both keep each (src, dst) pair's rows in arrival order — the ordering
the receiving shards' absorb semantics depend on.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.comm.boxes import BoxTable, Delivery
from repro.comm.wire import WIRE_HEADER_WORDS, decode_blocks, encode_blocks
from repro.kernels.absorb import VectorCombiner, combine_block
from repro.kernels.block import group_columns, offsets

#: One source's emitted rows: a row block, or a block the local join
#: already folded in chunks with each row's pre-fold count.
Emitted = Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]


_NONE = np.zeros(0, dtype=np.int64)


def _table(parts: List[Dict[str, np.ndarray]], **empty) -> BoxTable:
    """One table of per-batch columns and grouped row blocks, batch after
    batch; ``empty`` gives the columns of a table without boxes."""
    if not parts:
        return BoxTable(_NONE, _NONE, _NONE, **empty)
    return BoxTable(**{
        name: parts[0][name] if len(parts) == 1
        else np.concatenate([part[name] for part in parts])
        for name in parts[0]
    })


def build_intra_sends(
    owner_blocks: Sequence[Tuple[int, np.ndarray]],
    dist,
    n_sub: int,
    probe_cols: Sequence[int],
    per_rank_ser: np.ndarray,
) -> Tuple[BoxTable, int]:
    """Replicate outer blocks to the inner owners of their join keys.

    ``owner_blocks`` are (owner rank, matched rows) pairs in shard order;
    ``per_rank_ser`` accumulates each owner's serialization fanout
    (deduplicated destinations per tuple).  A row of a light key goes to
    its bucket's home cell, a heavy one to every distinct sub-bucket
    owner of its bucket.  Consecutive blocks are replicated together,
    :data:`_CHUNK_ROWS` rows at a time, so each
    ``(owner, dst)`` message holds one box per batch: the rows the owner
    sends ``dst``, in shard order and within a shard in arrival order.
    A batch's boxes go by destination, then owner, so one receiver's
    rows from a one-batch exchange lie in its delivery order.
    """
    parts = []
    n_intra = 0
    blocks = [(owner, rows) for owner, rows in owner_blocks if rows.shape[0]]
    sizes = np.asarray([rows.shape[0] for _owner, rows in blocks], dtype=np.int64)
    for lo, hi in _row_chunks(sizes, _CHUNK_ROWS):
        rows = _concat([rows for _owner, rows in blocks[lo:hi]])
        owner = np.repeat(
            np.asarray([o for o, _rows in blocks[lo:hi]], dtype=np.int64),
            sizes[lo:hi],
        )
        buckets = dist.buckets_of_key_rows(rows, probe_cols)
        heavy = None if n_sub == 1 else dist.heavy_rows(rows, probe_cols)
        if n_sub == 1 or (heavy is not None and not heavy.any()):
            src_row = None
            dst = dist.owner_table[buckets, 0]
        else:
            # Row-major (row, sub) pairs, one per *distinct* destination
            # of a heavy row's bucket and one, its home cell, for a light
            # row: a stable grouping by (destination, owner) then leaves
            # each pair's rows in arrival order.
            cells = dist.distinct_owners[buckets]
            if heavy is not None:
                cells[~heavy, 1:] = False
            src_row, sub = np.nonzero(cells)
            owner = owner[src_row]
            dst = dist.owner_table[buckets[src_row], sub]
        order, starts, counts = group_columns([dst, owner])
        heads = order[starts]
        parts.append({
            "src": owner[heads],
            "dst": dst[heads],
            "n_rows": counts,
            "rows": rows[order if src_row is None else src_row[order]],
        })
        per_rank_ser += np.bincount(owner, minlength=per_rank_ser.shape[0])
        n_intra += dst.shape[0]
    return _table(parts), n_intra


def build_route_sends(
    emitted: Dict[int, Emitted],
    dist,
    for_wire: bool = False,
    fold: Optional[Tuple[int, Optional[VectorCombiner]]] = None,
) -> Tuple[BoxTable, int, Dict[int, int]]:
    """Group each source's emitted rows into per-shard boxes by owner.

    ``fold`` — a :func:`~repro.kernels.absorb.sender_fold_plan` — folds
    each source's block per independent key *before* it is hashed and
    boxed; a source whose block the local join already folded in chunks
    hands ``(rows, pre_fold_counts)`` instead, and the same fold merges
    the chunks.  ``for_wire`` keeps each box's pre-fold row count
    (``pre_rows``), the form :func:`encode_wire_sends` takes.  Returns
    the table, the number of emitted (pre-fold) rows and, per source
    rank, the number of rows that went through a fold (the engine
    charges those at serialization cost; a box standing for one row had
    nothing to fold).

    Consecutive sources are routed together, :data:`_CHUNK_ROWS` rows at
    a time (a larger source alone): one fold, one hash pass and one
    stable grouping by ``(source, bucket, sub)`` per batch.  Each
    source's boxes come out exactly as routing it alone leaves them.
    """
    parts = []
    folded: Dict[int, int] = {}
    n_comm = 0
    batch: List[Tuple[int, np.ndarray, Optional[np.ndarray]]] = []
    for src, rows in emitted.items():
        weights = None
        if isinstance(rows, tuple):
            rows, weights = rows
            n = int(weights.sum())
        else:
            n = rows.shape[0]
        if n:
            batch.append((src, rows, weights))
            n_comm += n
    sizes = np.asarray([rows.shape[0] for _src, rows, _w in batch], dtype=np.int64)
    for lo, hi in _row_chunks(sizes, _CHUNK_ROWS):
        parts.append(_route_batch(batch[lo:hi], dist, fold, folded))
    table = _table(
        parts, bucket=_NONE, sub=_NONE, pre_rows=_NONE,
        rows=np.zeros((0, dist.schema.arity), dtype=np.int64),
    )
    if not for_wire:
        table.pre_rows = None
    return table, n_comm, folded


def _route_batch(batch, dist, fold, folded) -> Dict[str, np.ndarray]:
    """:func:`build_route_sends` for consecutive sources ``batch``: the
    batch's table columns and grouped rows."""
    srcs = np.asarray([src for src, _rows, _weights in batch], dtype=np.int64)
    sizes = [rows.shape[0] for _src, rows, _weights in batch]
    rows = _concat([rows for _src, rows, _weights in batch])
    weights = None
    if any(w is not None for _src, _rows, w in batch):
        weights = _concat([
            np.ones(n, dtype=np.int64) if w is None else w
            for n, (_src, _rows, w) in zip(sizes, batch)
        ])
    seg = np.repeat(np.arange(len(batch), dtype=np.int64), sizes)
    if fold is not None:
        n_indep, combiner = fold
        if len(batch) == 1:
            rows, weights = combine_block(rows, n_indep, combiner, weights)
            seg = np.zeros(rows.shape[0], dtype=np.int64)
        else:
            # The batch position leads the key: both fold tiers return
            # keys in lexicographic order, so each source's folded rows
            # come out contiguous and as folding it alone returns them.
            keyed, weights = combine_block(
                np.column_stack([seg, rows]), n_indep + 1, combiner, weights
            )
            seg, rows = keyed[:, 0], keyed[:, 1:]
    seg_heads, box = home_boxes(seg, rows, dist, weights)
    pre = box["pre_rows"]
    # A box standing for one row had nothing to fold.
    n_folded = (
        np.zeros(len(batch), dtype=np.int64)
        if weights is None
        else np.bincount(seg_heads, np.where(pre > 1, pre, 0), minlength=len(batch))
    )
    for src, n in zip(srcs.tolist(), n_folded.tolist()):
        folded[src] = int(n)
    box["src"] = srcs[seg_heads]
    return box


def home_boxes(
    seg: np.ndarray,
    rows: np.ndarray,
    dist,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """One box of ``rows`` per (source block ``seg``, home bucket, sub)
    under ``dist``, boxes in that key order, each box's rows in arrival
    order.  Returns each box's source block and its table columns but
    ``src``; ``pre_rows`` sums the rows' ``weights`` (pre-fold counts)."""
    b_arr, s_arr = dist.bucket_sub_of_rows(rows)
    order, starts, counts = group_columns([seg, b_arr, s_arr])
    heads = order[starts]
    b_heads, s_heads = b_arr[heads], s_arr[heads]
    pre = counts if weights is None else np.add.reduceat(weights[order], starts)
    return seg[heads], {
        "dst": dist.owner_table[b_heads, s_heads],
        "n_rows": counts,
        "bucket": b_heads,
        "sub": s_heads,
        "pre_rows": pre,
        "rows": rows[order],
    }


#: Row budget of one batch: the exchange builders take consecutive
#: source blocks, the codec consecutive boxes and absorb consecutive
#: delivered boxes, up to this many rows at once (a larger block or box
#: goes alone), so every temporary stays a bounded multiple of it however
#: many ranks a batch spans.  The bound is for memory: see the budget
#: sweeps in EXPERIMENTS.md ("Batched wire layer", "Batched exchanges"
#: and "One row store per relation": one absorb of a whole exchange
#: raised the skew run's peak RSS by 19%).
_CHUNK_ROWS = 1 << 14


def _row_chunks(counts: np.ndarray, budget: int) -> Iterator[Tuple[int, int]]:
    """Index ranges ``[lo, hi)`` of consecutive items within ``budget``
    rows in all; an item over the budget is a range of its own."""
    ends = np.cumsum(counts)
    lo, n = 0, ends.shape[0]
    while lo < n:
        base = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, base + budget, side="right")), lo + 1)
        yield lo, hi
        lo = hi


def _concat(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """One block of ``blocks``' rows (a lone block as is)."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def encode_wire_sends(table: BoxTable, *, codec: str) -> BoxTable:
    """``table`` with every box's rows encoded into one payload buffer,
    each box charged its payload plus :data:`~repro.comm.wire.
    WIRE_HEADER_WORDS`.

    Consecutive boxes are encoded together, :data:`_CHUNK_ROWS` rows at
    a time (a larger box alone), by one :func:`~repro.comm.wire.
    encode_blocks` pass over their rows; every payload is byte-identical
    to encoding its box alone.
    """
    bufs, lens = [], []
    n_rows = table.n_rows
    for lo, hi in _row_chunks(n_rows, _CHUNK_ROWS):
        boxes = np.arange(lo, hi)
        buf, byte_len = encode_blocks(
            table.rows_of(boxes), offsets(n_rows[lo:hi]), codec
        )
        bufs.append(buf)
        lens.append(byte_len)
    byte_len = np.concatenate(lens) if lens else _NONE
    return BoxTable(
        table.src, table.dst, n_rows,
        bucket=table.bucket, sub=table.sub, pre_rows=table.pre_rows,
        rows=table.rows, row_lo=table.row_lo,
        payload=_concat(bufs) if bufs else np.zeros(0, np.uint8),
        byte_len=byte_len, nbytes=byte_len + WIRE_HEADER_WORDS * 8,
    )


def decode_wire_box(
    table: BoxTable, boxes: np.ndarray, arity: int, codec: str
) -> np.ndarray:
    """The rows of encoded boxes ``boxes`` of ``table``, laid end to end:
    one :func:`~repro.comm.wire.decode_blocks` pass over their payloads."""
    return decode_blocks(
        table.payload_of(boxes), table.byte_len[boxes],
        offsets(table.n_rows[boxes]), arity, codec,
    )


def decode_wire_boxes(
    delivery: Delivery, arity: int, codec: str
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Every delivered box's rows in delivery order, as ``(boxes, rows)``
    runs of consecutive deliveries up to :data:`_CHUNK_ROWS` rows (a
    larger box alone): decoded from the payloads of an encoded table
    (:func:`decode_wire_box`), else read off its row block."""
    table, order = delivery.table, delivery.order
    runs = []
    for lo, hi in _row_chunks(table.n_rows[order], _CHUNK_ROWS):
        boxes = order[lo:hi]
        rows = (
            table.rows_of(boxes)
            if table.payload is None
            else decode_wire_box(table, boxes, arity, codec)
        )
        runs.append((boxes, rows))
    return runs
