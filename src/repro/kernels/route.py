"""Vectorized send-side builders for the two communication phases.

``build_intra_sends``
    Intra-bucket replication (pipeline phase 2): every outer tuple goes
    to each sub-bucket owner of its inner-side bucket.  Payload boxes
    are plain row blocks — a row's bucket is a hash of its join-key
    values, which the receiver probes by anyway — and the all-to-all
    charges them per tuple.

``build_route_sends``
    Home routing of emitted head tuples (phase 4): where the wire
    layer's sender fold applies, each source's block is folded per
    independent key first; one hash pass then computes every remaining
    row's (bucket, sub, owner) and rows are stably grouped per
    destination shard into ``(bucket, sub, row_block)`` boxes.

Both work on consecutive source ranks at once, up to :data:`_CHUNK_ROWS`
rows (a larger source alone): one hash pass, one owner-table gather
(:attr:`~repro.relational.distribution.Distribution.owner_table`) and
one stable grouping keyed by source rank first serve the whole batch.
The codec is batched the same way: :func:`encode_wire_sends` encodes
every source's boxes, and :func:`decode_wire_boxes` decodes every
receiver's inbox laid end to end, in :data:`_CHUNK_ROWS`-row chunks.

Both keep each (src, dst) pair's rows in arrival order — the ordering
the receiving shards' absorb semantics depend on.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.comm.wire import decode_blocks, decode_rows, encode_blocks, encode_rows
from repro.kernels.absorb import VectorCombiner, combine_block
from repro.kernels.block import group_columns

RouteBox = Tuple[int, int, np.ndarray]  # (bucket, sub, rows)
#: One source's emitted rows: a row block, or a block the local join
#: already folded in chunks with each row's pre-fold count.
Emitted = Union[np.ndarray, Tuple[np.ndarray, np.ndarray]]
#: A route box bound for the wire layer also says how many emitted rows
#: it stands for (its own row count unless the sender fold ran).
PreBox = Tuple[int, int, np.ndarray, int]  # (bucket, sub, rows, pre_rows)
#: A route box in wire form: payload encoded, pre-combine row count kept
#: so the per-edge savings stay observable (CommMatrix "precombine"
#: channel, trace-report bytes-saved column).
WireBox = Tuple[int, int, int, int, bytes]  # (bucket, sub, n_rows, pre_rows, payload)


def _shard_boxes(
    rows: np.ndarray, dist, weights: Optional[np.ndarray] = None
) -> Iterator[Tuple[int, int, int, np.ndarray, int]]:
    """``(owner, bucket, sub, block, pre_rows)`` for each home shard of
    ``rows``.

    One hash pass places every row; a stable grouping keeps each block's
    rows in arrival order; blocks come in (bucket, sub) order.
    ``pre_rows`` is the block's row count, or the sum of its rows'
    ``weights`` (the pre-fold counts of folded rows).
    """
    b_arr, s_arr = dist.bucket_sub_of_rows(rows)
    order, starts, counts = group_columns([b_arr, s_arr])
    heads = order[starts]
    b_heads, s_heads = b_arr[heads], s_arr[heads]
    pre = counts if weights is None else np.add.reduceat(weights[order], starts)
    for s0, c, p, dst, b, s in zip(
        starts.tolist(),
        counts.tolist(),
        pre.tolist(),
        dist.ranks_of_bucket_subs(b_heads, s_heads).tolist(),
        b_heads.tolist(),
        s_heads.tolist(),
    ):
        yield dst, b, s, rows[order[s0 : s0 + c]], p


def build_intra_sends(
    owner_blocks: Sequence[Tuple[int, np.ndarray]],
    dist,
    n_sub: int,
    probe_cols: Sequence[int],
    per_rank_ser: np.ndarray,
) -> Tuple[Dict[int, Dict[int, List[np.ndarray]]], int]:
    """Replicate outer blocks to the sub-bucket owners of their buckets.

    ``owner_blocks`` are (owner rank, matched rows) pairs in shard order;
    ``per_rank_ser`` accumulates each owner's serialization fanout
    (deduplicated destinations per tuple).  Consecutive blocks are
    replicated together, :data:`_CHUNK_ROWS` rows at a time, so each
    ``(owner, dst)`` list holds one block per batch: the rows the owner
    sends ``dst``, in shard order and within a shard in arrival order.
    """
    sends: Dict[int, Dict[int, List[np.ndarray]]] = {}
    n_intra = 0
    blocks = [(owner, rows) for owner, rows in owner_blocks if rows.shape[0]]
    sizes = [rows.shape[0] for _owner, rows in blocks]
    for lo, hi in _row_chunks(sizes, _CHUNK_ROWS):
        rows = _concat([rows for _owner, rows in blocks[lo:hi]])
        owner = np.repeat(
            np.asarray([o for o, _rows in blocks[lo:hi]], dtype=np.int64),
            sizes[lo:hi],
        )
        buckets = dist.buckets_of_key_rows(rows, probe_cols)
        if n_sub == 1:
            src_row = None
            dst = dist.owner_table[buckets, 0]
        else:
            # Row-major (row, sub) pairs, one per *distinct* destination
            # of the row's bucket: a stable grouping by (owner,
            # destination) then leaves each pair's rows in arrival order.
            src_row, sub = np.nonzero(dist.distinct_owners[buckets])
            owner = owner[src_row]
            dst = dist.owner_table[buckets[src_row], sub]
        order, starts, counts = group_columns([owner, dst])
        heads = order[starts]
        grouped = rows[order if src_row is None else src_row[order]]
        for s0, c, o, d in zip(
            starts.tolist(),
            counts.tolist(),
            owner[heads].tolist(),
            dst[heads].tolist(),
        ):
            sends.setdefault(o, {}).setdefault(d, []).append(grouped[s0 : s0 + c])
        per_rank_ser += np.bincount(owner, minlength=per_rank_ser.shape[0])
        n_intra += dst.shape[0]
    return sends, n_intra


def build_route_sends(
    emitted: Dict[int, Emitted],
    dist,
    for_wire: bool = False,
    fold: Optional[Tuple[int, Optional[VectorCombiner]]] = None,
) -> Tuple[Dict[int, Dict[int, list]], int, Dict[int, int]]:
    """Group each source's emitted rows into per-shard boxes by owner.

    ``fold`` — a :func:`~repro.kernels.absorb.sender_fold_plan` — folds
    each source's block per independent key *before* it is hashed and
    boxed; a source whose block the local join already folded in chunks
    hands ``(rows, pre_fold_counts)`` instead, and the same fold merges
    the chunks.  ``for_wire`` makes every box a :data:`PreBox`, the form
    :func:`encode_wire_sends` takes.  Returns the sends, the number of
    emitted (pre-fold) rows and, per source rank, the number of rows
    that went through a fold (the engine charges those at serialization
    cost; a box standing for one row had nothing to fold).

    Consecutive sources are routed together, :data:`_CHUNK_ROWS` rows at
    a time (a larger source alone): one fold, one hash pass and one
    stable grouping by ``(source, bucket, sub)`` per batch.  Each
    source's boxes come out exactly as routing it alone leaves them.
    """
    sends: Dict[int, Dict[int, list]] = {}
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
    sizes = [rows.shape[0] for _src, rows, _weights in batch]
    for lo, hi in _row_chunks(sizes, _CHUNK_ROWS):
        _route_batch(batch[lo:hi], dist, for_wire, fold, sends, folded)
    return sends, n_comm, folded


def _route_batch(batch, dist, for_wire, fold, sends, folded) -> None:
    """:func:`build_route_sends` for consecutive sources ``batch``."""
    srcs = [src for src, _rows, _weights in batch]
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
    b_arr, s_arr = dist.bucket_sub_of_rows(rows)
    order, starts, counts = group_columns([seg, b_arr, s_arr])
    heads = order[starts]
    b_heads, s_heads, seg_heads = b_arr[heads], s_arr[heads], seg[heads]
    pre = counts if weights is None else np.add.reduceat(weights[order], starts)
    grouped = rows[order]
    for s0, c, p, g, dst, b, s in zip(
        starts.tolist(),
        counts.tolist(),
        pre.tolist(),
        seg_heads.tolist(),
        dist.owner_table[b_heads, s_heads].tolist(),
        b_heads.tolist(),
        s_heads.tolist(),
    ):
        block = grouped[s0 : s0 + c]
        sends.setdefault(srcs[g], {}).setdefault(dst, []).append(
            (b, s, block, p) if for_wire else (b, s, block)
        )
    # A box standing for one row had nothing to fold.
    n_folded = (
        np.zeros(len(batch), dtype=np.int64)
        if weights is None
        else np.bincount(seg_heads, np.where(pre > 1, pre, 0), minlength=len(batch))
    )
    for src, n in zip(srcs, n_folded.tolist()):
        folded[src] = int(n)


#: Row budget of one batch: the exchange builders take consecutive
#: source blocks, and the codec consecutive boxes, up to this many rows
#: at once (a larger block or box goes alone), so every temporary stays a
#: bounded multiple of it however many ranks a batch spans.  The bound is
#: for memory: see the budget sweeps in EXPERIMENTS.md ("Batched wire
#: layer" and "Batched exchanges").
_CHUNK_ROWS = 1 << 14


def _row_chunks(counts: Sequence[int], budget: int) -> Iterator[Tuple[int, int]]:
    """Index ranges ``[lo, hi)`` of consecutive items within ``budget``
    rows in all; an item over the budget is a range of its own."""
    lo = 0
    acc = 0
    for i, c in enumerate(counts):
        if i > lo and acc + c > budget:
            yield lo, i
            lo, acc = i, 0
        acc += c
    if lo < len(counts):
        yield lo, len(counts)


def _concat(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """One block of ``blocks``' rows (a lone block as is)."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _offsets(counts: Sequence[int]) -> np.ndarray:
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return starts


def encode_boxes(blocks: Sequence[np.ndarray], codec: str) -> List[bytes]:
    """Encode row blocks, one payload each.

    Blocks are processed in row-bounded chunks: a chunk is concatenated
    (a lone block is used as is) and encoded once by
    :func:`~repro.comm.wire.encode_blocks` — byte-identical to encoding
    each block on its own.
    """
    counts = [int(block.shape[0]) for block in blocks]
    payloads: List[bytes] = []
    for lo, hi in _row_chunks(counts, _CHUNK_ROWS):
        payloads += encode_blocks(
            _concat(blocks[lo:hi]), _offsets(counts[lo:hi]), codec
        )
    return payloads


def decode_boxes(
    payloads: Sequence[bytes], n_rows: Sequence[int], arity: int, codec: str
) -> List[np.ndarray]:
    """Inverse of :func:`encode_boxes`, in the same row-bounded chunks;
    the returned blocks are writable views of each chunk's rows."""
    out: List[np.ndarray] = []
    for lo, hi in _row_chunks(n_rows, _CHUNK_ROWS):
        starts = _offsets(n_rows[lo:hi])
        rows = decode_blocks(payloads[lo:hi], starts, arity, codec)
        bounds = starts.tolist()
        out += [rows[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return out


def encode_wire_sends(
    sends: Dict[int, Dict[int, List[PreBox]]], *, codec: str
) -> Dict[int, Dict[int, List[WireBox]]]:
    """Turn ``for_wire`` route boxes into wire boxes: codec encoding, one
    :func:`encode_boxes` pass over every source's boxes."""
    flat = [
        (src, dst, box)
        for src, per_dst in sends.items()
        for dst, boxes in per_dst.items()
        for box in boxes
    ]
    payloads = encode_boxes([box[2] for _src, _dst, box in flat], codec)
    out: Dict[int, Dict[int, List[WireBox]]] = {
        src: {dst: [] for dst in per_dst} for src, per_dst in sends.items()
    }
    for (src, dst, (b, s, rows, pre)), payload in zip(flat, payloads):
        out[src][dst].append((b, s, int(rows.shape[0]), pre, payload))
    return out


def decode_wire_boxes(
    boxes: Sequence[WireBox], arity: int, codec: str
) -> List[RouteBox]:
    """Decode wire boxes (inverse of :func:`encode_wire_sends`): one
    receiving rank's inbox, or every inbox of an exchange laid end to end."""
    blocks = decode_boxes(
        [box[4] for box in boxes], [box[2] for box in boxes], arity, codec
    )
    return [(box[0], box[1], rows) for box, rows in zip(boxes, blocks)]


def decode_wire_box(box: WireBox, arity: int, codec: str) -> RouteBox:
    """:func:`decode_wire_boxes` for a single box."""
    return decode_wire_boxes([box], arity, codec)[0]


#: A rebalance-exchange box: one (bucket, new sub-bucket) fragment of one
#: version, codec-encoded.  ``kind`` is 0 for the full version, 1 for Δ.
#: ``seq`` is a transport sequence number, unique per box across the
#: exchange: the install step is not idempotent (unlike absorb, which
#: deduplicates by set semantics), so the receiver drops at-least-once
#: duplicate deliveries by sequence number.
ReshardBox = Tuple[int, int, int, int, bytes, int]  # (bucket, sub, kind, n_rows, payload, seq)


def build_reshard_sends(
    blocks: Sequence[Tuple[int, int, np.ndarray]],
    new_dist,
    codec: str,
) -> Tuple[Dict[int, Dict[int, List[ReshardBox]]], int, int]:
    """Re-hash version blocks under a resized placement (rebalance exchange).

    ``blocks`` are ``(src_rank, kind, rows)`` triples in deterministic
    (sorted old shard key, version) order; every row is re-placed under
    ``new_dist`` and grouped into per-(bucket, sub) boxes.  Buckets never
    change on a sub-bucket resize (join columns and seed are fixed), so
    this is purely intra-bucket traffic.

    Returns the send plan plus total rows shipped and rows whose owner
    actually changed (the migration volume).
    """
    sends: Dict[int, Dict[int, List[ReshardBox]]] = {}
    n_shipped = 0
    n_moved = 0
    seq = 0
    for src, kind, rows in blocks:
        n = rows.shape[0]
        if n == 0:
            continue
        row_map = sends.setdefault(src, {})
        for dst, b, s, block, c in _shard_boxes(rows, new_dist):
            row_map.setdefault(dst, []).append(
                (b, s, kind, c, encode_rows(block, codec), seq)
            )
            seq += 1
            if dst != src:
                n_moved += c
        n_shipped += n
    return sends, n_shipped, n_moved


def decode_reshard_box(box: ReshardBox, arity: int, codec: str):
    """Inverse of the per-box encoding in :func:`build_reshard_sends`."""
    b, s, kind, n_rows, payload, _seq = box
    return b, s, kind, decode_rows(payload, n_rows, arity, codec)
