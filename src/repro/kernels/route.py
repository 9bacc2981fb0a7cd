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
    (deduplicated destinations per tuple).
    """
    sends: Dict[int, Dict[int, List[np.ndarray]]] = {}
    n_intra = 0
    for owner, rows in owner_blocks:
        n = rows.shape[0]
        if n == 0:
            continue
        buckets = dist.buckets_of_key_rows(rows, probe_cols)
        if n_sub == 1:
            dst = dist.owners_of_buckets(buckets, 0)
            src_row = None
        else:
            dst_mat = np.stack(
                [dist.owners_of_buckets(buckets, s) for s in range(n_sub)]
            )
            # A tuple goes to each *distinct* destination once; mask out a
            # sub-bucket whose owner repeats an earlier sub's owner.
            keep = np.ones(dst_mat.shape, dtype=bool)
            for s in range(1, n_sub):
                for p in range(s):
                    keep[s] &= dst_mat[s] != dst_mat[p]
            # Row-major (row, sub) pairs: a stable grouping by destination
            # then leaves each destination's rows in arrival order.
            src_row = np.nonzero(keep.T)[0]
            dst = dst_mat.T[keep.T]
        # Per destination, rows in arrival order.
        order, starts, counts = group_columns([dst])
        dst_heads = dst[order[starts]]
        if src_row is not None:
            order = src_row[order]
        row_map = sends.setdefault(owner, {})
        for s0, c, d in zip(starts.tolist(), counts.tolist(), dst_heads.tolist()):
            row_map.setdefault(d, []).append(rows[order[s0 : s0 + c]])
        per_rank_ser[owner] += dst.shape[0]
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
    """
    sends: Dict[int, Dict[int, list]] = {}
    folded: Dict[int, int] = {}
    n_comm = 0
    for src, rows in emitted.items():
        weights = None
        if isinstance(rows, tuple):
            rows, weights = rows
            n = int(weights.sum())
        else:
            n = rows.shape[0]
        if n == 0:
            continue
        if fold is not None:
            rows, weights = combine_block(rows, *fold, weights)
        row: Dict[int, list] = {}
        n_folded = 0
        for dst, b, s, block, pre in _shard_boxes(rows, dist, weights):
            row.setdefault(dst, []).append(
                (b, s, block, pre) if for_wire else (b, s, block)
            )
            if weights is not None and pre > 1:
                n_folded += pre
        sends[src] = row
        folded[src] = n_folded
        n_comm += n
    return sends, n_comm, folded


#: Row budget of one codec pass.  Consecutive boxes are batched up to
#: this many rows (an oversize box goes alone), so the pass's
#: temporaries stay a bounded multiple of it however large one rank's
#: send block is.  The bound is for memory, not speed: budgets from 8k
#: to 128k rows measured alike on every workload, while no bound raised
#: peak RSS ~10% on the 4-rank dense workload (EXPERIMENTS, PR 12).
_CHUNK_ROWS = 1 << 16


def _row_chunks(counts: Sequence[int], budget: int) -> Iterator[Tuple[int, int]]:
    """Index ranges ``[lo, hi)`` of consecutive boxes within ``budget`` rows."""
    lo = 0
    acc = 0
    for i, c in enumerate(counts):
        if i > lo and acc + c > budget:
            yield lo, i
            lo, acc = i, 0
        acc += c
    if lo < len(counts):
        yield lo, len(counts)


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
        rows = blocks[lo] if hi - lo == 1 else np.concatenate(blocks[lo:hi])
        payloads += encode_blocks(rows, _offsets(counts[lo:hi]), codec)
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
    :func:`encode_boxes` batch per source rank."""
    out: Dict[int, Dict[int, List[WireBox]]] = {}
    for src, per_dst in sends.items():
        flat = [(dst, box) for dst, boxes in per_dst.items() for box in boxes]
        payloads = encode_boxes([box[2] for _dst, box in flat], codec)
        row: Dict[int, List[WireBox]] = {dst: [] for dst in per_dst}
        for (dst, (b, s, rows, pre)), payload in zip(flat, payloads):
            row[dst].append((b, s, int(rows.shape[0]), pre, payload))
        out[src] = row
    return out


def decode_wire_boxes(
    boxes: Sequence[WireBox], arity: int, codec: str
) -> List[RouteBox]:
    """Decode one receiving rank's inbox (inverse of :func:`encode_wire_sends`)."""
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
