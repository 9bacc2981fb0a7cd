"""Wire codecs for the engine's exchanges.

The exchanges ship blocks of int64 tuples between ranks.  This
module owns the *representation* of those blocks on the simulated wire.
The layer has one switch, ``EngineConfig.wire`` (on by default): on,
the engine folds each sender's duplicate keys, ships ``delta`` payloads,
lets the α–β model pick the collective per exchange and places a
sub-bucketed EDB relation by heavy and light join keys, so an outer
tuple of a light key goes once, to its bucket's home rank, where an
outer relation placed by the same key already holds it (a self-send
nothing charges; :meth:`~repro.runtime.engine.Engine.load`); off, it
reproduces the
pre-wire engine bit-for-bit (no folding, no encoding, direct
``alltoallv``, raw byte charging, §IV-C's placement with every
sub-bucket owner sent a copy).

Row-block codecs: ``delta`` (per-column delta + zigzag varint; small
when rows arrive sorted by independent key, which sender-side combining
guarantees) and ``raw`` (native int64 bytes, which the reshard ships
with the layer off).

An exchange's payloads travel in one ``uint8`` buffer
(:class:`~repro.comm.boxes.BoxTable`): :func:`encode_blocks` returns the
buffer of consecutive boxes with each box's byte length, and
:func:`decode_blocks` reads boxes laid end to end back.  No exchange
calls the one-box :func:`encode_rows` / :func:`decode_rows` any more;
they stay as the tests' one-box codec and because the benchmark's trace
patch table (``bench/trace.py``) names them.  Message faults act on
whole messages: a corrupted copy fails the receiver's CRC-32 and is
rejected before any decode runs.

Encode/decode are exact inverses for every int64 block, including
negative values and full-range bit patterns (deltas wrap modulo 2^64 on
both sides, so overflow is harmless).  Decoding CPU time is not charged
to the model — the modeled cost of a codec is its *encoded byte count*,
which flows through ``CostModel.alltoallv`` bandwidth terms; the
sender-side fold is charged separately by the engine (see DESIGN §11).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: The payload codecs, one per setting of the wire layer.
_CODECS: Tuple[str, ...] = ("raw", "delta")


def payload_codec(wire: bool) -> str:
    """The codec boxes ship under: ``delta`` with the wire layer on,
    ``raw`` (charged as plain int64 words) with it off."""
    return "delta" if wire else "raw"


#: Integer words of per-box metadata (bucket, sub, n_rows, pre_rows)
#: that travel alongside the encoded payload and are charged as wire
#: bytes with it.
WIRE_HEADER_WORDS = 4


# --------------------------------------------------------------- varint

def _zigzag(d: np.ndarray) -> np.ndarray:
    """Map int64 → uint64 so small-magnitude values get small varints."""
    return (d.astype(np.uint64) << np.uint64(1)) ^ (
        (d >> np.int64(63)).astype(np.uint64)
    )


def _unzigzag(u: np.ndarray) -> np.ndarray:
    return (u >> np.uint64(1)).astype(np.int64) ^ -(
        (u & np.uint64(1)).astype(np.int64)
    )


def _varint_encode(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """LEB128-encode a non-empty uint64 vector.

    Returns the byte buffer and each value's end offset in it, so a
    caller holding many boxes in ``u`` can find each box's byte length.  Pass
    ``j`` writes byte ``j`` of every value that has one, over a shrinking
    selection — total work is proportional to the bytes produced.
    """
    n_bytes = np.ones(u.shape[0], np.int64)
    for k in range(1, 10):
        longer = u >= (np.uint64(1) << np.uint64(7 * k))
        if not longer.any():
            break
        n_bytes += longer
    ends = np.cumsum(n_bytes)
    out = np.empty(int(ends[-1]), np.uint8)
    pos, rest, left = ends - n_bytes, u, n_bytes
    while True:
        more = left > 1
        out[pos] = (rest & np.uint64(0x7F)).astype(np.uint8) | (
            more.astype(np.uint8) << np.uint8(7)
        )
        if not more.any():
            return out, ends
        pos, rest, left = pos[more] + 1, rest[more] >> np.uint64(7), left[more] - 1


def _varint_decode(buf: np.ndarray, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`_varint_encode` over a ``uint8`` buffer.

    Validates the stream shape and returns the values with each value's
    end offset (for the caller's per-box boundary check).
    """
    if count == 0:
        if buf.shape[0]:
            raise ValueError("varint stream has trailing bytes")
        return np.zeros(0, np.uint64), np.zeros(0, np.int64)
    last = np.nonzero((buf & 0x80) == 0)[0]
    if last.shape[0] != count or last[-1] != buf.shape[0] - 1:
        raise ValueError(
            f"varint stream decodes to {last.shape[0]} values, expected {count}"
        )
    starts = np.empty(count, np.int64)
    starts[0] = 0
    starts[1:] = last[:-1] + 1
    lengths = last - starts + 1
    if int(lengths.max()) > 10:
        raise ValueError("varint value longer than 10 bytes")
    vals = (buf[starts] & np.uint8(0x7F)).astype(np.uint64)
    idx = np.nonzero(lengths > 1)[0]
    j = 1
    while idx.shape[0]:
        vals[idx] |= (buf[starts[idx] + j] & np.uint8(0x7F)).astype(
            np.uint64
        ) << np.uint64(7 * j)
        j += 1
        idx = idx[lengths[idx] > j]
    return vals, last + 1


# ---------------------------------------------------------------- codecs
#
# The batched entry points take consecutive boxes of one row block: box
# ``k`` is ``rows[starts[k]:starts[k + 1]]``.  Every payload is exactly
# what encoding that box alone produces, so batching is invisible on the
# wire (byte counts, checkpoints) — see DESIGN §11.

def _box_major_index(starts: np.ndarray, arity: int) -> np.ndarray:
    """``(arity, n)`` stream position of cell ``(column, row)``.

    A delta stream is box-major, column-major inside a box: box ``k``
    starts at value ``arity * starts[k]`` and holds its columns one after
    another.  Encode scatters through this index, decode gathers.
    """
    counts = np.diff(starts)
    first = (arity - 1) * np.repeat(starts[:-1], counts) + np.arange(
        starts[-1], dtype=np.int64
    )
    stride = np.repeat(counts, counts)
    return first[None, :] + np.arange(arity, dtype=np.int64)[:, None] * stride[None, :]


def _delta_encode(
    rows: np.ndarray, starts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-column first differences (reset at box starts) → zigzag → LEB128."""
    arity = rows.shape[1]
    cols = np.ascontiguousarray(rows.T)
    d = np.empty_like(cols)
    d[:, 0] = cols[:, 0]
    d[:, 1:] = cols[:, 1:] - cols[:, :-1]
    if len(starts) == 2:
        stream = d.ravel()  # one box: the transpose is already the layout
    else:
        heads = starts[:-1][starts[:-1] < starts[1:]]
        d[:, heads] = cols[:, heads]
        stream = np.empty(d.size, np.int64)
        stream[_box_major_index(starts, arity).ravel()] = d.ravel()
    buf, ends = _varint_encode(_zigzag(stream))
    return buf, np.diff(np.concatenate([np.zeros(1, np.int64), ends])[arity * starts])


def _delta_decode(
    data: np.ndarray, byte_len: np.ndarray, starts: np.ndarray, arity: int
) -> np.ndarray:
    n = int(starts[-1])
    u, ends = _varint_decode(data, n * arity)
    cuts = np.concatenate([np.zeros(1, np.int64), ends])[arity * starts]
    if (np.diff(cuts) != byte_len).any():
        raise ValueError("varint stream does not split at the box boundaries")
    d = _unzigzag(u)
    if len(starts) == 2:
        cols = np.cumsum(d.reshape(arity, n), axis=1, dtype=np.int64)
        return np.ascontiguousarray(cols.T)
    # Segmented cumsum: one running sum over the stream, rebased at each
    # (box, column) segment start.  int64 wraps mod 2^64 on both sides.
    total = np.concatenate([np.zeros(1, np.int64), np.cumsum(d, dtype=np.int64)])
    seg_len = np.repeat(np.diff(starts), arity)
    seg_start = np.cumsum(seg_len) - seg_len
    total[1:] -= np.repeat(total[seg_start], seg_len)
    return total[1:][_box_major_index(starts, arity).T]


_ONE_BOX = np.asarray([0, 1], np.int64)


def encode_blocks(
    rows: np.ndarray, starts: np.ndarray, codec: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Encode consecutive boxes of an ``(n, arity)`` int64 block.

    Returns one ``uint8`` buffer of the payloads laid end to end and
    each payload's byte length (0 for an empty box).  ``delta`` runs a
    single difference/zigzag/varint pass over the whole block; ``raw``
    is the block's own bytes.
    """
    if codec not in _CODECS:
        raise ValueError(f"unknown wire codec {codec!r}")
    if rows.shape[0] == 0:
        return np.zeros(0, np.uint8), np.zeros(len(starts) - 1, np.int64)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if codec == "delta":
        return _delta_encode(rows, starts)
    return (
        rows.astype("<i8", copy=False).view(np.uint8).ravel(),
        np.diff(starts) * (rows.shape[1] * 8),
    )


def decode_blocks(
    data: np.ndarray, byte_len: np.ndarray, starts: np.ndarray, arity: int, codec: str
) -> np.ndarray:
    """Exact inverse of :func:`encode_blocks`: the payloads laid end to end
    in ``data`` (box ``k``'s ``byte_len[k]`` bytes) as one writable
    ``(starts[-1], arity)`` block, box ``k`` at ``[starts[k], starts[k + 1])``."""
    if codec not in _CODECS:
        raise ValueError(f"unknown wire codec {codec!r}")
    n = int(starts[-1])
    if n == 0:
        return np.zeros((0, arity), np.int64)
    if codec == "delta":
        return _delta_decode(data, byte_len, starts, arity)
    if (np.diff(starts) * (arity * 8) != byte_len).any():
        raise ValueError("raw payload sizes do not match the box row counts")
    return np.frombuffer(data, "<i8").astype(np.int64).reshape(n, arity)


def encode_rows(rows: np.ndarray, codec: str) -> bytes:
    """Encode one ``(n, arity)`` int64 box (:func:`encode_blocks` of one)."""
    return encode_blocks(rows, _ONE_BOX * rows.shape[0], codec)[0].tobytes()


def decode_rows(data: bytes, n_rows: int, arity: int, codec: str) -> np.ndarray:
    """Exact inverse of :func:`encode_rows` (returns a writable block)."""
    return decode_blocks(
        np.frombuffer(data, np.uint8), np.asarray([len(data)]), _ONE_BOX * n_rows,
        arity, codec,
    )
