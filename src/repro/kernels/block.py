"""The array primitives the columnar kernels share.

Tuples travel as C-contiguous ``(n, arity)`` int64 arrays, one tuple per
row (:func:`as_rows` is the coercion every entry point applies), so
pipeline phases hand whole shard blocks around without materializing
Python tuples.  The primitives every kernel builds on:

``group_columns`` / ``lex_group``
    Exact, stable row grouping by column *values* (never by hash), so
    two distinct keys can never merge — the property the shards'
    sequential absorb semantics rest on.  Key columns are packed
    into one int64 with exactly the bits each needs, the row index goes
    in the low bits and the words are sorted as values (``np.lexsort``
    only on negatives or > 63 bits).
``KeyIndex``
    Exact map from distinct stored keys to their slots, on the same
    packing: sorted ``key << slot_bits | slot`` words and one
    ``searchsorted`` per lookup (``group_columns`` over stored keys and
    queries together on negatives or > 63 bits).  The columnar join index
    and the columnar shards' group lookup are both this.
``segmented_scan``
    Inclusive scan of an associative ``join`` inside each group — every
    group's accumulator after every arrival, which is all the fused
    dedup/aggregation needs.
``concat_ranges`` / ``offsets``
    Flatten ``[start, start+count)`` ranges into one index vector — the
    inner-side gather of the batch join — and lay ranges end to end.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

#: Canonical empty grouping result (order, starts, counts).
_EMPTY_GROUPS = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
)


def as_rows(rows: np.ndarray, arity: int) -> np.ndarray:
    """Coerce to a C-contiguous ``(n, arity)`` int64 array."""
    arr = np.ascontiguousarray(rows, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, arity)
    if arr.ndim != 2 or arr.shape[1] != arity:
        raise ValueError(f"expected rows of arity {arity}, got shape {arr.shape}")
    return arr


def _widths(cols: Sequence[np.ndarray]) -> List[int]:
    """Bits each non-empty int64 column's values need.

    A negative value reads as 64 bits unsigned, so it fails every width
    test along with the keys that are too wide.
    """
    return [int(col.view(np.uint64).max()).bit_length() for col in cols]


def _pack(cols: Sequence[np.ndarray], widths: Sequence[int]) -> np.ndarray:
    """One int64 word per row, ``widths[i]`` bits for column ``i``, the
    first column in the high bits: for values that fit their widths in 63
    bits in all, a bijection whose order is the columns' lexicographic
    order.  A lone column comes back as the caller's own array."""
    word = cols[0]
    for col, width in zip(cols[1:], widths[1:]):
        word = (word << width) | col
    return word


def group_columns(
    cols: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`lex_group` over separate equal-length 1-D key columns.

    Taking columns rather than a matrix lets a caller prepend a segment
    id to some columns of a row block without stacking a key matrix.

    Rows are sorted as *values*.  Each column gets exactly the bits its
    maximum needs, first column in the high bits, so the packed key is a
    bijection whose order is the columns' lexicographic order; the row
    index goes in the low ``(n - 1).bit_length()`` bits and one in-place
    ``sort()`` (numpy's SIMD sort, several times faster than any argsort)
    orders the words.  They are distinct and ties on the key break by row
    index, so the low bits read back exactly the stable permutation.
    Keys that cannot share 63 bits with the index take ``np.lexsort``.
    """
    n = cols[0].shape[0]
    if n == 0:
        return _EMPTY_GROUPS
    cols = [col.astype(np.int64, copy=False) for col in cols]
    widths = _widths(cols)
    idx_bits = (n - 1).bit_length()
    if sum(widths) + idx_bits <= 63:
        # A fresh array, never the caller's column.
        word = _pack(cols, widths) << idx_bits
        word |= np.arange(n, dtype=np.int64)
        word.sort()
        order = word & ((1 << idx_bits) - 1)
        word >>= idx_bits
        boundary = word[1:] != word[:-1]
    else:
        # np.lexsort is stable and sorts by the *last* key first.
        order = np.lexsort(tuple(cols[::-1])).astype(np.int64, copy=False)
        boundary = np.zeros(n - 1, dtype=bool)
        for col in cols:
            col_sorted = col[order]
            boundary |= col_sorted[1:] != col_sorted[:-1]
    cuts = np.nonzero(boundary)[0]
    bounds = np.empty(cuts.shape[0] + 2, dtype=np.int64)
    bounds[0], bounds[-1] = 0, n
    np.add(cuts, 1, out=bounds[1:-1])
    return order, bounds[:-1], bounds[1:] - bounds[:-1]


def lex_group(mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group rows of ``mat`` by exact value, stably.

    Returns ``(order, starts, counts)``: ``order`` is a stable permutation
    putting equal rows adjacent (ties keep their original order, so a
    group's rows appear in arrival order), and group ``g`` occupies
    ``order[starts[g] : starts[g] + counts[g]]``.

    A zero-column matrix groups every row together (the global-aggregate
    case: all tuples share the empty key).
    """
    n = mat.shape[0]
    if n == 0:
        return _EMPTY_GROUPS
    if mat.ndim != 2:
        raise ValueError(f"lex_group expects a 2-D matrix, got shape {mat.shape}")
    ncols = mat.shape[1]
    if ncols == 0:
        order = np.arange(n, dtype=np.int64)
        return order, np.zeros(1, dtype=np.int64), np.asarray([n], dtype=np.int64)
    return group_columns([mat[:, c] for c in range(ncols)])


def _key_cols(keys) -> List[np.ndarray]:
    """A key matrix's int64 columns, or a list of 1-D key columns as
    int64; zero key columns read as one all-zero column (every row shares
    the empty key)."""
    if not isinstance(keys, np.ndarray):
        return [col.astype(np.int64, copy=False) for col in keys]
    keys = keys.astype(np.int64, copy=False)
    if keys.shape[1] == 0:
        return [np.zeros(keys.shape[0], dtype=np.int64)]
    return [keys[:, c] for c in range(keys.shape[1])]


class KeyIndex:
    """Exact map from distinct stored keys to their slots.

    Built over the rows of an ``(n, k)`` int64 matrix of *distinct* keys,
    or over a list of ``k`` equal-length key columns (row ``i`` is slot
    ``i``); :meth:`find` returns, per query row (queries take the same
    two forms), the slot of the equal stored row or -1.  There is no
    hash, so no two keys can be confused.

    The tier rule is :func:`group_columns`': each stored column gets the
    bits its maximum needs, first column high, and the slot takes the low
    ``(n - 1).bit_length()`` bits.  When key bits + slot bits fit in 63,
    the words are sorted as values and a query is one ``searchsorted``;
    a query value that is negative or wider than its column's stored
    width is a miss, whatever its packed word would alias.  Otherwise (a
    negative stored value or wider keys) each :meth:`find` groups the
    stored keys and the queries together with :func:`group_columns` and
    a query takes its group's first member when that member is stored.
    """

    __slots__ = ("n", "_keys", "_widths", "_slot_bits", "_words")

    def __init__(self, keys):
        cols = _key_cols(keys)
        self.n = cols[0].shape[0]
        self._slot_bits = max(self.n - 1, 0).bit_length()
        self._widths = _widths(cols) if self.n else []
        self._keys = self._words = None
        if sum(self._widths) + self._slot_bits <= 63:
            words = _pack(cols, self._widths) << self._slot_bits
            words |= np.arange(self.n, dtype=np.int64)
            words.sort()
            self._words = words
        else:  # the wide tier, the only one that reads the columns back:
            # its own copy, so the caller may mutate the rows it indexed
            self._keys = [col.copy() for col in cols]

    def find(self, queries, *, sort: bool = False) -> np.ndarray:
        """Slot of each query row's stored key; -1 = miss.  ``sort`` looks
        the queries up in key order (where key and position bits fit 63),
        so each binary search starts where the last one ended."""
        qcols = _key_cols(queries)
        m = qcols[0].shape[0]
        if self.n == 0 or m == 0:
            return np.full(m, -1, dtype=np.int64)
        if self._words is None:
            return self._find_wide(qcols)
        # A negative or over-wide value packs onto some other key's word
        # ((0, 4) at widths (2, 2) is (1, 0)'s): a miss, decided here.
        valid = np.ones(m, dtype=bool)
        for col, width in zip(qcols, self._widths):
            valid &= (col.view(np.uint64) >> np.uint64(width)) == 0
        key = _pack(qcols, self._widths)
        pos_bits = (m - 1).bit_length()
        perm = None
        if sort and sum(self._widths) + pos_bits <= 63:
            key = np.where(valid, key, 0) << pos_bits | np.arange(m)
            key.sort()
            perm, key = key & ((1 << pos_bits) - 1), key >> pos_bits
            valid = valid[perm]
        pos = np.searchsorted(self._words, key << self._slot_bits)
        np.minimum(pos, self.n - 1, out=pos)
        hit = self._words[pos]
        found = valid & ((hit >> self._slot_bits) == key)
        slot = np.where(found, hit & ((1 << self._slot_bits) - 1), -1)
        if perm is not None:
            slot[perm] = slot.copy()
        return slot

    def _find_wide(self, qcols: List[np.ndarray]) -> np.ndarray:
        n = self.n
        order, starts, counts = group_columns(
            [np.concatenate([k, q]) for k, q in zip(self._keys, qcols)]
        )
        # group_columns is stable, so a group holding a stored key (keys
        # are distinct: at most one) lists it first.
        first = np.empty(order.shape[0], dtype=np.int64)
        first[order] = np.repeat(order[starts], counts)
        out = first[n:]
        out[out >= n] = -1
        return out


def segmented_scan(
    vals: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    join: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Inclusive scan of ``join`` inside each segment, in place.

    Segment ``g`` is ``vals[starts[g] : starts[g] + counts[g]]`` and the
    segments tile ``vals``.  On return ``vals[i]`` is the left fold of its
    segment's rows up to and including ``i`` — what absorbing them one at
    a time leaves in the accumulator — provided ``join`` is associative.
    A segment's first row is never joined, so it keeps its raw value.

    Doubling passes: pass ``d`` joins every row at within-segment position
    ``>= d`` with the row ``d`` before it.  A row is finished once its
    window reaches the segment start, so the selection only shrinks; there
    are ``ceil(log2(max(counts)))`` passes, none when every segment is a
    single row.
    """
    n = vals.shape[0]
    if starts.shape[0] == n:
        return vals
    pos = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
    idx = np.nonzero(pos)[0]
    d = 1
    while idx.shape[0]:
        vals[idx] = join(vals[idx - d], vals[idx])
        d *= 2
        idx = idx[pos[idx] >= d]
    return vals


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flatten half-open ranges ``[starts[i], starts[i]+counts[i])``.

    The result concatenates each range's indices in order — the gather
    vector for "every inner tuple matched by probe ``i``, for all ``i``".
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return np.repeat(starts - offsets(counts)[:-1], counts) + np.arange(
        total, dtype=np.int64
    )


def offsets(counts: np.ndarray) -> np.ndarray:
    """Bounds ``[0, c0, c0 + c1, …]`` of consecutive ranges of ``counts``."""
    out = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class GrowBuf:
    """An append-only buffer with amortized-O(1) appends: of ``ncols``-
    column rows, or of single values when ``ncols`` is None."""

    __slots__ = ("_data", "n", "fill")

    def __init__(self, ncols=None, dtype=np.int64, fill=None, capacity: int = 16):
        shape = (capacity,) if ncols is None else (capacity, ncols)
        self._data = np.empty(shape, dtype=dtype)
        self.n = 0
        self.fill = fill

    def _reserve(self, extra: int) -> None:
        need = self.n + extra
        cap = self._data.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        grown = np.empty((cap, *self._data.shape[1:]), dtype=self._data.dtype)
        grown[: self.n] = self._data[: self.n]
        self._data = grown

    def append(self, rows: np.ndarray) -> None:
        k = rows.shape[0]
        if not k:
            return
        self._reserve(k)
        self._data[self.n : self.n + k] = rows
        self.n += k

    def extend_filled(self, k: int) -> None:
        """Append ``k`` copies of the configured fill value."""
        if not k:
            return
        self._reserve(k)
        self._data[self.n : self.n + k] = self.fill
        self.n += k

    def view(self) -> np.ndarray:
        return self._data[: self.n]

    def clear(self) -> None:
        self.n = 0
