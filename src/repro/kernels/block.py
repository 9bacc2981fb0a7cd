"""Columnar tuple batches and the array primitives the kernels share.

A :class:`TupleBlock` is an immutable view over an ``(n, arity)`` int64
array — one tuple per row.  Column gather and row selection are numpy
indexing (zero-copy for single-column gathers), so pipeline phases can
hand whole shard blocks around without materializing Python tuples.

The module also hosts the two grouping primitives every kernel builds
on:

``lex_group``
    Exact, stable row grouping by column *values* (never by hash), so
    two distinct keys can never merge — the property the bit-for-bit
    equivalence with the scalar path rests on.
``concat_ranges``
    Flatten ``[start, start+count)`` ranges into one index vector — the
    inner-side gather of the batch hash join.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

TupleT = Tuple[int, ...]

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


def _pack_columns(cols: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """One int64 key whose order is the lexicographic order of ``cols``.

    Each column gets exactly the bits its maximum needs, first column in
    the high bits, so the packing is a bijection and a single stable
    argsort replaces a k-key lexsort.  Returns ``None`` when a column
    holds a negative value or the widths exceed 63 bits — the caller
    falls back to ``np.lexsort``.  A lone column is its own key.
    """
    if len(cols) == 1:
        return cols[0]
    widths = []
    for col in cols:
        if col.min() < 0:
            return None
        widths.append(int(col.max()).bit_length())
    if sum(widths) > 63:
        return None
    key = cols[0]
    for col, width in zip(cols[1:], widths[1:]):
        key = (key << np.int64(width)) | col
    return key


def group_columns(
    cols: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`lex_group` over separate equal-length 1-D key columns.

    Taking columns rather than a matrix lets a caller prepend a segment
    id to some columns of a row block without stacking a key matrix.
    """
    n = cols[0].shape[0]
    if n == 0:
        return _EMPTY_GROUPS
    key = _pack_columns(cols)
    if key is not None:
        order = np.argsort(key, kind="stable")
        key_sorted = key[order]
        boundary = key_sorted[1:] != key_sorted[:-1]
    else:
        # np.lexsort is stable and sorts by the *last* key first.
        order = np.lexsort(tuple(cols[::-1]))
        boundary = np.zeros(n - 1, dtype=bool)
        for col in cols:
            col_sorted = col[order]
            boundary |= col_sorted[1:] != col_sorted[:-1]
    starts = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.nonzero(boundary)[0].astype(np.int64) + 1]
    )
    counts = np.diff(np.concatenate([starts, np.asarray([n], dtype=np.int64)]))
    return order.astype(np.int64, copy=False), starts, counts


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


def group_ids(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-sorted-position group index (inverse of ``starts``/``counts``)."""
    return np.repeat(np.arange(len(starts), dtype=np.int64), counts)


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flatten half-open ranges ``[starts[i], starts[i]+counts[i])``.

    The result concatenates each range's indices in order — the gather
    vector for "every inner tuple matched by probe ``i``, for all ``i``".
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)[:-1]]
    )
    return np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)


class TupleBlock:
    """An immutable columnar batch of tuples (one int64 row per tuple)."""

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        if rows.ndim != 2:
            raise ValueError(f"TupleBlock expects a 2-D array, got {rows.shape}")
        self.rows = rows

    # ------------------------------------------------------------ construct

    @classmethod
    def from_tuples(cls, tuples: Iterable[TupleT], arity: int) -> "TupleBlock":
        rows = list(tuples)
        if not rows:
            return cls(np.empty((0, arity), dtype=np.int64))
        return cls(as_rows(np.asarray(rows, dtype=np.int64), arity))

    @classmethod
    def empty(cls, arity: int) -> "TupleBlock":
        return cls(np.empty((0, arity), dtype=np.int64))

    @classmethod
    def concat(cls, blocks: Sequence["TupleBlock"]) -> "TupleBlock":
        mats = [b.rows for b in blocks if len(b)]
        if not mats:
            raise ValueError("concat needs at least one block (use empty())")
        if len(mats) == 1:
            return cls(mats[0])
        return cls(np.vstack(mats))

    # -------------------------------------------------------------- queries

    @property
    def arity(self) -> int:
        return int(self.rows.shape[1])

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def gather(self, cols: Sequence[int]) -> np.ndarray:
        """Project columns.  A single column returns a zero-copy view."""
        if len(cols) == 1:
            return self.rows[:, cols[0]]
        return self.rows[:, list(cols)]

    def select(self, mask: np.ndarray) -> "TupleBlock":
        return TupleBlock(self.rows[mask])

    def take(self, idx: np.ndarray) -> "TupleBlock":
        return TupleBlock(self.rows[idx])

    def to_tuples(self) -> List[TupleT]:
        return [tuple(r) for r in self.rows.tolist()]

    def __repr__(self) -> str:
        return f"TupleBlock(n={len(self)}, arity={self.arity})"


class GrowBuf:
    """An append-only 2-D int64 buffer with amortized-O(1) block appends."""

    __slots__ = ("_data", "n")

    def __init__(self, ncols: int, capacity: int = 16):
        self._data = np.empty((capacity, ncols), dtype=np.int64)
        self.n = 0

    def _reserve(self, extra: int) -> None:
        need = self.n + extra
        cap = self._data.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        grown = np.empty((cap, self._data.shape[1]), dtype=np.int64)
        grown[: self.n] = self._data[: self.n]
        self._data = grown

    def append(self, rows: np.ndarray) -> None:
        k = rows.shape[0]
        if not k:
            return
        self._reserve(k)
        self._data[self.n : self.n + k] = rows
        self.n += k

    def view(self) -> np.ndarray:
        return self._data[: self.n]

    def clear(self) -> None:
        self.n = 0


class GrowVec:
    """An append-only 1-D buffer (row ids, hashes, flags)."""

    __slots__ = ("_data", "n", "fill")

    def __init__(self, dtype, capacity: int = 16, fill=None):
        self._data = np.empty(capacity, dtype=dtype)
        self.n = 0
        self.fill = fill

    def _reserve(self, extra: int) -> None:
        need = self.n + extra
        cap = self._data.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        grown = np.empty(cap, dtype=self._data.dtype)
        grown[: self.n] = self._data[: self.n]
        self._data = grown

    def append(self, vals: np.ndarray) -> None:
        k = vals.shape[0]
        if not k:
            return
        self._reserve(k)
        self._data[self.n : self.n + k] = vals
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
