"""Fused dedup / local aggregation (paper §III-A, §IV-A) — the row store.

BPRA's last join stage is *deduplication*: newly generated tuples arrive
at their home rank and are checked against local storage; only new ones
enter Δ.  Monotonic aggregation generalizes that step: the rank joins
each arrival's dependent value into the stored accumulator with the
aggregator's ``partial_agg``, and only an *improvement* enters Δ.  A
tuple's independent columns fully determine its rank, so this costs no
communication beyond the all-to-all plain Datalog already pays.

One store holds a whole relation as a growing int64 row store, one row
per aggregation group, each row tagged with its *segment*: the (bucket,
sub-bucket) shard it lives in.  A shard is the store restricted to one
segment.  The store absorbs whole row-blocks spanning any number of
segments, and each segment's semantics are those of absorbing its rows
one at a time, in arrival order, into a nested index ``join key → other
key → tuple`` (the paper's nested B-tree):

* **admitted counts** — every arrival that improves its group's
  accumulator is admitted, so within-group arrival order matters (MIN
  absorbing 5,3,4 admits twice; 3,5,4 once).  The block kernel groups
  rows by (segment, independent key)
  (:func:`~repro.kernels.block.group_columns`, stable, so a group's rows
  stay in arrival order) and runs one
  :func:`~repro.kernels.block.segmented_scan` of the aggregator's
  ``join``: the scan holds every group's accumulator after every
  arrival, and the admitted count, each group's first improvement and
  its final value are all read off that one array.
* **Δ order** — per segment, nested by (first jk improvement, first
  group improvement).  The store records pending row ids in
  first-improvement order and reconstructs the nested order at
  ``advance()`` with one stable sort keyed by segment first.
* **full order** — per segment, nested by (jk first admission, group
  admission): a cached stable sort over the append-ordered row store.

Every aggregator has an associative ``join`` over arrays
(:class:`VectorCombiner`): MIN/MAX/SUM/COUNT/ANY/UNION/MCOUNT have a
numpy one in ``_COMBINERS``; any other aggregator — a custom lattice,
or a :class:`~repro.core.aggregators.TupleAggregator` — gets its own
``partial_agg`` applied row by row (exact, just slower).

The sender-side fold (:func:`combine_block`) is the module's other
fold and deliberately not a scan: a sender needs only each group's
total.  It has two tiers behind one rule.  A set fold or a MIN/MAX/UNION
join over a narrow packed key (``1 << bits <= 4 n``, the width rule
:func:`~repro.kernels.block.group_columns` and ``KeyIndex`` share)
scatters into a key-indexed accumulator with the join's ``ufunc.at``,
counts from one ``np.bincount``; every other fold sorts to group and
halves each group.  The outputs are identical, byte for byte: occupied
slots read in packed-key order are the keys in lexicographic order, and
those joins are idempotent, associative and commutative.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.core.aggregators import (
    AnyAggregator,
    CountAggregator,
    MaxAggregator,
    MCountAggregator,
    MinAggregator,
    RecursiveAggregator,
    SumAggregator,
    UnionAggregator,
)
from repro.kernels.block import (
    GrowBuf,
    KeyIndex,
    _pack,
    _widths,
    as_rows,
    group_columns,
    segmented_scan,
)
from repro.relational.schema import Schema


class AbsorbStats:
    """Counts from absorb calls (drive compute-cost charging): totals,
    or, given ``rank_of`` (each segment's owner rank), ``n_ranks``-long
    arrays counting the arrivals at each rank's segments."""

    __slots__ = ("received", "admitted", "_rank_of", "_n_ranks")

    def __init__(self, rank_of: Optional[np.ndarray] = None, n_ranks: int = 0):
        self._rank_of, self._n_ranks = rank_of, n_ranks
        self.received = self.admitted = (
            0 if rank_of is None else np.zeros(n_ranks, dtype=np.int64)
        )

    @property
    def suppressed(self):
        return self.received - self.admitted

    def tally(self, segs: np.ndarray, admitted_at: np.ndarray) -> None:
        """Count one block: arrival ``i`` went to segment ``segs[i]``,
        and ``admitted_at`` lists the admitted arrivals."""
        if self._rank_of is None:
            self.received += segs.shape[0]
            self.admitted += admitted_at.shape[0]
            return
        owner = self._rank_of[segs]
        n = self._n_ranks
        self.received = self.received + np.bincount(owner, minlength=n)
        self.admitted = self.admitted + np.bincount(owner[admitted_at], minlength=n)

    def __repr__(self) -> str:
        return (
            f"AbsorbStats(received={self.received}, admitted={self.admitted}, "
            f"suppressed={self.suppressed})"
        )


class VectorCombiner:
    """A lattice join lifted to arrays.

    ``join(cur, new)`` combines two ``(g, n_dep)`` blocks elementwise,
    earlier arrivals on the left.  It must be associative — the one
    property the receiver's segmented scan and the sender's halving fold
    add to one-at-a-time absorption — and it is only ever applied from a
    group's second value on, so a group's first arrival is stored raw.

    ``combinable`` marks lattices where *sender-side* pre-folding of a
    send box commutes with receiver absorption: replacing a group's
    occurrence sequence with its single ``join``-fold must leave the
    receiver's stored value — and therefore Δ membership — unchanged.
    True for idempotent joins (MIN/MAX/UNION) and for ANY/MCOUNT (their
    raw-init quirks are absorbed because a pre-folded group arrives as
    the group's only occurrence); it must stay False for SUM/COUNT,
    where folding duplicates changes the accumulated value's trajectory
    and hence which arrivals register as improvements.
    """

    __slots__ = ("join", "combinable")

    def __init__(
        self,
        join: Callable[[np.ndarray, np.ndarray], np.ndarray],
        combinable: bool = False,
    ):
        self.join = join
        self.combinable = combinable


def _any_join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # ANY normalizes to {0, 1}; a stored raw value (first arrival)
    # that re-joins must therefore still compare unequal — keep int64.
    return ((a != 0) | (b != 0)).astype(np.int64)


def _mcount_join(agg: MCountAggregator):
    bound = int(agg.lattice.bound)
    return lambda a, b: np.minimum(np.maximum(a, b), bound)


_COMBINERS: Dict[Type[RecursiveAggregator], Callable[[RecursiveAggregator], VectorCombiner]] = {
    MinAggregator: lambda agg: VectorCombiner(np.minimum, combinable=True),
    MaxAggregator: lambda agg: VectorCombiner(np.maximum, combinable=True),
    SumAggregator: lambda agg: VectorCombiner(np.add),
    CountAggregator: lambda agg: VectorCombiner(np.add),
    AnyAggregator: lambda agg: VectorCombiner(_any_join, combinable=True),
    UnionAggregator: lambda agg: VectorCombiner(np.bitwise_or, combinable=True),
    MCountAggregator: lambda agg: VectorCombiner(_mcount_join(agg), combinable=True),
}


def _row_join(agg: RecursiveAggregator):
    """``agg.partial_agg`` over two ``(g, n_dep)`` blocks, row by row."""
    partial_agg = agg.partial_agg

    def join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        joined = [
            partial_agg(tuple(x), tuple(y)) for x, y in zip(a.tolist(), b.tolist())
        ]
        return np.asarray(joined, dtype=np.int64).reshape(a.shape)

    return join


def vector_combiner(agg: RecursiveAggregator) -> VectorCombiner:
    """The array ``join`` of an aggregator.

    Keyed by *exact* type: a subclass overriding ``partial_agg`` must not
    inherit its parent's kernel.  An aggregator with no numpy kernel
    joins with its own ``partial_agg``, one row at a time; such a join
    is not ``combinable`` (nothing vouches for it), so its heads ship
    unfolded.
    """
    factory = _COMBINERS.get(type(agg))
    if factory is None:
        return VectorCombiner(_row_join(agg))
    return factory(agg)


def sender_fold_plan(
    schema: Schema,
) -> Optional[Tuple[int, Optional[VectorCombiner]]]:
    """How a sender may fold one head relation's emitted rows before the
    all-to-all (wire layer, every driver): the ``(n_indep, combiner)``
    arguments of :func:`combine_block`, or ``None`` to ship verbatim.

    Plain relations fold by deduplication (no combiner needed);
    aggregates fold only when their combiner is marked ``combinable``
    (sender folding provably commutes with receiver absorption).
    Everything else ships verbatim — the codec still applies.
    """
    if not schema.is_aggregate:
        return schema.arity, None
    comb = vector_combiner(schema.aggregator)
    if comb.combinable:
        return schema.n_indep, comb
    return None


def _nested_perm(seg: np.ndarray, jk_cols: List[np.ndarray]) -> np.ndarray:
    """Stable permutation of rows into nested ``segment → jk → other``
    order.

    ``seg`` holds each row's segment and ``jk_cols`` its join-key
    columns.  Within a segment, nested order lists jk groups by first
    occurrence and rows within a group in arrival order, so a stable
    sort by (segment, position of the row's first (segment, jk) match)
    is that order, one segment after another.
    """
    order, starts, counts = group_columns([seg, *jk_cols])
    key = np.empty(seg.shape[0], dtype=np.int64)
    key[order] = np.repeat(order[starts], counts)
    return group_columns([seg, key])[0]


_NO_ROWS = np.empty(0, dtype=np.int64)


class _RowStore:
    """Shared state and machinery of the store's two flavours.

    One append-only ``(n, arity)`` row store per relation — one row per
    aggregation group, appended at admission, dependent columns updated
    in place on improvement — and each row's *segment*: the (bucket,
    sub-bucket) shard it belongs to, one int64 id whose order is the
    shards' order.  Every grouping, lookup and ordering is keyed by
    segment first, so restricted to one segment the store admits, holds
    and orders exactly what a store of that segment alone would; a store
    whose rows all sit in segment 0 (the default) is one shard.

    An exact :class:`~repro.kernels.block.KeyIndex` over (segment,
    identity columns) maps a group to its row id; it compares exact
    column values, so lookups can never confuse distinct groups.  Rows
    appended since it was built go into a second, tail index, rebuilt
    when a lookup finds rows appended since and probed for the main
    index's misses only; once the tail is as long as the main index, the
    main index is rebuilt over every row.
    """

    __slots__ = (
        "schema",
        "n_indep",
        "_jk_cols",
        "_data",
        "_seg",
        "_index",
        "_tail",
        "_pending_ids",
        "_in_pending",
        "_delta",
        "_delta_nested",
        "full_gen",
        "_full_gen",
        "_full",
    )

    def __init__(self, schema: Schema):
        self.schema = schema
        self.n_indep = schema.n_indep
        self._jk_cols = list(schema.join_cols)
        self._data = GrowBuf(schema.arity)
        self._seg = GrowBuf()
        self._index = self._tail = KeyIndex([_NO_ROWS])
        self._pending_ids = GrowBuf()
        self._in_pending = GrowBuf(dtype=bool, fill=False)
        #: Each version as (rows, segments); Δ nested once it is read.
        self._delta = (np.empty((0, schema.arity), dtype=np.int64), _NO_ROWS)
        self._delta_nested = True
        self.full_gen = 0
        self._full_gen = -1
        self._full = self._delta

    # ------------------------------------------------------------- interface

    def full_size(self) -> int:
        return self._data.n

    def delta_size(self) -> int:
        return int(self._delta[1].shape[0])

    def stored(self, version: str = "full") -> Tuple[np.ndarray, np.ndarray]:
        """One version's rows and their segments in no promised order —
        what sizes, counts and digests read: the full version in append
        order."""
        if version == "delta":
            return self._delta
        return self._data.view(), self._seg.view()

    def advance(self) -> int:
        """Promote pending rows to Δ in nested order.

        ``_pending_ids`` is already in first-improvement order, which is
        the arrival order :func:`_nested_perm` nests by.
        """
        ids = self._pending_ids.view()
        k = self.install_delta(self._data.view()[ids], self._seg.view()[ids])
        self._in_pending.view()[ids] = False
        self._pending_ids.clear()
        return k

    def install_state(self, full_rows, delta_rows, full_segs=None, delta_segs=None):
        """Install redistributed fragments wholesale (a resize's exchange).

        Only legal on a fresh store.  Each segment's full rows arrive in
        their source shards' nested order, and appending them in delivery
        order keeps that order; Δ goes through :meth:`install_delta`.
        """
        full_rows = as_rows(full_rows, self.schema.arity)
        self._append_rows(full_rows, _segments(full_segs, full_rows.shape[0]))
        self.full_gen += 1
        self.install_delta(delta_rows, delta_segs)

    def install_delta(
        self, delta_rows: np.ndarray, segs: Optional[np.ndarray] = None
    ) -> int:
        """Replace Δ wholesale with the given rows (incremental seeding).

        Δ is read in nested (segment, jk-first-occurrence, row) order, and
        the block is sorted into it on its first read: the Δ a load leaves
        on a relation no rule reads Δ of is never sorted.  The full store
        and pending rows are untouched.
        """
        rows = as_rows(delta_rows, self.schema.arity)
        self._delta = (rows, _segments(segs, rows.shape[0]))
        self._delta_nested = False
        return int(rows.shape[0])

    # -------------------------------------------------------------- ordering

    def version(self, version: str) -> Tuple[np.ndarray, np.ndarray]:
        """One version's rows and their segments in nested order, segment
        after segment."""
        if version == "delta":
            if not self._delta_nested:
                self._delta = self._nested(*self._delta)
                self._delta_nested = True
            return self._delta
        if version != "full":
            raise ValueError(f"unknown version {version!r}")
        if self._full_gen != self.full_gen:
            self._full = self._nested(*self.stored())
            self._full_gen = self.full_gen
        return self._full

    def _nested(self, rows: np.ndarray, segs: np.ndarray):
        """``(rows, segs)`` in nested order (:func:`_nested_perm`)."""
        if not rows.shape[0]:
            return rows, segs
        perm = _nested_perm(segs, [rows[:, c] for c in self._jk_cols])
        return rows[perm], segs[perm]

    def version_block(self, version: str) -> np.ndarray:
        """One version's rows in nested order."""
        return self.version(version)[0]

    # --------------------------------------------------------------- lookups

    def _lookup(
        self, queries: np.ndarray, segs: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Row id per (segment, query identity); -1 = miss.  ``queries``
        are rows over the identity columns, in segment 0 by default."""
        data, seg = self.stored()
        base = self._index.n
        if base + self._tail.n != data.shape[0]:
            if data.shape[0] - base >= base:
                self._index = KeyIndex(_key_columns(seg, data, self.n_indep))
                self._tail = KeyIndex([_NO_ROWS])
            else:
                self._tail = KeyIndex(
                    _key_columns(seg[base:], data[base:], self.n_indep)
                )
        keys = _key_columns(_segments(segs, queries.shape[0]), queries, self.n_indep)
        slot = self._index.find(keys)
        if self._tail.n:
            miss = np.flatnonzero(slot < 0)
            tail = self._tail.find([col[miss] for col in keys])
            slot[miss] = np.where(tail < 0, -1, tail + self._index.n)
        return slot

    def _append_rows(self, rows: np.ndarray, segs: np.ndarray) -> int:
        """Append admitted group rows; returns the base row id."""
        base = self._data.n
        self._data.append(rows)
        self._seg.append(segs)
        self._in_pending.extend_filled(rows.shape[0])
        return base

    def _push_pending(self, ids: np.ndarray) -> None:
        self._pending_ids.append(ids)
        self._in_pending.view()[ids] = True

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.schema.name!r}, "
            f"full={self.full_size()}, delta={self.delta_size()})"
        )


def _segments(segs: Optional[np.ndarray], n: int) -> np.ndarray:
    """Each of ``n`` rows' segment: ``segs`` as int64, or all 0."""
    if segs is None:
        return np.zeros(n, dtype=np.int64)
    return np.asarray(segs, dtype=np.int64)


def _key_columns(segs: np.ndarray, rows: np.ndarray, n: int) -> List[np.ndarray]:
    """A group's lookup key: its segment, then the rows' first ``n`` columns."""
    return [segs, *(rows[:, c] for c in range(n))]


class ColumnarPlainShard(_RowStore):
    """Set-semantics store: fused dedup is plain membership-insert."""

    __slots__ = ()

    def absorb_block(self, rows, stats=None, collect=None, segs=None) -> int:
        """Absorb a row block; return how many arrivals were admitted.

        ``segs`` gives each row's segment (all 0 when omitted); each
        segment absorbs its rows in arrival order.  ``collect``, if
        given, receives one block: each admitted arrival's row as stored
        after it, in arrival order (the baseline engines that re-shuffle
        improvements read it).
        """
        rows = as_rows(rows, self.schema.arity)
        segs = _segments(segs, rows.shape[0])
        order, starts, _counts = group_columns(
            _key_columns(segs, rows, self.schema.arity)
        )
        rep = order[starts]  # first arrival per distinct tuple (stable)
        fresh = self._lookup(rows[rep], segs[rep]) < 0
        # Admission order = first-arrival order, which is the Δ insert
        # order too.
        new_rep = np.sort(rep[fresh])
        if new_rep.shape[0]:
            base = self._append_rows(rows[new_rep], segs[new_rep])
            self._push_pending(
                np.arange(base, base + new_rep.shape[0], dtype=np.int64)
            )
            self.full_gen += 1
        if collect is not None:
            collect.append(rows[new_rep])
        if stats is not None:
            stats.tally(segs, new_rep)
        return int(new_rep.shape[0])


class ColumnarAggregateShard(_RowStore):
    """Lattice-semantics store: fused dedup *is* the local aggregation.

    The store keeps one row per aggregation group — the "collapse" that
    gives recursive aggregation its asymptotic edge over stratified
    aggregation (§II-C); a non-improving arrival is dropped on the spot.
    """

    __slots__ = ("aggregator", "_combiner")

    def __init__(self, schema: Schema):
        if schema.aggregator is None:
            raise ValueError(
                f"{schema.name}: ColumnarAggregateShard requires an aggregator"
            )
        super().__init__(schema)
        self.aggregator: RecursiveAggregator = schema.aggregator
        self._combiner = vector_combiner(schema.aggregator)

    def absorb_block(self, rows, stats=None, collect=None, segs=None) -> int:
        """:meth:`ColumnarPlainShard.absorb_block`, folding each group's
        arrivals into its accumulator."""
        rows = as_rows(rows, self.schema.arity)
        n = rows.shape[0]
        if n == 0:
            return 0
        segs = _segments(segs, n)
        n_indep = self.n_indep
        join = self._combiner.join
        indep = rows[:, :n_indep]
        order, starts, counts = group_columns(_key_columns(segs, rows, n_indep))
        rep = order[starts]  # first-arrival row per group
        row_id = self._lookup(indep[rep], segs[rep])
        exists = row_id >= 0

        # acc[i]: the group's accumulator after the arrival at sorted
        # position i; prev[i]: the accumulator that arrival met.  A stored
        # group's first arrival joins the stored value; a new group's first
        # arrival is stored raw as the accumulator and is always admitted.
        old_heads = starts[exists]
        stored = self._data.view()[row_id[exists], n_indep:]
        acc = rows[:, n_indep:][order]
        acc[old_heads] = join(stored, acc[old_heads])
        segmented_scan(acc, starts, counts, join)
        prev = np.empty_like(acc)
        prev[1:] = acc[:-1]
        prev[old_heads] = stored
        imp = (acc != prev).any(axis=1)
        imp[starts[~exists]] = True
        imp_pos = np.flatnonzero(imp)
        admitted = int(imp_pos.shape[0])
        improved = np.logical_or.reduceat(imp, starts)
        # Sorted position of each group's first improvement (n if none).
        first_imp = np.minimum.reduceat(
            np.where(imp, np.arange(n, dtype=np.int64), n), starts
        )
        cur = acc[starts + counts - 1]

        # State updates.  New groups append in first-arrival order (the
        # nested full insert order); improved existing groups update their
        # dependent columns in place.
        ng = np.nonzero(~exists)[0]
        if ng.shape[0]:
            ng = ng[np.argsort(rep[ng], kind="stable")]
            block = np.empty((ng.shape[0], self.schema.arity), dtype=np.int64)
            block[:, :n_indep] = indep[rep[ng]]
            block[:, n_indep:] = cur[ng]
            base = self._append_rows(block, segs[rep[ng]])
            row_id[ng] = base + np.arange(ng.shape[0], dtype=np.int64)
        upd = exists & improved
        if upd.any():
            self._data.view()[row_id[upd], n_indep:] = cur[upd]
        sel = np.nonzero(improved)[0]
        sel = sel[~self._in_pending.view()[row_id[sel]]]
        if sel.shape[0]:
            # Δ insert order = each group's first improvement, in arrival order.
            sel = sel[np.argsort(order[first_imp[sel]], kind="stable")]
            self._push_pending(row_id[sel])
        if admitted:
            self.full_gen += 1
        if collect is not None:
            # Admitted arrivals in arrival order, each with its group's
            # accumulator right after it.
            pos = imp_pos[np.argsort(order[imp_pos], kind="stable")]
            block = np.empty((pos.shape[0], self.schema.arity), dtype=np.int64)
            block[:, :n_indep] = indep[order[pos]]
            block[:, n_indep:] = acc[pos]
            collect.append(block)
        if stats is not None:
            stats.tally(segs, order[imp_pos])
        return admitted


def make_shard(schema: Schema) -> _RowStore:
    """The store flavour ``schema`` needs: aggregate or plain."""
    if schema.is_aggregate:
        return ColumnarAggregateShard(schema)
    return ColumnarPlainShard(schema)


#: Density bound of the direct-addressed fold: it runs when the packed
#: key's domain (``1 << bits`` slots) is at most this many times the
#: block's rows, which caps its two slot-indexed temporaries at 8 int64
#: per row.  Measured (EXPERIMENTS "PR 27"): at 4 it takes 63 of the
#: dense SSSP run's 96 folds, 98.7% of their rows; at the bound it
#: loses 1.4-2x to sorting on blocks of 32k+ rows; a slack of 16 moved
#: the mesh and skew runs by at most 0.05 s, in either direction
#: across measurements.
_DIRECT_SLACK = 4

#: Joins the direct tier can apply with ``ufunc.at``: idempotent numpy
#: ufuncs (MIN, MAX, UNION), so writing any occurrence into a slot and
#: then joining every occurrence into it leaves the group's fold.
_DIRECT_JOINS = (np.minimum, np.maximum, np.bitwise_or)


def combine_block(
    rows: np.ndarray,
    n_indep: int,
    combiner: Optional[VectorCombiner],
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sender-side fold of one source rank's emitted block.

    Returns one row per independent key, sorted by key, and each output
    row's pre-fold row count: how many input rows it folds, or the sum
    of their ``weights`` (positive pre-fold counts) when the input rows
    are themselves folds.  ``combiner is None`` means a plain
    (set-semantics) relation — duplicates are dropped outright.  For
    aggregates the combiner's ``join`` must be ``combinable`` (the caller
    gates on that).

    Two tiers, one rule.  When the join is a plain set fold or one of
    ``_DIRECT_JOINS`` (MIN, MAX, UNION), there is at least one key
    column, and the packed key (``group_columns``' width rule: each
    column the bits its maximum needs) has ``bits <= 62`` with
    ``1 << bits <= _DIRECT_SLACK * n``, the block folds *direct-addressed*
    (:func:`_fold_direct`): one ``np.bincount`` over the packed keys, one
    ``join.at`` scatter per dependent column, no sort.  Everything else —
    ANY and MCOUNT, whose joins are not ufuncs, negative keys (they read
    as 64 bits wide), wide or sparse keys, the global aggregate — groups
    by sorting and folds each group by halving (:func:`_fold_sorted`).
    The outputs are identical: the occupied slots, read in ascending
    packed-key order, are the distinct keys in lexicographic order — the
    sort path's order — and every tier-eligible join is associative,
    commutative and idempotent, so each key's fold, its count and the
    row order do not depend on how the occurrences were combined.

    The fold runs *before* the rows are placed.  A tuple's home shard is
    a function of its independent columns alone, so every occurrence of a
    key lands in one route box, and the stable boxing that follows keeps
    the key order: each box leaves exactly as folding it on its own
    would have left it (the same value per key, rows sorted by key with
    distinct keys — the canonical form the delta codec exploits), while
    hashing, boxing and encoding touch only the folded rows.  Receiver
    absorption of a folded box leaves shard state and Δ membership
    exactly as the unfolded box would (see
    ``VectorCombiner.combinable``).

    Every combinable join is associative and commutative, so any
    grouping of a key's occurrences into a join tree gives the same
    value: folding a block in chunks and merging the chunk folds here,
    their counts passed as ``weights``, returns exactly what one fold of
    the whole block returns — the property that lets the local join
    fold as it emits (``ColumnarExecutor.local_join``).
    """
    n, arity = rows.shape
    if n <= 1:
        return rows, np.ones(n, dtype=np.int64) if weights is None else weights
    if combiner is None:
        n_indep = arity
    if n_indep and (combiner is None or combiner.join in _DIRECT_JOINS):
        cols = [rows[:, c] for c in range(n_indep)]
        widths = _widths(cols)
        bits = sum(widths)
        if bits <= 62 and 1 << bits <= _DIRECT_SLACK * n:
            return _fold_direct(rows, cols, widths, combiner, weights)
    return _fold_sorted(rows, n_indep, combiner, weights)


def _fold_direct(
    rows: np.ndarray,
    cols: List[np.ndarray],
    widths: List[int],
    combiner: Optional[VectorCombiner],
    weights: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`combine_block`'s key-indexed tier: slot = packed key."""
    n_indep, arity = len(cols), rows.shape[1]
    size = 1 << sum(widths)
    key = _pack(cols, widths)
    cnt = np.bincount(key, weights, minlength=size)
    if weights is not None:  # float64 sums of counts far below 2**53
        cnt = cnt.astype(np.int64)
    present = np.flatnonzero(cnt)
    out = np.empty((present.shape[0], arity), dtype=np.int64)
    shift = 0
    for c in range(n_indep - 1, -1, -1):
        out[:, c] = (present >> shift) & ((1 << widths[c]) - 1)
        shift += widths[c]
    if n_indep < arity:
        join = combiner.join
        # A 1-D accumulator: ufunc.at on a (size, 1) block is ≈ 4x slower.
        acc = np.empty(size, dtype=np.int64)
        for c in range(n_indep, arity):
            # ufunc.at takes numpy's slow path (≈ 20x) on values whose
            # dtype is not the canonical int64 instance (an unpickled
            # block carries its own, and so does its .copy()): astype
            # always returns the canonical one.
            vals = rows[:, c].astype(np.int64)
            acc[key] = vals
            join.at(acc, key, vals)
            out[:, c] = acc[present]
    return out, cnt[present]


def _fold_sorted(
    rows: np.ndarray,
    n_indep: int,
    combiner: Optional[VectorCombiner],
    weights: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`combine_block`'s general tier: group by sorting, then fold
    each group by logarithmic halving — O(n log max_dups) vector work,
    no Python-level group loop."""
    n, arity = rows.shape
    if n_indep:
        order, starts, counts = group_columns([rows[:, c] for c in range(n_indep)])
    else:  # global aggregate: every row shares the empty key
        order = np.arange(n, dtype=np.int64)
        starts = np.zeros(1, dtype=np.int64)
        counts = np.asarray([n], dtype=np.int64)
    n_groups = starts.shape[0]
    out = np.empty((n_groups, arity), dtype=np.int64)
    out[:, :n_indep] = rows[order[starts], :n_indep]
    if n_indep < arity:
        vals = rows[:, n_indep:][order]
        if n_groups != n:
            join = combiner.join
            # Halving, in place: pass d = 1, 2, 4, … joins every row whose
            # within-group position has lowest set bit d into the row d
            # before it, which is still live (its lowest bit is higher).
            # Rows pair up as halving a group log2 times would pair them,
            # earlier arrivals on the left, without compacting between
            # passes; each group's head ends holding the group's fold.
            pos = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
            low = pos & -pos
            top = int(counts.max())
            d = 1
            while d < top:
                idx = np.nonzero(low == d)[0]
                vals[idx - d] = join(vals[idx - d], vals[idx])
                d <<= 1
            vals = vals[starts]
        out[:, n_indep:] = vals
    if weights is not None:
        counts = np.add.reduceat(weights[order], starts)
    return out, counts
