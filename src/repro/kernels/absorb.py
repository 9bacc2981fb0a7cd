"""Vectorized fused dedup / local aggregation — columnar shards.

The scalar shards (:mod:`repro.core.local_agg`) absorb one tuple at a
time into nested dicts.  The columnar shards below hold the same state
as growing int64 arrays and absorb whole row-blocks, while replaying the
scalar path's *sequential* semantics exactly:

* **admitted counts** — the scalar path admits every occurrence that
  improves the accumulator, so within-group arrival order matters
  (MIN absorbing 5,3,4 admits twice; 3,5,4 once).  The block kernel
  groups rows by value (:func:`~repro.kernels.block.lex_group`, stable)
  and folds occurrence *rounds* — each group's k-th arrival — with the
  aggregator's vector kernel; groups with many duplicates switch to a
  per-group ``ufunc.accumulate`` sequential fold.  Both reproduce the
  per-occurrence improvement tests bit-for-bit.
* **Δ order** — the scalar Δ is a nested dict ordered by (first jk
  improvement, first group improvement).  The columnar shard records
  pending row ids in first-improvement order and reconstructs the
  nested order at ``advance()`` with one stable argsort.
* **full order** — scalar ``iter_full`` yields groups nested by (jk
  first-admission, group admission); the columnar equivalent is a
  cached stable argsort over the append-ordered row store.

Aggregators vectorize through a per-type registry
(:func:`vector_combiner`): MIN/MAX/SUM/COUNT/ANY/UNION/MCOUNT.  Custom
and product-lattice (:class:`~repro.core.aggregators.TupleAggregator`)
aggregators have no vector kernel — ``make_shard`` then falls back to
the scalar dict shard, whose ``absorb_block`` wrapper converts rows to
tuples (exact, just slower).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Type

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
from repro.core.local_agg import AbsorbStats
from repro.kernels.block import (
    GrowBuf,
    GrowVec,
    as_rows,
    concat_ranges,
    group_columns,
    group_ids,
    lex_group,
)
from repro.relational.schema import Schema
from repro.util.hashing import hash_columns

TupleT = Tuple[int, ...]

#: Fixed salt for shard identity hashing (build and probe must agree).
_IDENT_SEED = 0x1DE27C01

#: Groups with more duplicates than this per batch leave the round loop
#: and use a per-group sequential ``accumulate`` fold instead.
_ROUNDS_LIMIT = 8


class VectorCombiner:
    """A lattice join lifted to arrays, plus its sequential fold.

    ``join(cur, new)`` combines two ``(g, n_dep)`` blocks elementwise;
    ``accumulate(seq)`` returns the running fold of ``seq`` along axis 0
    (``acc[i] = join(acc[i-1], seq[i])``, ``acc[0] = seq[0]``) — the
    vectorized form of the scalar path's one-at-a-time absorption.

    ``fold_rows``/``pad`` enable the *batched* duplicate-heavy fold: many
    groups at once, one occurrence sequence per matrix row.  ``fold_rows``
    accumulates a ``(groups, occurrences, n_dep)`` block along axis 1
    with the same per-row semantics as ``accumulate``; ``pad`` is an
    identity element (``join(x, pad) == x`` once an accumulator holds a
    joined value), used to right-pad shorter sequences so the padding
    can never register as an improvement.  Combiners without both fall
    back to the per-group sequential fold.

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

    __slots__ = ("join", "accumulate", "fold_rows", "pad", "combinable")

    def __init__(
        self,
        join: Callable[[np.ndarray, np.ndarray], np.ndarray],
        accumulate: Callable[[np.ndarray], np.ndarray],
        fold_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        pad: Optional[int] = None,
        combinable: bool = False,
    ):
        self.join = join
        self.accumulate = accumulate
        self.fold_rows = fold_rows
        self.pad = pad
        self.combinable = combinable


_I64_MAX = np.iinfo(np.int64).max
_I64_MIN = np.iinfo(np.int64).min


def _any_join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Scalar ANY normalizes to {0, 1}; a stored raw value (first arrival)
    # that re-joins must therefore still compare unequal — keep int64.
    return ((a != 0) | (b != 0)).astype(np.int64)


def _any_accumulate(seq: np.ndarray) -> np.ndarray:
    acc = np.logical_or.accumulate(seq != 0, axis=0).astype(np.int64)
    acc[0] = seq[0]  # first element is the raw init value, not normalized
    return acc


def _any_fold_rows(seq: np.ndarray) -> np.ndarray:
    acc = np.logical_or.accumulate(seq != 0, axis=1).astype(np.int64)
    acc[:, 0] = seq[:, 0]  # column 0 holds each group's raw init value
    return acc


def _mcount_combiner(agg: MCountAggregator) -> VectorCombiner:
    bound = int(agg.lattice.bound)
    return VectorCombiner(
        join=lambda a, b: np.minimum(np.maximum(a, b), bound),
        # min(max(c, v1..vk), B) — the clamp commutes with the running max.
        accumulate=lambda s: np.minimum(np.maximum.accumulate(s, axis=0), bound),
        fold_rows=lambda s: np.minimum(np.maximum.accumulate(s, axis=1), bound),
        pad=_I64_MIN,
        combinable=True,
    )


_COMBINERS: Dict[Type[RecursiveAggregator], Callable[[RecursiveAggregator], VectorCombiner]] = {
    MinAggregator: lambda agg: VectorCombiner(
        np.minimum, lambda s: np.minimum.accumulate(s, axis=0),
        lambda s: np.minimum.accumulate(s, axis=1), _I64_MAX,
        combinable=True,
    ),
    MaxAggregator: lambda agg: VectorCombiner(
        np.maximum, lambda s: np.maximum.accumulate(s, axis=0),
        lambda s: np.maximum.accumulate(s, axis=1), _I64_MIN,
        combinable=True,
    ),
    SumAggregator: lambda agg: VectorCombiner(
        np.add, lambda s: np.add.accumulate(s, axis=0),
        lambda s: np.add.accumulate(s, axis=1), 0,
    ),
    CountAggregator: lambda agg: VectorCombiner(
        np.add, lambda s: np.add.accumulate(s, axis=0),
        lambda s: np.add.accumulate(s, axis=1), 0,
    ),
    AnyAggregator: lambda agg: VectorCombiner(
        _any_join, _any_accumulate, _any_fold_rows, 0, combinable=True
    ),
    UnionAggregator: lambda agg: VectorCombiner(
        np.bitwise_or, lambda s: np.bitwise_or.accumulate(s, axis=0),
        lambda s: np.bitwise_or.accumulate(s, axis=1), 0,
        combinable=True,
    ),
    MCountAggregator: _mcount_combiner,
}


def register_vector_combiner(
    agg_type: Type[RecursiveAggregator],
    factory: Callable[[RecursiveAggregator], VectorCombiner],
) -> None:
    """Register a vector kernel for a custom aggregator type."""
    _COMBINERS[agg_type] = factory


def vector_combiner(agg: RecursiveAggregator) -> Optional[VectorCombiner]:
    """The vector kernel for an aggregator, or None (scalar fallback).

    Keyed by *exact* type: a subclass overriding ``partial_agg`` must not
    inherit its parent's kernel.
    """
    factory = _COMBINERS.get(type(agg))
    return factory(agg) if factory is not None else None


def sender_fold_plan(schema: Schema) -> Tuple[Optional[VectorCombiner], bool]:
    """``(combiner, can_combine)``: how a sender may fold one head
    relation's route boxes before the all-to-all (wire layer, every
    driver).

    Plain relations fold by deduplication (no combiner needed);
    aggregates fold only when their vector combiner exists and is marked
    ``combinable`` (sender folding provably commutes with receiver
    absorption).  Everything else ships verbatim — the codec still
    applies.
    """
    if not schema.is_aggregate:
        return None, True
    comb = vector_combiner(schema.aggregator)
    if comb is not None and comb.combinable:
        return comb, True
    return None, False


class _ColumnarShardBase:
    """Shared state and machinery of the columnar shard flavours.

    Storage is a single append-only ``(n, arity)`` row store — one row
    per aggregation group, appended at admission, dependent columns
    updated in place on improvement.  A hash index over the identity
    columns (all independent columns) serves O(1) amortized group
    lookup; hash hits are verified against the actual column values and
    collision runs resolve by exact scan, so lookups can never confuse
    distinct groups.
    """

    __slots__ = (
        "schema",
        "n_indep",
        "_id_cols",
        "_jk_cols",
        "_data",
        "_hashes",
        "_sort_order",
        "_sorted_hashes",
        "_sorted_n",
        "_pending_ids",
        "_in_pending",
        "_delta_block",
        "full_gen",
        "_nested_gen",
        "_nested_cache",
        "_full_block_gen",
        "_full_block",
    )

    def __init__(self, schema: Schema):
        self.schema = schema
        self.n_indep = schema.n_indep
        self._id_cols = tuple(range(self.n_indep))
        self._jk_cols = list(schema.join_cols)
        self._data = GrowBuf(schema.arity)
        self._hashes = GrowVec(np.uint64)
        self._sort_order = np.empty(0, dtype=np.int64)
        self._sorted_hashes = np.empty(0, dtype=np.uint64)
        self._sorted_n = 0
        self._pending_ids = GrowVec(np.int64)
        self._in_pending = GrowVec(bool, fill=False)
        self._delta_block = np.empty((0, schema.arity), dtype=np.int64)
        self.full_gen = 0
        self._nested_gen = -1
        self._nested_cache = np.empty(0, dtype=np.int64)
        self._full_block_gen = -1
        self._full_block = self._delta_block

    # ------------------------------------------------------------- interface

    @property
    def n_full(self) -> int:
        return self._data.n

    def full_size(self) -> int:
        return self._data.n

    def delta_size(self) -> int:
        return int(self._delta_block.shape[0])

    def advance(self) -> int:
        """Promote pending rows to Δ in the scalar path's nested order."""
        ids = self._pending_ids.view()
        k = ids.shape[0]
        if k == 0:
            self._delta_block = np.empty((0, self.schema.arity), dtype=np.int64)
            return 0
        rows = self._data.view()[ids]  # materialized snapshot (copy)
        jkv = rows[:, self._jk_cols]
        order, starts, counts = lex_group(jkv)
        # Outer dict order = first improvement of *any* group in the jk;
        # inner order = first improvement of the group.  ids is already in
        # first-improvement order, so a stable sort by each row's jk-first
        # pending position reproduces the nested iteration exactly.
        key = np.empty(k, dtype=np.int64)
        key[order] = np.repeat(order[starts], counts)
        self._delta_block = rows[np.argsort(key, kind="stable")]
        self._in_pending.view()[ids] = False
        self._pending_ids.clear()
        return k

    def seed_delta_from_full(self) -> None:
        self._delta_block = self.version_block("full").copy()

    def install_state(self, full_rows: np.ndarray, delta_rows: np.ndarray) -> None:
        """Install a redistributed fragment wholesale (rebalance exchange).

        Only legal on a freshly created shard at an iteration boundary
        (no pending rows).  Appending ``full_rows`` in delivery order makes
        :meth:`_nested_order` reproduce the scalar shard's nested iteration
        exactly; the Δ block is normalized into the same nested order a
        dict shard gets for free from insertion order.
        """
        if full_rows.shape[0]:
            self._append_rows(np.ascontiguousarray(full_rows))
            self.full_gen += 1
        k = delta_rows.shape[0]
        if k:
            rows = np.ascontiguousarray(delta_rows)
            jkv = rows[:, self._jk_cols]
            order, starts, counts = lex_group(jkv)
            key = np.empty(k, dtype=np.int64)
            key[order] = np.repeat(order[starts], counts)
            self._delta_block = rows[np.argsort(key, kind="stable")]

    def install_delta(self, delta_rows: np.ndarray) -> int:
        """Replace Δ wholesale with the given rows (incremental seeding).

        Columnar twin of the dict shard's ``install_delta``: the block is
        normalized into the nested (jk-first-occurrence, row) order a dict
        shard gets for free from insertion order, so both layouts iterate
        the installed Δ identically.  The full store and pending rows are
        untouched.
        """
        k = int(delta_rows.shape[0])
        if not k:
            self._delta_block = np.empty((0, self.schema.arity), dtype=np.int64)
            return 0
        rows = np.ascontiguousarray(delta_rows, dtype=np.int64)
        jkv = rows[:, self._jk_cols]
        order, starts, counts = lex_group(jkv)
        key = np.empty(k, dtype=np.int64)
        key[order] = np.repeat(order[starts], counts)
        self._delta_block = rows[np.argsort(key, kind="stable")]
        return k

    # -------------------------------------------------------------- ordering

    def _nested_order(self) -> np.ndarray:
        """Stable permutation of the row store into nested (jk, group) order."""
        if self._nested_gen == self.full_gen:
            return self._nested_cache
        n = self._data.n
        jkv = self._data.view()[:, self._jk_cols]
        order, starts, counts = lex_group(jkv)
        key = np.empty(n, dtype=np.int64)
        key[order] = np.repeat(order[starts], counts)
        self._nested_cache = np.argsort(key, kind="stable")
        self._nested_gen = self.full_gen
        return self._nested_cache

    def version_block(self, version: str) -> np.ndarray:
        """One version's rows in the scalar path's iteration order."""
        if version == "delta":
            return self._delta_block
        if version != "full":
            raise ValueError(f"unknown version {version!r}")
        if self._full_block_gen != self.full_gen:
            self._full_block = self._data.view()[self._nested_order()]
            self._full_block_gen = self.full_gen
        return self._full_block

    # ------------------------------------------------------------- iterators

    def iter_full(self) -> Iterator[TupleT]:
        for row in self.version_block("full").tolist():
            yield tuple(row)

    def iter_delta(self) -> Iterator[TupleT]:
        for row in self._delta_block.tolist():
            yield tuple(row)

    # ----------------------------------------------------------------- probes

    def _rows_matching_jk(self, block: np.ndarray, jk: TupleT) -> Iterable[TupleT]:
        if block.shape[0] == 0:
            return ()
        mask = np.ones(block.shape[0], dtype=bool)
        for pos, c in enumerate(self._jk_cols):
            mask &= block[:, c] == jk[pos]
        return [tuple(r) for r in block[mask].tolist()]

    def probe_full(self, jk: TupleT) -> Iterable[TupleT]:
        return self._rows_matching_jk(self.version_block("full"), jk)

    def probe_delta(self, jk: TupleT) -> Iterable[TupleT]:
        return self._rows_matching_jk(self._delta_block, jk)

    def count_full(self, jk: TupleT) -> int:
        return len(list(self.probe_full(jk)))

    # ------------------------------------------------------------- absorption

    def absorb(
        self,
        tuples: Iterable[TupleT],
        stats: Optional[AbsorbStats] = None,
        collect: Optional[List[TupleT]] = None,
    ) -> int:
        """Tuple-API compatibility wrapper over :meth:`absorb_block`."""
        if collect is not None:
            raise NotImplementedError(
                "columnar shards do not support collect= (use scalar shards)"
            )
        rows = np.asarray(list(tuples), dtype=np.int64).reshape(-1, self.schema.arity)
        return self.absorb_block(rows, stats)

    def absorb_block(
        self, rows: np.ndarray, stats: Optional[AbsorbStats] = None
    ) -> int:
        raise NotImplementedError

    # --------------------------------------------------------------- lookups

    def _lookup(self, queries: np.ndarray) -> np.ndarray:
        """Row id per query identity (rows over identity columns); -1 = miss."""
        m = queries.shape[0]
        out = np.full(m, -1, dtype=np.int64)
        n = self._data.n
        if n == 0 or m == 0:
            return out
        if self._sorted_n != n:
            hashes = self._hashes.view()
            self._sort_order = np.argsort(hashes, kind="stable").astype(np.int64)
            self._sorted_hashes = hashes[self._sort_order]
            self._sorted_n = n
        qh = hash_columns(queries, self._id_cols, _IDENT_SEED)
        lo = np.searchsorted(self._sorted_hashes, qh, side="left")
        hi = np.searchsorted(self._sorted_hashes, qh, side="right")
        run = hi - lo
        data = self._data.view()
        one = run == 1
        if one.any():
            cand = self._sort_order[lo[one]]
            ok = (data[cand][:, : self.n_indep] == queries[one]).all(axis=1)
            sel = np.nonzero(one)[0]
            out[sel[ok]] = cand[ok]
        multi = run > 1
        if multi.any():
            # Distinct stored identities colliding on one 64-bit hash —
            # astronomically rare; resolve those few queries exactly.
            for i in np.nonzero(multi)[0]:
                qrow = queries[i]
                for pos in range(lo[i], hi[i]):
                    rid = self._sort_order[pos]
                    if (data[rid, : self.n_indep] == qrow).all():
                        out[i] = rid
                        break
        return out

    def _append_rows(self, rows: np.ndarray) -> int:
        """Append admitted group rows; returns the base row id."""
        base = self._data.n
        self._data.append(rows)
        self._hashes.append(hash_columns(rows, self._id_cols, _IDENT_SEED))
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


class ColumnarPlainShard(_ColumnarShardBase):
    """Set-semantics shard over a columnar row store."""

    __slots__ = ()

    def absorb_block(
        self, rows: np.ndarray, stats: Optional[AbsorbStats] = None
    ) -> int:
        rows = as_rows(rows, self.schema.arity)
        n = rows.shape[0]
        admitted = 0
        if n:
            order, starts, _counts = lex_group(rows)
            rep = order[starts]  # first arrival per distinct tuple (stable)
            fresh = self._lookup(rows[rep]) < 0
            if fresh.any():
                # Admission order = first-arrival order, exactly the scalar
                # insert order — and (trivially) the Δ insert order too.
                new_rep = np.sort(rep[fresh])
                admitted = int(new_rep.shape[0])
                base = self._append_rows(rows[new_rep])
                self._push_pending(np.arange(base, base + admitted, dtype=np.int64))
                self.full_gen += 1
        if stats is not None:
            stats.received += n
            stats.admitted += admitted
            stats.suppressed += n - admitted
        return admitted


class ColumnarAggregateShard(_ColumnarShardBase):
    """Lattice-semantics shard: batch absorb with exact scalar replay."""

    __slots__ = ("aggregator", "_combiner")

    def __init__(self, schema: Schema, combiner: Optional[VectorCombiner] = None):
        if schema.aggregator is None:
            raise ValueError(
                f"{schema.name}: ColumnarAggregateShard requires an aggregator"
            )
        super().__init__(schema)
        self.aggregator: RecursiveAggregator = schema.aggregator
        if combiner is None:
            combiner = vector_combiner(schema.aggregator)
        if combiner is None:
            raise ValueError(
                f"{schema.name}: no vector kernel for aggregator "
                f"{schema.aggregator.name!r} (use the scalar shard)"
            )
        self._combiner = combiner

    def lookup(self, indep: TupleT) -> Optional[TupleT]:
        """Current accumulated dependent value for an independent key."""
        q = np.asarray([indep], dtype=np.int64).reshape(1, self.n_indep)
        rid = int(self._lookup(q)[0])
        if rid < 0:
            return None
        return tuple(self._data.view()[rid, self.n_indep :].tolist())

    def absorb_block(
        self, rows: np.ndarray, stats: Optional[AbsorbStats] = None
    ) -> int:
        rows = as_rows(rows, self.schema.arity)
        n = rows.shape[0]
        if n == 0:
            return 0
        n_indep = self.n_indep
        indep = rows[:, :n_indep]
        dep = rows[:, n_indep:]
        order, starts, counts = lex_group(indep)
        g_count = starts.shape[0]
        gid_sorted = group_ids(starts, counts)
        rep = order[starts]  # first-arrival row per group
        row_id = self._lookup(indep[rep])
        exists = row_id >= 0
        new_mask = ~exists

        # Running accumulator per group.  New groups initialize from their
        # first arrival (always admitted, scalar's cur-is-None branch).
        cur = np.empty((g_count, dep.shape[1]), dtype=np.int64)
        if exists.any():
            cur[exists] = self._data.view()[row_id[exists], n_indep:]
        cur[new_mask] = dep[rep[new_mask]]
        admitted = int(new_mask.sum())
        improved = new_mask.copy()
        first_imp = np.empty(g_count, dtype=np.int64)
        first_imp[new_mask] = rep[new_mask]

        join = self._combiner.join
        max_occ = int(counts.max())
        big = counts > _ROUNDS_LIMIT
        small = ~big
        # Round k: every (small) group's k-th occurrence, all at once.  A
        # new group's occurrence 0 was consumed as the init value above.
        for k in range(min(max_occ, _ROUNDS_LIMIT + 1)):
            if k == 0:
                sel_g = np.nonzero(exists & small)[0]
            else:
                sel_g = np.nonzero(small & (counts > k))[0]
            if sel_g.shape[0] == 0:
                continue
            row_idx = order[starts[sel_g] + k]
            joined = join(cur[sel_g], dep[row_idx])
            imp = (joined != cur[sel_g]).any(axis=1)
            if imp.any():
                gi = sel_g[imp]
                admitted += int(imp.sum())
                newly = ~improved[gi]
                if newly.any():
                    first_imp[gi[newly]] = row_idx[imp][newly]
                    improved[gi] = True
                cur[gi] = joined[imp]
        if big.any():
            if self._combiner.fold_rows is not None:
                admitted += self._fold_big_batched(
                    np.nonzero(big)[0], cur, dep, order, starts, counts,
                    exists, improved, first_imp,
                )
            else:
                accumulate = self._combiner.accumulate
                for g in np.nonzero(big)[0]:
                    seg = order[starts[g] : starts[g] + counts[g]]
                    vals = dep[seg]
                    if exists[g]:
                        seq = np.vstack([cur[g : g + 1], vals])
                        occ_base = 0  # seq step i vs occurrence i-1
                    else:
                        seq = vals  # first occurrence is the init value
                        occ_base = 1
                    acc = accumulate(seq)
                    diffs = (acc[1:] != acc[:-1]).any(axis=1)
                    n_imp = int(diffs.sum())
                    if n_imp:
                        admitted += n_imp
                        if not improved[g]:
                            occ = int(np.argmax(diffs)) + occ_base
                            first_imp[g] = order[starts[g] + occ]
                            improved[g] = True
                    cur[g] = acc[-1]

        # State updates.  New groups append in first-arrival order (the
        # scalar full-dict insert order); improved existing groups update
        # their dependent columns in place.
        return self._finish_absorb(
            rows, n, indep, dep, cur, row_id, rep, new_mask, exists,
            improved, first_imp, admitted, stats,
        )

    def _fold_big_batched(
        self,
        bg: np.ndarray,
        cur: np.ndarray,
        dep: np.ndarray,
        order: np.ndarray,
        starts: np.ndarray,
        counts: np.ndarray,
        exists: np.ndarray,
        improved: np.ndarray,
        first_imp: np.ndarray,
    ) -> int:
        """Fold all duplicate-heavy groups at once via padded matrices.

        Power-law hubs make batches with hundreds of big groups common
        (SSSP on the twitter stand-in: ~100 per routed batch), so the
        per-group sequential fold is the hot path's hot path.  Groups are
        bucketed by occurrence-count size class (padding waste ≤ 2×) and
        each class folds as one ``(groups, occurrences, n_dep)``
        accumulate: column 0 is the running accumulator (or the first
        arrival, for new groups), shorter sequences are right-padded with
        the combiner's identity — padding can never look like an
        improvement, so admitted counts replay the scalar order exactly.
        """
        fold_rows = self._combiner.fold_rows
        pad = self._combiner.pad
        d = dep.shape[1]
        admitted = 0
        off_all = np.where(exists[bg], 0, 1).astype(np.int64)
        m_all = counts[bg] - off_all  # value entries beyond the init slot
        cls = np.ceil(np.log2(m_all)).astype(np.int64)
        for c in np.unique(cls):
            sel = np.nonzero(cls == c)[0]
            g = bg[sel]
            off = off_all[sel]
            m = m_all[sel]
            G = g.shape[0]
            W = int(m.max())
            mat = np.full((G, W + 1, d), pad, dtype=np.int64)
            mat[:, 0, :] = cur[g]
            total = int(m.sum())
            src = concat_ranges(starts[g] + off, m)
            gi = np.repeat(np.arange(G, dtype=np.int64), m)
            ci = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(m) - m, m
            ) + 1
            mat[gi, ci] = dep[order[src]]
            acc = fold_rows(mat)
            diffs = (acc[:, 1:] != acc[:, :-1]).any(axis=2)  # (G, W)
            admitted += int(diffs.sum())
            imp = diffs.any(axis=1)
            if imp.any():
                gg = g[imp]
                newly = ~improved[gg]
                if newly.any():
                    first_j = np.argmax(diffs[imp][newly], axis=1)
                    occ = first_j + off[imp][newly]
                    sel_g = gg[newly]
                    first_imp[sel_g] = order[starts[sel_g] + occ]
                improved[gg] = True
            cur[g] = acc[:, -1]
        return admitted

    def _finish_absorb(
        self, rows, n, indep, dep, cur, row_id, rep, new_mask, exists,
        improved, first_imp, admitted, stats,
    ) -> int:
        n_indep = self.n_indep
        if new_mask.any():
            ng = np.nonzero(new_mask)[0]
            ng = ng[np.argsort(rep[ng], kind="stable")]
            block = np.empty((ng.shape[0], self.schema.arity), dtype=np.int64)
            block[:, :n_indep] = indep[rep[ng]]
            block[:, n_indep:] = cur[ng]
            base = self._append_rows(block)
            row_id[ng] = base + np.arange(ng.shape[0], dtype=np.int64)
        upd = exists & improved
        if upd.any():
            self._data.view()[row_id[upd], n_indep:] = cur[upd]
        imp_ids = np.nonzero(improved)[0]
        if imp_ids.shape[0]:
            rids = row_id[imp_ids]
            fresh = ~self._in_pending.view()[rids]
            if fresh.any():
                sel = imp_ids[fresh]
                # Δ insert order = each group's first improvement position.
                sel = sel[np.argsort(first_imp[sel], kind="stable")]
                self._push_pending(row_id[sel])
        if admitted:
            self.full_gen += 1
        if stats is not None:
            stats.received += n
            stats.admitted += admitted
            stats.suppressed += n - admitted
        return admitted


def columnar_shard_for(schema: Schema):
    """A columnar shard for ``schema``, or None if it cannot vectorize."""
    if not schema.is_aggregate:
        return ColumnarPlainShard(schema)
    combiner = vector_combiner(schema.aggregator)
    if combiner is None:
        return None
    return ColumnarAggregateShard(schema, combiner)


def combine_blocks(
    rows: np.ndarray,
    starts: np.ndarray,
    n_indep: int,
    combiner: Optional[VectorCombiner],
) -> Tuple[np.ndarray, np.ndarray]:
    """Sender-side fold of consecutive route boxes in one pass.

    Box ``k`` is ``rows[starts[k]:starts[k + 1]]``; the result holds one
    row per (box, independent key) with the same box-offset convention.
    ``combiner is None`` means a plain (set-semantics) relation —
    duplicates are dropped outright.  For aggregates the combiner's
    ``join`` must be ``combinable`` (the caller gates on that); each
    key's occurrence sequence collapses to its lattice fold via a
    logarithmic halving pass, so duplicate-heavy boxes cost
    O(n log max_dups) vector work instead of a Python-level group loop.

    Rows are grouped once on ``(box, independent key…)``: only those key
    columns are sorted, and a lone box adds no box column and no copy.
    Within each box the output is sorted by independent key with distinct
    keys — the canonical form the delta codec exploits, and exactly what
    folding that box on its own yields (halving positions are per group,
    so neighbouring boxes never interact).  Receiver absorption of a
    folded box leaves shard state and Δ membership exactly as the
    unfolded box would (see ``VectorCombiner.combinable``).
    """
    n, arity = rows.shape
    n_boxes = len(starts) - 1
    if n == 0:
        return rows, np.zeros(n_boxes + 1, dtype=np.int64)
    if combiner is None:
        n_indep = arity
    key_cols = [rows[:, c] for c in range(n_indep)]
    if n_boxes > 1:
        box = np.repeat(np.arange(n_boxes, dtype=np.int64), np.diff(starts))
        key_cols.insert(0, box)
    if key_cols:
        order, g_starts, g_counts = group_columns(key_cols)
    else:  # global aggregate, one box: every row shares the empty key
        order = np.arange(n, dtype=np.int64)
        g_starts = np.zeros(1, dtype=np.int64)
        g_counts = np.asarray([n], dtype=np.int64)
    n_groups = g_starts.shape[0]
    heads = order[g_starts]
    out = np.empty((n_groups, arity), dtype=np.int64)
    out[:, :n_indep] = rows[heads, :n_indep]
    if n_indep < arity:
        vals = rows[:, n_indep:][order]
        if n_groups != n:
            join = combiner.join
            # Within-group positions; halving joins odd positions into their
            # even predecessors until one row per group remains.
            pos = np.arange(n, dtype=np.int64) - np.repeat(g_starts, g_counts)
            while vals.shape[0] > n_groups:
                odd = (pos & 1) == 1
                idx = np.nonzero(odd)[0]
                vals[idx - 1] = join(vals[idx - 1], vals[idx])
                keep = ~odd
                vals = vals[keep]
                pos = pos[keep] >> 1
        out[:, n_indep:] = vals
    if n_boxes == 1:
        out_starts = np.asarray([0, n_groups], dtype=np.int64)
    else:
        out_starts = np.zeros(n_boxes + 1, dtype=np.int64)
        np.cumsum(np.bincount(box[heads], minlength=n_boxes), out=out_starts[1:])
    return out, out_starts


def combine_block(
    rows: np.ndarray, n_indep: int, combiner: Optional[VectorCombiner]
) -> np.ndarray:
    """:func:`combine_blocks` for one box: one row per independent key."""
    n = rows.shape[0]
    if n <= 1:
        return rows
    return combine_blocks(rows, np.asarray([0, n]), n_indep, combiner)[0]
