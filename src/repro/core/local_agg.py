"""Fused deduplication + local aggregation (paper §III-A, §IV-A).

BPRA's last join stage is *deduplication*: newly generated tuples arrive at
their home rank (via all-to-all on the hash of their key columns) and are
checked against local storage; only genuinely new tuples are materialized
into Δ.  The paper's insight is that monotonic aggregation **generalizes**
this step: instead of a set-membership test, the rank applies the
aggregator's ``partial_agg`` to the stored accumulator, and only an
accumulator *improvement* enters Δ.  Because the tuple's independent
columns fully determine its rank, no communication beyond the all-to-all
that plain Datalog already pays is needed — recursive aggregation comes for
free.

Two shard flavours implement the two cases over identical interfaces:

:class:`PlainShard`
    Set semantics — ``absorb`` is membership-insert (the trivial lattice).
:class:`AggregateShard`
    Lattice semantics — ``absorb`` is accumulator join; a non-improving
    tuple (e.g. a longer path than one already known) is dropped on the
    spot, never entering Δ nor costing downstream communication.

A shard holds one (bucket, sub-bucket) fragment of one relation on one
rank.  Storage is a nested index ``jk → other → materialized tuple``
mirroring the paper's "nested BTree": the outer level keyed by join
columns (probe key of local joins), the inner by the remaining independent
columns.  Values are the *full materialized tuples*, so join probes return
them without reconstruction — the Python analogue of the C++ engine
handing out pointers into the B-tree.  The default containers are hash
maps (CPython dicts); ``use_btree=True`` switches the outer index to
:class:`~repro.ds.btree.BTreeMap` for ordered scans, matching the C++
layout at some constant-factor cost.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.aggregators import RecursiveAggregator
from repro.ds.btree import BTreeMap
from repro.relational.schema import Schema
from repro.util.getters import tuple_getter

TupleT = Tuple[int, ...]


class AbsorbStats:
    """Counts from one absorb batch (drives compute-cost charging)."""

    __slots__ = ("received", "admitted", "suppressed")

    def __init__(self) -> None:
        self.received = 0
        self.admitted = 0
        self.suppressed = 0

    def __repr__(self) -> str:
        return (
            f"AbsorbStats(received={self.received}, admitted={self.admitted}, "
            f"suppressed={self.suppressed})"
        )


class _ShardBase:
    """Interface shared by plain and aggregate shards."""

    __slots__ = ("schema", "full", "delta", "_next_delta", "n_full", "n_delta", "_n_next")

    def __init__(self, schema: Schema, use_btree: bool = False):
        self.schema = schema
        #: jk → {other → materialized tuple}
        self.full = BTreeMap() if use_btree else {}
        self.delta: Dict[TupleT, Dict[TupleT, TupleT]] = {}
        self._next_delta: Dict[TupleT, Dict[TupleT, TupleT]] = {}
        self.n_full = 0
        #: |Δ| and |next Δ|, maintained incrementally so ``delta_size`` is
        #: O(1) — an improvement only counts on its *first* entry into the
        #: pending Δ (later improvements of the same group overwrite).
        self.n_delta = 0
        self._n_next = 0

    # ------------------------------------------------------------- iteration

    def advance(self) -> int:
        """Promote the freshly absorbed tuples to Δ; return |Δ|."""
        self.delta = self._next_delta
        self._next_delta = {}
        self.n_delta = self._n_next
        self._n_next = 0
        return self.n_delta

    def seed_delta_from_full(self) -> None:
        """Make Δ = full (used when (re)starting a fixpoint from loaded data)."""
        self.delta = {jk: dict(group) for jk, group in self.full.items()}
        self.n_delta = self.n_full

    # ----------------------------------------------------------------- sizes

    def full_size(self) -> int:
        return self.n_full

    def delta_size(self) -> int:
        return self.n_delta

    # ------------------------------------------------------------- iterators

    def iter_full(self) -> Iterator[TupleT]:
        for group in self.full.values():
            yield from group.values()

    def iter_delta(self) -> Iterator[TupleT]:
        for group in self.delta.values():
            yield from group.values()

    # ----------------------------------------------------------------- probes

    def probe_full(self, jk: TupleT) -> Iterable[TupleT]:
        """All full-version tuples whose join key equals ``jk``."""
        group = self.full.get(jk)
        return group.values() if group else ()

    def probe_delta(self, jk: TupleT) -> Iterable[TupleT]:
        group = self.delta.get(jk)
        return group.values() if group else ()

    def count_full(self, jk: TupleT) -> int:
        group = self.full.get(jk)
        return len(group) if group else 0

    # ------------------------------------------------------- block interface
    # Dict shards interoperate with the columnar executor through these
    # adapters (used for aggregators without a vector combiner, and for
    # the columnar join index over scalar-stored relations).

    def absorb_block(
        self, rows: "np.ndarray", stats: Optional[AbsorbStats] = None
    ) -> int:
        """Absorb an ``(n, arity)`` int64 row-block (same order as rows)."""
        return self.absorb(
            [tuple(r) for r in rows.tolist()], stats
        )  # type: ignore[attr-defined]

    def version_block(self, version: str) -> "np.ndarray":
        """One version's tuples as an ``(n, arity)`` int64 block, in the
        shard's nested iteration order."""
        it = self.iter_full() if version == "full" else self.iter_delta()
        rows = list(it)
        if not rows:
            return np.empty((0, self.schema.arity), dtype=np.int64)
        return np.asarray(rows, dtype=np.int64)

    def install_state(
        self, full_rows: "np.ndarray", delta_rows: "np.ndarray"
    ) -> None:
        """Install a redistributed fragment wholesale (rebalance exchange).

        Only legal on a freshly created shard at an iteration boundary
        (``_next_delta`` empty): the rows arrive pre-deduplicated — every
        (jk, other) group lived in exactly one source shard — so this is
        pure insertion, never aggregation.  Insertion in delivery order
        reproduces the nested ``jk → other`` iteration order.
        """
        key_of = tuple_getter(self.schema.join_cols)
        other_of = tuple_getter(self.schema.other_cols)
        full = self.full
        for t in map(tuple, full_rows.tolist()):
            jk = key_of(t)
            group = full.get(jk)
            if group is None:
                group = {}
                full[jk] = group
            group[other_of(t)] = t
            self.n_full += 1
        delta = self.delta
        for t in map(tuple, delta_rows.tolist()):
            jk = key_of(t)
            dgroup = delta.get(jk)
            if dgroup is None:
                dgroup = delta[jk] = {}
            dgroup[other_of(t)] = t
            self.n_delta += 1

    def install_delta(self, delta_rows: "np.ndarray") -> int:
        """Replace Δ wholesale with the given rows (incremental seeding).

        Used by the incremental-maintenance layer to seed a resumed
        fixpoint: the rows are a change set already present in the full
        version, installed as Δ so downstream rules re-read exactly the
        changed tuples.  Insertion in delivery order reproduces the
        nested ``jk → other`` iteration order; the pending Δ is left
        untouched (it must be empty at an update boundary).
        """
        delta: Dict[TupleT, Dict[TupleT, TupleT]] = {}
        n = 0
        if delta_rows.shape[0]:
            key_of = tuple_getter(self.schema.join_cols)
            other_of = tuple_getter(self.schema.other_cols)
            for t in map(tuple, delta_rows.tolist()):
                jk = key_of(t)
                group = delta.get(jk)
                if group is None:
                    group = delta[jk] = {}
                group[other_of(t)] = t
            n = sum(len(g) for g in delta.values())
        self.delta = delta
        self.n_delta = n
        return n


class PlainShard(_ShardBase):
    """Set-semantics shard: fused dedup is plain membership-insert."""

    __slots__ = ()

    def absorb(
        self,
        tuples: Iterable[TupleT],
        stats: Optional[AbsorbStats] = None,
        collect: Optional[List[TupleT]] = None,
    ) -> int:
        """Insert new tuples; returns how many were genuinely new.

        ``collect``, if given, receives every admitted tuple (used by
        baseline engines that re-shuffle improvements).
        """
        schema = self.schema
        key_of = tuple_getter(schema.join_cols)
        other_of = tuple_getter(schema.other_cols)
        full = self.full
        next_delta = self._next_delta
        admitted = 0
        received = 0
        for t in tuples:
            received += 1
            jk = key_of(t)
            other = other_of(t)
            group = full.get(jk)
            if group is None:
                group = {}
                full[jk] = group
            if other in group:
                continue
            group[other] = t
            self.n_full += 1
            dgroup = next_delta.get(jk)
            if dgroup is None:
                dgroup = next_delta[jk] = {}
            dgroup[other] = t
            self._n_next += 1
            admitted += 1
            if collect is not None:
                collect.append(t)
        if stats is not None:
            stats.received += received
            stats.admitted += admitted
            stats.suppressed += received - admitted
        return admitted


class AggregateShard(_ShardBase):
    """Lattice-semantics shard: fused dedup *is* the local aggregation.

    ``full`` keeps at most one materialized tuple per aggregation group —
    the "collapse" that gives recursive aggregation its asymptotic edge
    over stratified aggregation (§II-C).
    """

    __slots__ = ("aggregator",)

    def __init__(self, schema: Schema, use_btree: bool = False):
        if schema.aggregator is None:
            raise ValueError(f"{schema.name}: AggregateShard requires an aggregator")
        super().__init__(schema, use_btree)
        self.aggregator: RecursiveAggregator = schema.aggregator

    def absorb(
        self,
        tuples: Iterable[TupleT],
        stats: Optional[AbsorbStats] = None,
        collect: Optional[List[TupleT]] = None,
    ) -> int:
        """Join incoming dependent values into accumulators.

        Returns the number of *improvements* (new groups or raised
        accumulators); everything else is suppressed with zero side
        effects — the paper's "no insertion is performed into Δ" rule.
        ``collect``, if given, receives the materialized improved tuples.
        """
        schema = self.schema
        key_of = tuple_getter(schema.join_cols)
        other_of = tuple_getter(schema.other_cols)
        n_indep = schema.n_indep
        agg = self.aggregator.partial_agg
        full = self.full
        next_delta = self._next_delta
        admitted = 0
        received = 0
        for t in tuples:
            received += 1
            jk = key_of(t)
            other = other_of(t)
            group = full.get(jk)
            if group is None:
                group = {}
                full[jk] = group
            cur = group.get(other)
            if cur is None:
                group[other] = t
                self.n_full += 1
                dgroup = next_delta.get(jk)
                if dgroup is None:
                    dgroup = next_delta[jk] = {}
                dgroup[other] = t
                self._n_next += 1
                admitted += 1
                if collect is not None:
                    collect.append(t)
                continue
            cur_dep = cur[n_indep:]
            joined = agg(cur_dep, t[n_indep:])
            if joined != cur_dep:
                new_t = cur[:n_indep] + joined
                group[other] = new_t
                dgroup = next_delta.get(jk)
                if dgroup is None:
                    dgroup = next_delta[jk] = {}
                if other not in dgroup:
                    self._n_next += 1
                dgroup[other] = new_t
                admitted += 1
                if collect is not None:
                    collect.append(new_t)
        if stats is not None:
            stats.received += received
            stats.admitted += admitted
            stats.suppressed += received - admitted
        return admitted

    def lookup(self, indep: TupleT) -> Optional[TupleT]:
        """Current accumulated dependent value for an independent key."""
        jk = tuple(indep[c] for c in self.schema.join_cols)
        other = tuple(indep[c] for c in self.schema.other_cols)
        group = self.full.get(jk)
        if not group:
            return None
        t = group.get(other)
        return None if t is None else t[self.schema.n_indep:]


def make_shard(schema: Schema, use_btree: bool = False, columnar: bool = False):
    """Factory selecting the shard flavour from the schema.

    ``columnar=True`` returns a numpy-backed shard from
    :mod:`repro.kernels.absorb` when the schema's aggregator has a vector
    combiner (always, for plain schemas); aggregators without one (custom
    or product lattices) fall back to the dict shards above, which the
    columnar executor drives through their block adapters.
    """
    if columnar and not use_btree:
        from repro.kernels.absorb import columnar_shard_for

        shard = columnar_shard_for(schema)
        if shard is not None:
            return shard
    if schema.is_aggregate:
        return AggregateShard(schema, use_btree)
    return PlainShard(schema, use_btree)
