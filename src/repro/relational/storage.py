"""Cluster-wide relation storage: one row store per relation.

A :class:`VersionedRelation` is the global view of one relation across
the simulated cluster.  Its rows live in one store
(:mod:`repro.kernels.absorb`) that tags every row with its *segment*,
``bucket * n_subbuckets + sub``, so segment order is shard order.  A
shard is the store restricted to one segment, and its rank is read from
:attr:`~repro.relational.distribution.Distribution.owner_table`.

Data still enters a shard only at load time or out of a collective's
receive buffer, as on the real system, but each step runs once for every
shard: one absorb per exchange (in bounded runs) or load, one
``advance``, one Δ install, and per-rank sizes as one ``np.bincount``
over the rows' owners.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.absorb import AbsorbStats, make_shard
from repro.kernels.block import concat_ranges
from repro.kernels.join import RankJoinIndex
from repro.relational.distribution import Distribution
from repro.relational.schema import Schema
from repro.util.hashing import HashSeed

TupleT = Tuple[int, ...]
ShardKey = Tuple[int, int]


class VersionedRelation:
    """One relation distributed over the cluster, with semi-naïve versions."""

    def __init__(
        self,
        schema: Schema,
        n_ranks: int,
        *,
        seed: Optional[HashSeed] = None,
    ):
        self.schema = schema
        self.n_ranks = n_ranks
        self.dist = Distribution(schema, n_ranks, seed)
        #: Every shard's rows, each tagged with its segment.
        self.table = make_shard(schema)
        #: Version generations for the :meth:`_cached` values: ``full_gen``
        #: bumps whenever the full version changes, ``delta_gen`` whenever
        #: Δ is replaced.
        self.full_gen = 0
        self.delta_gen = 0
        #: What :meth:`_cached` built: key → (state it was built for, value).
        self._cache: Dict[tuple, tuple] = {}

    # ---------------------------------------------------------------- shards

    def segments_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """The segment (home shard) of every row under today's placement."""
        buckets, subs = self.dist.bucket_sub_of_rows(rows)
        return buckets * self.schema.n_subbuckets + subs

    def rank_of_segment(self) -> np.ndarray:
        """Owner rank of every segment id."""
        return self.dist.owner_table.reshape(-1)

    # ----------------------------------------------------------------- load

    def rows_of(self, tuples: Iterable[TupleT]) -> np.ndarray:
        """``tuples`` as an ``(n, arity)`` int64 array; rows of any other
        arity raise :class:`ValueError`."""
        arr = np.asarray(
            tuples if isinstance(tuples, np.ndarray) else list(tuples),
            dtype=np.int64,
        )
        if arr.size == 0:
            return arr.reshape(0, self.schema.arity)
        if arr.ndim != 2 or arr.shape[1] != self.schema.arity:
            raise ValueError(
                f"{self.schema.name}: expected rows of arity "
                f"{self.schema.arity}, got array shape {arr.shape}"
            )
        return np.ascontiguousarray(arr)

    def load(
        self,
        tuples: Iterable[TupleT],
        *,
        stats: Optional[AbsorbStats] = None,
    ) -> int:
        """Bulk-load tuples into their home shards (initial distribution).

        Placement is vectorized (one hash pass over all rows); absorption
        respects aggregate semantics, so loading duplicate-keyed aggregate
        facts folds them immediately.  Returns admitted tuple count.
        """
        arr = self.rows_of(tuples)
        if not arr.shape[0]:
            return 0
        admitted = self.table.absorb_block(
            arr, stats, segs=self.segments_of_rows(arr)
        )
        if admitted:
            self.full_gen += 1
        return admitted

    def absorb(
        self,
        runs: Iterable[Tuple[np.ndarray, np.ndarray]],
        collect: Optional[List[np.ndarray]] = None,
        audit: Optional[list] = None,
    ) -> AbsorbStats:
        """Absorb routed rows (dedup phase).

        ``runs`` are row blocks, each with every row's segment (``bucket *
        n_subbuckets + sub``), one table absorb each: an exchange hands
        its deliveries in bounded runs, so the kernel's row-sized
        temporaries stay bounded however many shards it feeds.
        Absorption is sequential, so each shard takes its rows in run
        order and the table ends exactly as one absorb of every run would
        leave it.  Returns the counts per rank, each row charged to its
        segment's owner.  ``audit`` collects an aggregate store's touched
        groups and their prior accumulators, one triple per run.
        """
        stats = AbsorbStats(self.rank_of_segment(), self.n_ranks)
        admitted = 0
        for rows, segs in runs:
            admitted += self.table.absorb_block(rows, stats, collect, segs, audit)
        if admitted:
            self.full_gen += 1
        return stats

    # ------------------------------------------------------------ iteration

    def advance(self) -> int:
        """Promote freshly absorbed tuples to Δ on every shard; return |Δ|."""
        total = self.table.advance()
        self.delta_gen += 1
        return total

    def install_delta(self, rows: Optional[np.ndarray] = None) -> int:
        """Replace Δ with the given change-set rows.

        The incremental-maintenance seeding primitive: rows are placed
        by the normal bucket/sub-bucket hash, and shards that receive
        nothing get an empty Δ (``rows=None`` clears Δ everywhere).
        Rows must already exist in the full version — this installs a
        *view* of what changed, it never inserts.  Bumps ``delta_gen`` so
        cached Δ join indexes rebuild.
        """
        arr = self.rows_of(() if rows is None else rows)
        segs = self.segments_of_rows(arr) if arr.shape[0] else None
        total = self.table.install_delta(arr, segs)
        self.delta_gen += 1
        return total

    # ----------------------------------------------------------------- sizes

    def full_size(self) -> int:
        return self.table.full_size()

    def delta_size(self) -> int:
        return self.table.delta_size()

    def sizes_by_rank(self, version: str = "full") -> np.ndarray:
        """Rows of one version on each rank."""
        return self._cached(("sizes", version), version, lambda: np.bincount(
            self.rank_of_segment()[self.table.stored(version)[1]],
            minlength=self.n_ranks,
        )).copy()

    # ------------------------------------------------------------- iterators

    def iter_full(self) -> Iterator[TupleT]:
        """All materialized tuples (deterministic shard order)."""
        return map(tuple, self.table.version_block("full").tolist())

    def iter_delta(self) -> Iterator[TupleT]:
        return map(tuple, self.table.version_block("delta").tolist())

    def shard_blocks(
        self, version: str
    ) -> Iterator[Tuple[ShardKey, int, np.ndarray]]:
        """Per-shard row-blocks of one version, as ``((bucket, sub),
        owner rank, rows)``: non-empty shards in (bucket, sub) order, each
        in nested order, as ``(n, arity)`` int64 views."""
        rows, segs = self.table.version(version)
        heads = np.flatnonzero(np.diff(segs, prepend=-1))  # segments are >= 0
        bounds = np.append(heads, segs.shape[0]).tolist()
        n_sub = self.schema.n_subbuckets
        for lo, hi, seg, owner in zip(
            bounds[:-1],
            bounds[1:],
            segs[heads].tolist(),
            self.rank_of_segment()[segs[heads]].tolist(),
        ):
            yield divmod(seg, n_sub), owner, rows[lo:hi]

    def owner_blocks(self, version: str) -> Tuple[np.ndarray, np.ndarray]:
        """One version's rows by owner rank — each rank's shards in
        (bucket, sub) order, each in nested order — and each rank's row
        count: segment ranges, the segments stably sorted by owner; the
        version's block itself, a view, where its segments already lie
        by owner."""
        rows, segs = self.table.version(version)
        owner = self.rank_of_segment()
        bounds = np.searchsorted(segs, np.arange(owner.shape[0] + 1))
        counts = np.diff(bounds)
        held = owner[counts > 0]
        if (held[1:] >= held[:-1]).all():
            return rows, self.sizes_by_rank(version)
        by_owner = np.argsort(owner, kind="stable")
        order = concat_ranges(bounds[:-1][by_owner], counts[by_owner])
        return np.take(rows, order, axis=0), self.sizes_by_rank(version)

    def join_index(self, version: str, match_token=None, match_block=None):
        """The version's :class:`~repro.kernels.join.RankJoinIndex` over
        the rows ``match_block`` keeps (``match_token`` names it)."""
        return self._cached(
            ("index", version, match_token), version,
            lambda: RankJoinIndex.build(self, version, match_block),
        )

    def _cached(self, key: tuple, version: str, build):
        """``build()`` once per state of ``version``: its table and
        placement by identity, and its generation."""
        gen = self.full_gen if version == "full" else self.delta_gen
        state = (self.table, gen, self.dist)
        hit = self._cache.get(key)
        if hit is None or hit[0] != state:
            hit = self._cache[key] = (state, build())
        return hit[1]

    # ---------------------------------------------------------------- resize

    def set_schema(self, new_schema: Schema) -> None:
        """Point the relation at a (possibly resized) schema + placement.

        Used by a resize (:meth:`install_reshard`) and by a load's
        heavy-key freeze: the placement is a pure function of (schema,
        n_ranks, seed, dead set), so swapping the schema re-derives it
        exactly — the degraded-mode overlay, when installed, survives the
        swap.  Segment ids number shards under the sub-bucket count: the
        caller swaps the table too.
        """
        self.schema = new_schema
        self.dist = Distribution(
            new_schema, self.n_ranks, self.dist.seed, self.dist.dead_ranks
        )

    def exclude_ranks(self, dead: Iterable[int]) -> None:
        """Install the degraded-mode overlay: reroute dead ranks' shards.

        Shards physically stay where they are (the simulation holds all
        of them in one process); only the owner function changes, exactly
        as survivors of a real cluster would recompute placement.
        """
        self.dist = self.dist.exclude_ranks(dead)

    def install_reshard(
        self,
        new_schema: Schema,
        runs: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        """Atomically swap in a resized sub-bucket map and its rows.

        ``runs`` are ``(rows, segs, kinds)`` blocks: each row's segment
        under ``new_schema`` and version (kind 0 = full, 1 = Δ), in the
        redistribution exchange's deterministic delivery order; each
        version keeps its rows in that order.  The old table is
        discarded wholesale; both generations bump so every cached join
        index is rebuilt against the new placement.
        """
        if (
            new_schema.name != self.schema.name
            or new_schema.arity != self.schema.arity
        ):
            raise ValueError(
                f"install_reshard: incompatible schema {new_schema.name!r} "
                f"for relation {self.schema.name!r}"
            )
        if not runs:
            none = np.empty(0, dtype=np.int64)
            runs = [(none.reshape(0, new_schema.arity), none, none)]
        rows, segs, kinds = (np.concatenate(cols) for cols in zip(*runs))
        # np.compress: a boolean row mask on a 2-D block is several times slower.
        full, delta = (np.compress(kinds == k, rows, axis=0) for k in (0, 1))
        table = make_shard(new_schema)
        table.install_state(full, delta, segs[kinds == 0], segs[kinds == 1])
        self.set_schema(new_schema)
        self.table = table
        self.full_gen += 1
        self.delta_gen += 1

    def as_set(self) -> set:
        """Materialize the full version as a Python set (tests/inspection)."""
        return set(self.iter_full())

    def __repr__(self) -> str:
        return (
            f"VersionedRelation({self.schema.name!r}, full={self.full_size()}, "
            f"delta={self.delta_size()}, "
            f"shards={np.unique(self.table.stored()[1]).shape[0]})"
        )


class RelationStore:
    """Registry of all relations in one engine instance."""

    def __init__(self, n_ranks: int, *, seed: Optional[HashSeed] = None):
        self.n_ranks = n_ranks
        self.seed = seed or HashSeed()
        self.relations: Dict[str, VersionedRelation] = {}

    def declare(self, schema: Schema) -> VersionedRelation:
        if schema.name in self.relations:
            raise ValueError(f"relation {schema.name!r} already declared")
        # All relations share one HashSeed: the bucket of a join key must be
        # computed identically on both sides of every join, or matching
        # tuples would never colocate.
        rel = VersionedRelation(schema, self.n_ranks, seed=self.seed)
        self.relations[schema.name] = rel
        return rel

    def __getitem__(self, name: str) -> VersionedRelation:
        return self.relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __iter__(self) -> Iterator[VersionedRelation]:
        return iter(self.relations.values())
