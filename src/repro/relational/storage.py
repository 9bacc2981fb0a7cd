"""Cluster-wide relation storage: shards keyed by (bucket, sub-bucket).

A :class:`VersionedRelation` is the global view of one relation's shards
across the simulated cluster.  The simulation owns all shards in one
process, but the engine only ever touches a shard through its owner rank's
phase — data enters a shard either at load time or out of a collective's
receive buffer, mirroring the physical constraint of the real system.

Shards are created lazily (most of a 16,384-rank cluster's shard space is
empty for any real relation), and per-rank size queries iterate non-empty
shards only, keeping very-high-rank simulations tractable.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.kernels.absorb import AbsorbStats, _ColumnarShardBase, make_shard
from repro.kernels.block import group_columns
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
        self.shards: Dict[ShardKey, _ColumnarShardBase] = {}
        #: Version generations for join-index caching: ``full_gen`` bumps
        #: whenever any shard's full version changes, ``delta_gen`` whenever
        #: Δ is replaced.  An index built at generation g stays valid while
        #: the generation holds.
        self.full_gen = 0
        self.delta_gen = 0

    # ---------------------------------------------------------------- shards

    def shard(
        self, bucket: int, sub: int, *, create: bool = True
    ) -> Optional[_ColumnarShardBase]:
        key = (bucket, sub)
        s = self.shards.get(key)
        if s is None and create:
            s = make_shard(self.schema)
            self.shards[key] = s
        return s

    def owner_of(self, key: ShardKey) -> int:
        return int(self.dist.owner_table[key])

    def owned_shards(self) -> Tuple[List[ShardKey], np.ndarray]:
        """Every shard key in (bucket, sub) order, and each one's owner."""
        keys = sorted(self.shards)
        if not keys:
            return keys, np.zeros(0, dtype=np.int64)
        buckets, subs = np.asarray(keys, dtype=np.int64).T
        return keys, self.dist.owner_table[buckets, subs]

    # ----------------------------------------------------------------- load

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
        if isinstance(tuples, np.ndarray):
            arr = np.ascontiguousarray(tuples, dtype=np.int64)
        else:
            rows = list(tuples)
            if not rows:
                return 0
            arr = np.asarray(rows, dtype=np.int64)
        if arr.size == 0:
            return 0
        if arr.ndim != 2 or arr.shape[1] != self.schema.arity:
            raise ValueError(
                f"{self.schema.name}: expected rows of arity "
                f"{self.schema.arity}, got array shape {arr.shape}"
            )
        admitted = 0
        for b, s, block in self._blocks_by_shard(arr):
            admitted += self.shard(b, s).absorb_block(block, stats)
        if admitted:
            self.full_gen += 1
        return admitted

    def _blocks_by_shard(self, arr: np.ndarray) -> Iterator[Tuple[int, int, np.ndarray]]:
        """``(bucket, sub, rows)`` per home shard of ``arr``: shards in
        (bucket, sub) order, each block's rows in arrival order."""
        b_arr, s_arr = self.dist.bucket_sub_of_rows(arr)
        order, starts, counts = group_columns([b_arr, s_arr])
        heads = order[starts]
        for s0, c, b, s in zip(
            starts.tolist(),
            counts.tolist(),
            b_arr[heads].tolist(),
            s_arr[heads].tolist(),
        ):
            yield b, s, arr[order[s0 : s0 + c]]

    def absorb_block(
        self,
        bucket: int,
        sub: int,
        rows: np.ndarray,
        stats: Optional[AbsorbStats] = None,
    ) -> int:
        """Absorb a routed row-block into one shard (dedup phase)."""
        admitted = self.shard(bucket, sub).absorb_block(rows, stats)
        if admitted:
            self.full_gen += 1
        return admitted

    # ------------------------------------------------------------ iteration

    def advance(self) -> int:
        """Promote freshly absorbed tuples to Δ on every shard; return |Δ|."""
        total = 0
        for shard in self.shards.values():
            total += shard.advance()
        self.delta_gen += 1
        return total

    def install_delta(self, rows: Optional[np.ndarray] = None) -> int:
        """Replace every shard's Δ with the given change-set rows.

        The incremental-maintenance seeding primitive: rows are routed
        through the normal bucket/sub-bucket placement to their home
        shards; shards that receive nothing get an empty Δ (``rows=None``
        clears Δ everywhere).  Rows must already exist in the full version
        — this installs a *view* of what changed, it never inserts.
        Bumps ``delta_gen`` so cached Δ join indexes rebuild.
        """
        empty = np.empty((0, self.schema.arity), dtype=np.int64)
        for shard in self.shards.values():
            shard.install_delta(empty)
        total = 0
        if rows is not None:
            arr = np.ascontiguousarray(rows, dtype=np.int64)
            if arr.size:
                if arr.ndim != 2 or arr.shape[1] != self.schema.arity:
                    raise ValueError(
                        f"{self.schema.name}: expected rows of arity "
                        f"{self.schema.arity}, got array shape {arr.shape}"
                    )
                for b, s, block in self._blocks_by_shard(arr):
                    total += self.shard(b, s).install_delta(block)
        self.delta_gen += 1
        return total

    # ----------------------------------------------------------------- sizes

    def full_size(self) -> int:
        return sum(s.full_size() for s in self.shards.values())

    def delta_size(self) -> int:
        return sum(s.delta_size() for s in self.shards.values())

    def full_sizes_by_rank(self) -> np.ndarray:
        return self._sizes_by_rank("full")

    def delta_sizes_by_rank(self) -> np.ndarray:
        return self._sizes_by_rank("delta")

    def _sizes_by_rank(self, version: str) -> np.ndarray:
        keys, owners = self.owned_shards()
        size = "full_size" if version == "full" else "delta_size"
        out = np.zeros(self.n_ranks, dtype=np.int64)
        np.add.at(out, owners, [getattr(self.shards[key], size)() for key in keys])
        return out

    # ------------------------------------------------------------- iterators

    def iter_full(self) -> Iterator[TupleT]:
        """All materialized tuples (deterministic shard order)."""
        for _owner, block in self.version_blocks("full"):
            yield from map(tuple, block.tolist())

    def iter_delta(self) -> Iterator[TupleT]:
        for _owner, block in self.version_blocks("delta"):
            yield from map(tuple, block.tolist())

    def version_blocks(self, version: str) -> Iterator[Tuple[int, np.ndarray]]:
        """Per-shard row-blocks of one version, tagged with owner rank:
        shards in (bucket, sub) order, each in nested order, as
        ``(n, arity)`` int64 arrays."""
        if version not in ("full", "delta"):
            raise ValueError(f"unknown version {version!r}")
        keys, owners = self.owned_shards()
        for key, owner in zip(keys, owners.tolist()):
            block = self.shards[key].version_block(version)
            if block.shape[0]:
                yield owner, block

    # ------------------------------------------------------------- rebalance

    def set_schema(self, new_schema: Schema) -> None:
        """Point the relation at a (possibly resized) schema + placement.

        Used by the online rebalancer and by checkpoint restore: the
        placement is a pure function of (schema, n_ranks, seed, dead set),
        so swapping the schema re-derives it exactly — the degraded-mode
        overlay, when installed, survives the swap.
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
        shard_states: Dict[ShardKey, Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        """Atomically swap in a resized sub-bucket map and its shards.

        ``shard_states`` maps each new (bucket, sub-bucket) to its
        (full, Δ) row-blocks in the redistribution exchange's
        deterministic delivery order.  The old shard map is discarded
        wholesale; both generations bump so every cached join index is
        rebuilt against the new placement.
        """
        if (
            new_schema.name != self.schema.name
            or new_schema.arity != self.schema.arity
        ):
            raise ValueError(
                f"install_reshard: incompatible schema {new_schema.name!r} "
                f"for relation {self.schema.name!r}"
            )
        new_shards: Dict[ShardKey, _ColumnarShardBase] = {}
        for key in sorted(shard_states):
            full_rows, delta_rows = shard_states[key]
            shard = make_shard(new_schema)
            shard.install_state(full_rows, delta_rows)
            new_shards[key] = shard
        self.set_schema(new_schema)
        self.shards = new_shards
        self.full_gen += 1
        self.delta_gen += 1

    def as_set(self) -> set:
        """Materialize the full version as a Python set (tests/inspection)."""
        return set(self.iter_full())

    def __repr__(self) -> str:
        return (
            f"VersionedRelation({self.schema.name!r}, full={self.full_size()}, "
            f"delta={self.delta_size()}, shards={len(self.shards)})"
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
