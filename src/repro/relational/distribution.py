"""The double-hash bucket / sub-bucket tuple placement (paper §II-D, §IV-C).

BPRA assigns each tuple a **bucket** by hashing its join columns and a
**sub-bucket** by hashing its non-join independent columns.  We follow the
paper's deployment shape: one bucket per rank (bucket ``b`` is "homed" on
rank ``b``), with a relation's ``n_subbuckets`` sub-buckets fanned out to
deterministic pseudo-random ranks (sub-bucket 0 stays home).  This realizes
§IV-C's spatial load balancing: a skewed join key — a celebrity vertex with
millions of followers — has one bucket but spreads across ``n_subbuckets``
ranks.

Only a *heavy* key needs spreading.  A schema that carries a heavy-key
set (``Schema.heavy_keys``, :func:`heavy_keys`, after *Skew in Parallel
Query Processing*) places every row of any other, *light*, key in
sub-bucket 0 of its bucket, the home cell on the bucket's own rank, so a
joining tuple placed by the same key is already there
(:meth:`Distribution.heavy_rows`).  Without a set every key is heavy:
the paper's placement.

Correctness invariant: a tuple's rank is a pure function of its independent
columns (the join columns are among them), so all members of one
aggregation group colocate, which is exactly what makes fused local
aggregation communication-free (§III-A).
"""

from __future__ import annotations

from functools import cached_property
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.block import KeyIndex, group_columns
from repro.relational.schema import Schema
from repro.util.hashing import (
    HashSeed,
    hash_columns,
    hash_tuple,
    splitmix64,
    splitmix64_array,
)


class Distribution:
    """Placement function for one relation on a cluster of ``n_ranks``.

    ``dead_ranks`` installs the *degraded-mode overlay*: shards whose
    nominal owner is permanently lost are deterministically rerouted to a
    surviving rank.  The reroute is a pure hash of ``(bucket, sub)``, so
    every rank computes the same degraded placement without coordination,
    and the dead rank's shards spread across all survivors rather than
    piling onto one buddy.  Aggregation stays correct because placement
    is still a pure function of the independent columns (all members of
    one group reroute together), and lattice aggregation is
    placement-invariant — the degraded fixpoint provably matches the
    fault-free one.
    """

    def __init__(
        self,
        schema: Schema,
        n_ranks: int,
        seed: HashSeed | None = None,
        dead_ranks: Iterable[int] = (),
    ):
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        self.schema = schema
        self.n_ranks = n_ranks
        self.seed = seed or HashSeed()
        # Sub-bucket fan-out: offset of sub-bucket s of bucket b from b's
        # home rank.  Derived (not stored) so any rank can compute any
        # placement; offset 0 for s=0 keeps the unbalanced path identical to
        # plain BPRA.
        self._sub_salt = splitmix64(self.seed.subbucket ^ 0x5B5B_5B5B)
        self.dead_ranks: FrozenSet[int] = frozenset(dead_ranks)
        if self.dead_ranks:
            bad = [r for r in self.dead_ranks if not 0 <= r < n_ranks]
            if bad:
                raise ValueError(
                    f"dead_ranks {sorted(bad)} out of range for {n_ranks} ranks"
                )
            live = sorted(set(range(n_ranks)) - self.dead_ranks)
            if not live:
                raise ValueError("all ranks dead — no survivor to re-own shards")
            self._live = np.asarray(live, dtype=np.int64)
            self._dead_arr = np.asarray(sorted(self.dead_ranks), dtype=np.int64)
            self._reroute_salt = splitmix64(self.seed.bucket ^ 0xDEAD_0A11)
        else:
            self._live = None
            self._dead_arr = None
            self._reroute_salt = 0

    def with_subbuckets(self, n_subbuckets: int) -> "Distribution":
        """A new placement for the same relation at a different fan-out.

        Buckets are untouched (join columns and seed are unchanged), so a
        resize only moves tuples *within* their bucket's rank set — the
        invariant behind the intra-bucket redistribution exchange.  The
        heavy-key set and the degraded overlay, when installed, carry
        over.
        """
        import dataclasses

        schema = dataclasses.replace(self.schema, n_subbuckets=n_subbuckets)
        return Distribution(schema, self.n_ranks, self.seed, self.dead_ranks)

    def exclude_ranks(self, dead: Iterable[int]) -> "Distribution":
        """The same placement with ``dead`` added to the degraded overlay."""
        return Distribution(
            self.schema, self.n_ranks, self.seed, self.dead_ranks | set(dead)
        )

    # ------------------------------------------------------ degraded overlay

    def _reroute(self, bucket: int, sub: int, nominal: int) -> int:
        """Scalar overlay: reroute a dead nominal owner to a survivor."""
        if self._live is None or nominal not in self.dead_ranks:
            return nominal
        idx = splitmix64(
            self._reroute_salt ^ (bucket * 0x1_0000 + sub)
        ) % len(self._live)
        return int(self._live[idx])

    # ------------------------------------------------------------ scalar path

    def bucket_of_key(self, jk: Tuple[int, ...]) -> int:
        """Bucket (home rank) of a join-key value vector."""
        return hash_tuple(jk, self.seed.bucket) % self.n_ranks

    def bucket_of(self, t: Tuple[int, ...]) -> int:
        return self.bucket_of_key(self.schema.key_of(t))

    def sub_of(self, t: Tuple[int, ...]) -> int:
        """Sub-bucket index of a tuple (0 when sub-bucketing is off)."""
        if self.schema.n_subbuckets == 1:
            return 0
        heavy = self.schema.heavy_keys
        if heavy is not None and self.schema.key_of(t) not in heavy:
            return 0
        other = self.schema.other_of(t)
        if not other:
            return 0
        return hash_tuple(other, self.seed.subbucket) % self.schema.n_subbuckets

    def owner(self, bucket: int, sub: int) -> int:
        """Rank hosting sub-bucket ``sub`` of ``bucket``."""
        if sub == 0:
            return self._reroute(bucket, 0, bucket)
        offset = splitmix64(self._sub_salt ^ (bucket * 0x1_0000 + sub)) % self.n_ranks
        return self._reroute(bucket, sub, (bucket + offset) % self.n_ranks)

    def rank_of(self, t: Tuple[int, ...]) -> int:
        return self.owner(self.bucket_of(t), self.sub_of(t))

    # -------------------------------------------------------- vectorized path

    def bucket_sub_of_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized (bucket, sub-bucket) of every row of an ``(n, arity)`` array."""
        if rows.shape[0] == 0:
            z = np.zeros(0, dtype=np.int64)
            return z, z
        schema = self.schema
        buckets = self.buckets_of_key_rows(rows, schema.join_cols)
        if schema.n_subbuckets == 1:
            return buckets, np.zeros_like(buckets)
        is_heavy = self.heavy_rows(rows, schema.join_cols)
        if is_heavy is None:
            return buckets, self._other_subs(rows)
        subs = np.zeros_like(buckets)
        heavy = np.flatnonzero(is_heavy)
        if heavy.shape[0]:
            subs[heavy] = self._other_subs(np.take(rows, heavy, axis=0))
        return buckets, subs

    def _other_subs(self, rows: np.ndarray) -> np.ndarray:
        """§IV-C's sub-bucket of every row: a hash of its non-join
        independent columns (0 without any)."""
        if not self.schema.other_cols:
            return np.zeros(rows.shape[0], dtype=np.int64)
        return (
            hash_columns(rows, self.schema.other_cols, self.seed.subbucket)
            % np.uint64(self.schema.n_subbuckets)
        ).astype(np.int64)

    def heavy_rows(self, rows: np.ndarray, key_cols: Sequence[int]) -> Optional[np.ndarray]:
        """Whether each row's join key is heavy; None when every key is.

        ``key_cols`` are the key's positions in ``rows``, in this
        relation's join-column order (as :meth:`buckets_of_key_rows`'), so
        a joining tuple learns whether its key's rows spread over the
        bucket's sub-buckets or all sit in its home cell, sub-bucket 0.
        """
        heavy = self.schema.heavy_keys
        if heavy is None:
            return None
        if not heavy:
            return np.zeros(rows.shape[0], dtype=bool)
        keys = np.asarray(heavy, dtype=np.int64).reshape(len(heavy), len(key_cols))
        if len(key_cols) == 1:
            # One key column: np.isin's lookup table, several times faster.
            return np.isin(rows[:, key_cols[0]], keys[:, 0])
        return KeyIndex(keys).find(rows[:, list(key_cols)]) >= 0

    def rank_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rank_of` over an ``(n, arity)`` array."""
        return self.ranks_of_bucket_subs(*self.bucket_sub_of_rows(rows))

    def ranks_of_bucket_subs(self, buckets: np.ndarray, subs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner` over parallel (bucket, sub) arrays."""
        return self.owner_table[buckets, subs]

    @cached_property
    def owner_table(self) -> np.ndarray:
        """``(n_ranks, n_subbuckets)`` int64 table: cell ``[b, s]`` is
        :meth:`owner` ``(b, s)``, the degraded overlay applied.

        Buckets are ``hash % n_ranks`` and a placement never changes (every
        resize or overlay is a new ``Distribution``), so one table, built
        on first use, answers every owner lookup by indexing.
        """
        n_sub = self.schema.n_subbuckets
        buckets = np.repeat(np.arange(self.n_ranks, dtype=np.int64), n_sub)
        subs = np.tile(np.arange(n_sub, dtype=np.int64), self.n_ranks)
        key = (buckets.astype(np.uint64) * np.uint64(0x1_0000)) + subs.astype(np.uint64)
        offsets = (
            splitmix64_array(np.uint64(self._sub_salt) ^ key) % np.uint64(self.n_ranks)
        ).astype(np.int64)
        owners = np.where(subs == 0, buckets, (buckets + offsets) % self.n_ranks)
        if self._live is not None:
            dead = np.isin(owners, self._dead_arr)
            idx = (
                splitmix64_array(np.uint64(self._reroute_salt) ^ key)
                % np.uint64(len(self._live))
            ).astype(np.int64)
            owners[dead] = self._live[idx[dead]]
        owners.setflags(write=False)
        return owners.reshape(self.n_ranks, n_sub)

    @cached_property
    def distinct_owners(self) -> np.ndarray:
        """``(n_ranks, n_subbuckets)`` bool mask: ``[b, s]`` is set when
        sub-bucket ``s``'s owner differs from every lower sub-bucket's of
        bucket ``b`` — the destinations intra-bucket replication sends a
        tuple of bucket ``b`` to, each once."""
        table = self.owner_table
        keep = np.ones(table.shape, dtype=bool)
        for s in range(1, table.shape[1]):
            keep[:, s] = (table[:, s, None] != table[:, :s]).all(axis=1)
        keep.setflags(write=False)
        return keep

    def buckets_of_key_rows(self, rows: np.ndarray, key_cols: Sequence[int]) -> np.ndarray:
        """Vectorized bucket of the key values at ``key_cols`` of each row.

        Used by the join's send side: ``key_cols`` are the probe-key
        positions *in the outer relation's tuples*, ordered to match this
        (inner) relation's join-column order, so the resulting hash equals
        the bucket the inner tuples were placed by.
        """
        if rows.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        return (
            hash_columns(rows, key_cols, self.seed.bucket) % np.uint64(self.n_ranks)
        ).astype(np.int64)


def heavy_keys(
    rows: np.ndarray, key_cols: Sequence[int], n_cells: int
) -> Tuple[Tuple[int, ...], ...]:
    """The keys (values at ``key_cols``) held by more than m / ``n_cells``
    of the m ``rows`` — more than an average cell's share — sorted: fewer
    than ``n_cells`` of them."""
    m = rows.shape[0]
    if not m:
        return ()
    keys = rows[:, list(key_cols)]
    if keys.shape[1] == 1 and keys.min() >= 0 and keys.max() < 4 * m:
        # One column of small non-negative ids (vertices): count by value,
        # several times faster than grouping.
        heavy = np.flatnonzero(np.bincount(keys[:, 0]) * n_cells > m)
        return tuple((key,) for key in heavy.tolist())
    order, starts, counts = group_columns(
        [keys[:, c] for c in range(keys.shape[1])] or [np.zeros(m, np.int64)]
    )
    return tuple(map(tuple, keys[order[starts[counts * n_cells > m]]].tolist()))
