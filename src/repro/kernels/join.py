"""Batch hash-join kernel: per-rank (bucket, jk) → row-range index.

The scalar join probes each received tuple against per-bucket shard
dicts.  The columnar kernel builds, per (relation, version, rank), one
contiguous index over *all* shards the rank owns:

* rows are concatenated shard-by-shard (sorted shard-key order, each
  shard in its nested iteration order — exactly the sequence the scalar
  probe would walk), then stably grouped by (bucket, join-key values);
* each distinct (bucket, jk) becomes one ``[start, start+count)`` row
  range, addressed through a sorted 64-bit hash table;
* probing hashes every received row at once, verifies candidates
  against the stored key columns (hash collisions resolve exactly via a
  per-run fallback), and returns per-probe ranges whose concatenation
  reproduces the scalar emission order tuple-for-tuple.

The engine caches indexes keyed by the relation's version generation,
so static relations (EDB inners) build once per run.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.kernels.block import lex_group
from repro.util.hashing import hash_columns, splitmix64_array

#: Fixed salt for join-key hashing (index build and probe must agree).
_JOIN_SEED = 0x10E1_CAFE


def _keyed_hash(rows: np.ndarray, cols: Sequence[int], buckets: np.ndarray) -> np.ndarray:
    """Hash (bucket, key-column values) — one word per row."""
    h = hash_columns(rows, cols, _JOIN_SEED)
    return splitmix64_array(h ^ buckets.astype(np.uint64))


class RankJoinIndex:
    """All inner rows one rank holds, grouped by (bucket, join key)."""

    __slots__ = (
        "rows",
        "_key_hash",
        "_key_starts",
        "_key_counts",
        "_key_vals",
        "_key_buckets",
        "_fallback",
        "_jk_cols",
    )

    def __init__(
        self,
        rows: np.ndarray,
        key_hash: np.ndarray,
        key_starts: np.ndarray,
        key_counts: np.ndarray,
        key_vals: np.ndarray,
        key_buckets: np.ndarray,
        fallback: Optional[Dict[Tuple[int, ...], int]],
        jk_cols: Tuple[int, ...],
    ):
        self.rows = rows
        self._key_hash = key_hash
        self._key_starts = key_starts
        self._key_counts = key_counts
        self._key_vals = key_vals
        self._key_buckets = key_buckets
        self._fallback = fallback
        self._jk_cols = jk_cols

    # -------------------------------------------------------------- building

    @classmethod
    def build(cls, rel, version: str, rank: int, match_block=None) -> "RankJoinIndex":
        """Index every shard of ``rel`` owned by ``rank`` for one version.

        ``match_block``, if given, pre-filters inner rows (the scalar path
        applies the same predicate per probe hit — same surviving rows).
        """
        jk_cols = tuple(rel.schema.join_cols)
        arity = rel.schema.arity
        blocks = []
        buckets = []
        for key in sorted(rel.shards):
            if rel.owner_of(key) != rank:
                continue
            block = rel.shards[key].version_block(version)
            if match_block is not None and block.shape[0]:
                block = block[match_block.mask(block)]
            if block.shape[0]:
                blocks.append(block)
                buckets.append(np.full(block.shape[0], key[0], dtype=np.int64))
        if not blocks:
            empty = np.empty((0, arity), dtype=np.int64)
            return cls(
                empty,
                np.empty(0, dtype=np.uint64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty((0, len(jk_cols)), dtype=np.int64),
                np.empty(0, dtype=np.int64),
                None,
                jk_cols,
            )
        rows = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
        bucket_arr = buckets[0] if len(buckets) == 1 else np.concatenate(buckets)
        # Stable grouping by (bucket, jk values): within one key the rows
        # keep (shard order, nested order) — the scalar probe walk.
        keymat = np.column_stack([bucket_arr] + [rows[:, c] for c in jk_cols])
        order, starts, counts = lex_group(keymat)
        rows = rows[order]
        key_rows = rows[starts]
        key_buckets = bucket_arr[order[starts]]
        key_vals = (
            key_rows[:, list(jk_cols)]
            if jk_cols
            else np.empty((starts.shape[0], 0), dtype=np.int64)
        )
        key_hash = _keyed_hash(key_rows, jk_cols, key_buckets)
        # Full 64-bit hashes: no bits left for group_columns' value sort.
        horder = np.argsort(key_hash, kind="stable")
        key_hash = key_hash[horder]
        key_starts = starts[horder]
        key_counts = counts[horder]
        key_vals = key_vals[horder]
        key_buckets = key_buckets[horder]
        fallback: Optional[Dict[Tuple[int, ...], int]] = None
        if key_hash.shape[0] > 1 and (key_hash[1:] == key_hash[:-1]).any():
            # Distinct keys sharing a hash: exact side table for those runs.
            dup = np.zeros(key_hash.shape[0], dtype=bool)
            eq = key_hash[1:] == key_hash[:-1]
            dup[1:] |= eq
            dup[:-1] |= eq
            fallback = {}
            for slot in np.nonzero(dup)[0]:
                k = (int(key_buckets[slot]),) + tuple(int(v) for v in key_vals[slot])
                fallback[k] = int(slot)
        return cls(
            rows, key_hash, key_starts, key_counts, key_vals, key_buckets,
            fallback, jk_cols,
        )

    # --------------------------------------------------------------- probing

    def probe(
        self, rows: np.ndarray, buckets: np.ndarray, probe_cols: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Match every probe row at once; returns per-row (start, count).

        ``probe_cols`` address the probe rows' columns holding the join
        key values in the index's key order.
        """
        m = rows.shape[0]
        starts = np.zeros(m, dtype=np.int64)
        counts = np.zeros(m, dtype=np.int64)
        if m == 0 or self._key_hash.shape[0] == 0:
            return starts, counts
        qh = _keyed_hash(rows, probe_cols, buckets)
        lo = np.searchsorted(self._key_hash, qh, side="left")
        hi = np.searchsorted(self._key_hash, qh, side="right")
        run = hi - lo
        one = run == 1
        if one.any():
            slot = lo[one]
            ok = self._key_buckets[slot] == buckets[one]
            if self._jk_cols:
                ok &= (
                    self._key_vals[slot] == rows[one][:, list(probe_cols)]
                ).all(axis=1)
            sel = np.nonzero(one)[0][ok]
            hit = slot[ok]
            starts[sel] = self._key_starts[hit]
            counts[sel] = self._key_counts[hit]
        multi = run > 1
        if multi.any() and self._fallback is not None:
            pcols = list(probe_cols)
            for i in np.nonzero(multi)[0]:
                k = (int(buckets[i]),) + tuple(int(rows[i, c]) for c in pcols)
                slot = self._fallback.get(k)
                if slot is not None:
                    starts[i] = self._key_starts[slot]
                    counts[i] = self._key_counts[slot]
        return starts, counts
