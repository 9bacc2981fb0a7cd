"""Batch join kernel: per-rank (bucket, jk) → row-range index.

The scalar join probes each received tuple against per-bucket shard
dicts.  The columnar kernel builds, per (relation, version, rank), one
contiguous index over *all* shards the rank owns:

* rows are concatenated shard-by-shard (sorted shard-key order, each
  shard in its nested iteration order — exactly the sequence the scalar
  probe would walk), then stably grouped by (bucket, join-key values);
* each distinct (bucket, jk) becomes one ``[start, start+count)`` row
  range, addressed through an exact :class:`~repro.kernels.block.KeyIndex`
  over the (bucket, jk) values;
* probing looks every received row up at once and returns per-probe
  ranges whose concatenation reproduces the scalar emission order
  tuple-for-tuple.

The engine caches indexes keyed by the relation's version generation,
so static relations (EDB inners) build once per run.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.kernels.block import KeyIndex, lex_group


class RankJoinIndex:
    """All inner rows one rank holds, grouped by (bucket, join key)."""

    __slots__ = ("rows", "_keys", "_key_starts", "_key_counts")

    def __init__(
        self,
        rows: np.ndarray,
        keys: KeyIndex,
        key_starts: np.ndarray,
        key_counts: np.ndarray,
    ):
        self.rows = rows
        self._keys = keys
        # One trailing empty range: a miss (slot -1) reads (0, 0).
        self._key_starts = np.append(key_starts, 0)
        self._key_counts = np.append(key_counts, 0)

    # -------------------------------------------------------------- building

    @classmethod
    def build(cls, rel, version: str, rank: int, match_block=None) -> "RankJoinIndex":
        """Index every shard of ``rel`` owned by ``rank`` for one version.

        ``match_block``, if given, pre-filters inner rows (the scalar path
        applies the same predicate per probe hit — same surviving rows).
        """
        jk_cols = tuple(rel.schema.join_cols)
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
            blocks.append(np.empty((0, rel.schema.arity), dtype=np.int64))
            buckets.append(np.empty(0, dtype=np.int64))
        rows = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
        bucket_arr = buckets[0] if len(buckets) == 1 else np.concatenate(buckets)
        # Stable grouping by (bucket, jk values): within one key the rows
        # keep (shard order, nested order) — the scalar probe walk.
        keymat = np.column_stack([bucket_arr] + [rows[:, c] for c in jk_cols])
        order, starts, counts = lex_group(keymat)
        return cls(rows[order], KeyIndex(keymat[order[starts]]), starts, counts)

    # --------------------------------------------------------------- probing

    def probe(
        self, rows: np.ndarray, buckets: np.ndarray, probe_cols: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Match every probe row at once; returns per-row (start, count).

        ``probe_cols`` address the probe rows' columns holding the join
        key values in the index's key order.
        """
        slot = self._keys.find(
            np.column_stack([buckets] + [rows[:, c] for c in probe_cols])
        )
        return self._key_starts[slot], self._key_counts[slot]
