"""Batch join kernel: per-rank join key → row-range index.

The kernel builds, per (relation, version, rank), one contiguous index
over *all* shards the rank owns:

* the rank's rows (:meth:`~repro.relational.storage.VersionedRelation.rank_block`:
  shards in (bucket, sub) order, each in its nested order) are stably
  grouped by join-key values;
* each distinct join key becomes one ``[start, start+count)`` row range,
  addressed through an exact :class:`~repro.kernels.block.KeyIndex`
  over the join-key values;
* probing looks every received row up at once and returns per-probe
  ranges whose concatenation is the emission order: probes in arrival
  order, each probe's matches in (shard, nested) order.

A row's bucket is a hash of its join-key values, so the key alone
already names the probe's bucket: every inner row with the probe's key
lives in the probe's bucket, and the index neither stores buckets nor
needs them from the probe side.

The engine caches indexes keyed by the relation's version generation,
so static relations (EDB inners) build once per run.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.kernels.block import KeyIndex, lex_group


class RankJoinIndex:
    """All inner rows one rank holds, grouped by join key."""

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

        ``match_block``, if given, pre-filters inner rows (the atom's
        constant and repeated-variable checks).
        """
        jk_cols = list(rel.schema.join_cols)
        rows = rel.rank_block(version, rank)
        if match_block is not None and rows.shape[0]:
            rows = rows[match_block.mask(rows)]
        # Stable grouping by jk values: within one key the rows keep
        # (shard order, nested order).
        keymat = rows[:, jk_cols]
        order, starts, counts = lex_group(keymat)
        return cls(rows[order], KeyIndex(keymat[order[starts]]), starts, counts)

    # --------------------------------------------------------------- probing

    def probe(
        self, rows: np.ndarray, probe_cols: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Match every probe row at once; returns per-row (start, count).

        ``probe_cols`` address the probe rows' columns holding the join
        key values in the index's key order.
        """
        slot = self._keys.find(rows[:, list(probe_cols)])
        return self._key_starts[slot], self._key_counts[slot]
