"""Batch join kernel: one (owner rank, join key) → row-range index per
relation version.

:class:`RankJoinIndex` groups every row of a version by the rank owning
its shard, then its join-key values, then its segment, in one stable
:func:`~repro.kernels.block.group_columns` straight over the store's rows.
Inside one (owner, key) group the rows come out in (segment, arrival)
order — the rank's (shard, nested) order restricted to that key — so no
nested sort and no per-rank gather runs.  Each (owner, key) is one row
range behind an exact :class:`~repro.kernels.block.KeyIndex`, and one
probe looks up every row a run of ranks received, keyed by its receiver:
the ranges, laid end to end, are the emission order (probes in arrival
order, each probe's matches in (shard, nested) order).

A row's bucket is a hash of its join-key values, so the key alone names
the probe's bucket.  The relation owns and caches its indexes
(:meth:`~repro.relational.storage.VersionedRelation.join_index`), one per
state of the version, so static relations (EDB inners) build once per run.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.kernels.block import KeyIndex, group_columns


class RankJoinIndex:
    """Every row of one relation version, grouped by (owner rank, join key)."""

    __slots__ = ("rows", "_keys", "_key_starts", "_key_counts")

    @classmethod
    def build(cls, rel, version: str, match_block=None) -> "RankJoinIndex":
        """Index the rows of ``rel``'s ``version`` that ``match_block``
        (the atom's constant and repeated-variable checks) keeps."""
        rows, segs = rel.table.stored(version)
        if match_block is not None and rows.shape[0]:
            keep = match_block.mask(rows)
            rows, segs = np.compress(keep, rows, axis=0), segs[keep]
        owner = rel.rank_of_segment()[segs]
        jk = [rows[:, c] for c in rel.schema.join_cols]
        order, starts, _counts = group_columns([owner, *jk, segs])
        heads = order[starts]
        key_cols = [owner[heads], *(col[heads] for col in jk)]
        # An (owner, key) group opens at its first segment's group.
        new_key = np.zeros(heads.shape[0], dtype=bool)
        new_key[:1] = True
        for col in key_cols:
            new_key[1:] |= col[1:] != col[:-1]
        key_starts = starts[new_key]
        index = cls.__new__(cls)
        index.rows = np.take(rows, order, axis=0)
        index._keys = KeyIndex([col[new_key] for col in key_cols])
        # One trailing empty range: a miss (slot -1) reads (0, 0).
        index._key_starts = np.append(key_starts, 0)
        index._key_counts = np.append(np.diff(key_starts, append=rows.shape[0]), 0)
        return index

    def probe(
        self, ranks: np.ndarray, rows: np.ndarray, probe_cols: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per probe row ``i``, the (start, count) of its matches: the rows
        of rank ``ranks[i]`` whose key is row ``i``'s ``probe_cols``."""
        slot = self._keys.find(
            [ranks, *(rows[:, c] for c in probe_cols)], sort=True
        )
        return self._key_starts[slot], self._key_counts[slot]
