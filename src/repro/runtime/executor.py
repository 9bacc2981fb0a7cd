"""The data plane behind the engine's one pipeline.

:class:`~repro.runtime.engine.Engine` writes Fig. 1's pipeline once: the
vote, the outer/inner orientation, every ledger charge and counter, the
exchanges and the monotonicity audit.  How tuples are *held* while they
cross it — int64 row blocks, moved by the :mod:`repro.kernels` calls —
is :class:`ColumnarExecutor`'s business.

The executor owns four steps (absorption is the head relation's own,
:meth:`~repro.relational.storage.VersionedRelation.absorb`).
``emitted`` maps a rank to the head tuples it produced, ``per_rank_*``
are int64 work tallies the engine turns into compute charges, and
``outer_pos`` (0 = left, 1 = right) is the body atom the vote chose to
transmit:

* ``scan_emit`` — copy rules: scan one relation version, match, emit;
* ``intra_sends`` — scan and match the outer side and replicate it to
  every sub-bucket owner of the matching inner bucket;
* ``local_join`` — probe each rank's inner shards with the rows it
  received (a range of the exchange's row block where they lie
  consecutively, else one gather);
  where the engine hands in the head's sender fold, a large probe's
  pairs are folded as they are emitted instead of kept;
* ``route_sends`` — group emitted tuples into ``(bucket, sub, batch)``
  boxes per home rank, after the wire layer's sender fold where the
  engine hands one in.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.kernels.absorb import combine_block
from repro.kernels.block import concat_ranges
from repro.kernels.join import RankJoinIndex
from repro.kernels.route import Emitted, build_intra_sends, build_route_sends

#: Join pairs one rank's probe materializes at once when the head has a
#: sender fold.  A probe with more pairs emits and folds them in runs of
#: this many, so the unfolded block — 9.3M rows on the 4-rank dense
#: workload, 6x what the fold keeps — is never allocated.  The value is
#: for memory: see the budget sweep in EXPERIMENTS.md.
_PAIR_BUDGET = 1 << 18


def _emit_pairs(cr, outer_pos, probe, inner_rows, lo, starts, counts):
    """Head rows of the join pairs of probe rows ``lo, lo + 1, …``, row
    ``lo + i`` paired with inner rows ``[starts[i], starts[i] + counts[i])``."""
    outer = probe[
        np.repeat(np.arange(lo, lo + counts.shape[0], dtype=np.int64), counts)
    ]
    inner = inner_rows[concat_ranges(starts, counts)]
    if outer_pos == 0:
        return cr.emit_spec.eval_block(outer, inner)
    return cr.emit_spec.eval_block(inner, outer)


def _pair_chunks(starts, counts, budget):
    """Cut a probe's join pairs, in emission order, into runs of ``budget``.

    Yields ``(lo, starts, counts)`` per run for :func:`_emit_pairs`: the
    run's first probe row and the inner range of each probe row from
    there, the first and last trimmed to the run — so a probe row with
    more than ``budget`` matches spans several runs.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1])
    for p0 in range(0, total, budget):
        p1 = min(p0 + budget, total)
        # Probe rows holding the run's first and last pair.
        lo, last = np.searchsorted(ends, [p0, p1 - 1], side="right").tolist()
        run_starts = starts[lo : last + 1].copy()
        run_counts = counts[lo : last + 1].copy()
        skip = p0 - int(ends[lo] - counts[lo])
        run_starts[0] += skip
        run_counts[0] -= skip
        run_counts[-1] -= int(ends[last]) - p1
        yield lo, run_starts, run_counts


class ColumnarExecutor:
    """Row-block data plane: the :mod:`repro.kernels` batch kernels."""

    def __init__(self) -> None:
        #: (relation, version, rank, match token) → (generation, index).
        self._index_cache: Dict[Tuple, Tuple[int, RankJoinIndex]] = {}

    def invalidate(self) -> None:
        """Drop cached join indexes (placement changed under them)."""
        self._index_cache.clear()

    def scan_emit(self, cr, rel, version, per_rank_scan):
        match_block = cr.matches_block[0]
        emitted: Dict[int, np.ndarray] = {}
        for owner in range(rel.n_ranks):
            block = rel.rank_block(version, owner)
            per_rank_scan[owner] += block.shape[0]
            if match_block is not None:
                block = block[match_block.mask(block)]
            if block.shape[0]:
                emitted[owner] = cr.emit_spec.eval_block(block, None)
        return emitted

    def intra_sends(
        self, cr, outer_pos, outer_rel, outer_ver, inner_rel, probe_cols,
        per_rank_ser,
    ):
        outer_mb = cr.matches_block[outer_pos]
        owner_blocks: List[Tuple[int, np.ndarray]] = []
        for _key, owner, block in outer_rel.shard_blocks(outer_ver):
            if outer_mb is not None and block.shape[0]:
                block = block[outer_mb.mask(block)]
            if block.shape[0]:
                owner_blocks.append((owner, block))
        return build_intra_sends(
            owner_blocks,
            inner_rel.dist,
            inner_rel.schema.n_subbuckets,
            probe_cols,
            per_rank_ser,
        )

    def _rank_index(self, rel, version, rank, match_token, match_block):
        """Build-or-reuse the batch join index for one (relation, rank).

        Cache entries are validated by the relation's version generation,
        so static inners (EDB relations) index once per run while evolving
        fulls rebuild only after an absorb actually admitted something.
        """
        gen = rel.delta_gen if version == "delta" else rel.full_gen
        key = (rel.schema.name, version, rank, match_token)
        hit = self._index_cache.get(key)
        if hit is not None and hit[0] == gen:
            return hit[1]
        index = RankJoinIndex.build(rel, version, rank, match_block)
        self._index_cache[key] = (gen, index)
        return index

    def local_join(
        self, cr, outer_pos, received, inner_rel, inner_ver, probe_cols,
        per_rank_probe, per_rank_emit, fold=None,
    ):
        """``received`` yields ``(rank, rows)``: every rank's received
        outer rows (:meth:`~repro.comm.boxes.Delivery.rows`)."""
        inner_pos = 1 - outer_pos
        inner_mb = cr.matches_block[inner_pos]
        match_token = None if inner_mb is None else (id(cr), inner_pos)
        emitted: Dict[int, Emitted] = {}
        for r, probe in received:
            per_rank_probe[r] += probe.shape[0]
            index = self._rank_index(
                inner_rel, inner_ver, r, match_token, inner_mb
            )
            starts, counts = index.probe(probe, probe_cols)
            n_pairs = int(counts.sum())
            per_rank_emit[r] += n_pairs
            if not n_pairs:
                continue
            if fold is None or n_pairs <= _PAIR_BUDGET:
                emitted[r] = _emit_pairs(
                    cr, outer_pos, probe, index.rows, 0, starts, counts
                )
                continue
            # Fold as we emit: only each chunk's fold is kept, with its
            # pre-fold counts; the route step's fold merges the chunks.
            parts = [
                combine_block(
                    _emit_pairs(cr, outer_pos, probe, index.rows, lo, s, c), *fold
                )
                for lo, s, c in _pair_chunks(starts, counts, _PAIR_BUDGET)
            ]
            emitted[r] = (
                np.concatenate([rows for rows, _ in parts]),
                np.concatenate([pre for _, pre in parts]),
            )
        return emitted

    def route_sends(self, emitted, dist, for_wire, fold):
        return build_route_sends(emitted, dist, for_wire, fold)
