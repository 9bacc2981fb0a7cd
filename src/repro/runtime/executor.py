"""The data plane behind the engine's one pipeline.

:class:`~repro.runtime.engine.Engine` writes Fig. 1's pipeline once: the
vote, the outer/inner orientation, every ledger charge and counter, the
exchanges and the monotonicity audit.  How tuples are *held* while they
cross it — int64 row blocks, moved by the :mod:`repro.kernels` calls —
is :class:`ColumnarExecutor`'s business.

The executor owns three steps (routing is
:func:`~repro.kernels.route.build_route_sends`, which the engine calls
itself, and absorption the head relation's own,
:meth:`~repro.relational.storage.VersionedRelation.absorb`).
``emitted`` maps a rank to the head tuples it produced, ``per_rank_*``
are int64 work tallies the engine turns into compute charges, and
``outer_pos`` (0 = left, 1 = right) is the body atom the vote chose to
transmit:

* ``scan_emit`` — copy rules: match and emit one relation version in one
  pass, split into each owner's rows;
* ``intra_sends`` — scan and match the outer side and send each row to
  its inner bucket's home cell (a light key), or to every sub-bucket
  owner of the matching inner bucket (a heavy key);
* ``local_join`` — probe the inner version's join index once per run of
  receivers (up to :data:`~repro.kernels.route._CHUNK_ROWS` rows) and
  emit once per :data:`_PAIR_BUDGET` pairs; under the head's sender fold
  a larger receiver's pairs are folded as they are emitted.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.kernels.absorb import combine_block
from repro.kernels.block import concat_ranges, offsets
from repro.kernels.route import _CHUNK_ROWS, Emitted, _row_chunks, build_intra_sends

#: Join pairs one emission materializes at once: receivers emit together
#: up to this many.  Under the head's sender fold, a receiver with more
#: emits and folds them in runs of this many, so the unfolded block —
#: 9.3M rows on the 4-rank dense workload, 6x what the fold keeps — is
#: never allocated.  The value is for memory: see the budget sweep in
#: EXPERIMENTS.md.
_PAIR_BUDGET = 1 << 18


def _emit_pairs(cr, outer_pos, probe, inner_rows, lo, starts, counts):
    """Head rows of the join pairs of probe rows ``lo, lo + 1, …``, row
    ``lo + i`` paired with inner rows ``[starts[i], starts[i] + counts[i])``."""
    # np.take: a row gather several times faster than fancy indexing.
    rep = np.repeat(np.arange(lo, lo + counts.shape[0], dtype=np.int64), counts)
    outer = np.take(probe, rep, axis=0)
    inner = np.take(inner_rows, concat_ranges(starts, counts), axis=0)
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

    def scan_emit(self, cr, rel, version, per_rank_scan):
        rows, sizes = rel.owner_blocks(version)
        per_rank_scan += sizes
        ends = offsets(sizes)
        match_block = cr.matches_block[0]
        if match_block is not None:
            keep = match_block.mask(rows)
            rows = np.compress(keep, rows, axis=0)
            ends = offsets(keep)[ends]
        out = cr.emit_spec.eval_block(rows, None)
        ends = ends.tolist()
        return {
            owner: out[lo:hi]
            for owner, (lo, hi) in enumerate(zip(ends[:-1], ends[1:]))
            if hi > lo
        }

    def intra_sends(
        self, cr, outer_pos, outer_rel, outer_ver, inner_rel, probe_cols,
        per_rank_ser,
    ):
        outer_mb = cr.matches_block[outer_pos]
        owner_blocks = [
            (owner, block if outer_mb is None else block[outer_mb.mask(block)])
            for _key, owner, block in outer_rel.shard_blocks(outer_ver)
        ]
        return build_intra_sends(
            owner_blocks,
            inner_rel.dist,
            inner_rel.schema.n_subbuckets,
            probe_cols,
            per_rank_ser,
        )

    def local_join(
        self, cr, outer_pos, delivery, inner_rel, inner_ver, probe_cols,
        per_rank_probe, per_rank_emit, fold=None,
    ):
        """Join the rows of ``delivery`` (the intra-bucket exchange's
        :class:`~repro.comm.boxes.Delivery`) with the inner version."""
        inner_pos = 1 - outer_pos
        inner_mb = cr.matches_block[inner_pos]
        index = inner_rel.join_index(
            inner_ver, None if inner_mb is None else (id(cr), inner_pos), inner_mb
        )
        table, order, bounds = delivery.table, delivery.order, delivery.bounds
        row_ends = offsets(table.n_rows[order])[bounds]
        sizes = np.diff(row_ends)
        emitted: Dict[int, Emitted] = {}
        for lo, hi in _row_chunks(sizes, _CHUNK_ROWS):
            dsts = delivery.dsts[lo:hi]
            probe = table.rows_of(order[bounds[lo] : bounds[hi]])
            probe_ends = (row_ends[lo : hi + 1] - row_ends[lo]).tolist()
            starts, counts = index.probe(
                np.repeat(dsts, sizes[lo:hi]), probe, probe_cols
            )
            pair_ends = offsets(counts)[probe_ends]
            n_pairs = np.diff(pair_ends)
            per_rank_probe[dsts] += sizes[lo:hi]  # a delivery's receivers are distinct
            per_rank_emit[dsts] += n_pairs
            dsts, ends = dsts.tolist(), pair_ends.tolist()
            # Receivers emit together up to the pair budget, one over it
            # alone: under a fold, in budget-sized chunks, each folded
            # before the next is emitted (the route step merges them).
            for k0, k1 in _row_chunks(n_pairs, _PAIR_BUDGET):
                a, b = probe_ends[k0], probe_ends[k1]
                if fold is not None and ends[k1] - ends[k0] > _PAIR_BUDGET:
                    parts = [
                        combine_block(_emit_pairs(
                            cr, outer_pos, probe, index.rows, a + p, s, c
                        ), *fold)
                        for p, s, c in _pair_chunks(
                            starts[a:b], counts[a:b], _PAIR_BUDGET
                        )
                    ]
                    emitted[dsts[k0]] = (
                        np.concatenate([rows for rows, _ in parts]),
                        np.concatenate([pre for _, pre in parts]),
                    )
                elif ends[k1] > ends[k0]:
                    block = _emit_pairs(
                        cr, outer_pos, probe, index.rows, a, starts[a:b],
                        counts[a:b],
                    )
                    for k in range(k0, k1):
                        if ends[k + 1] > ends[k]:
                            emitted[dsts[k]] = block[
                                ends[k] - ends[k0] : ends[k + 1] - ends[k0]
                            ]
        return emitted
