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
* ``intra_sends`` — scan and match the outer side, keep each rank's rows
  bound for itself where they lie (its *home* rows) and box the copies
  that cross: a row goes to its inner bucket's home cell (a light key),
  or to every sub-bucket owner of the matching inner bucket (a heavy
  key);
* ``local_join`` — probe the inner version's join index with each rank's
  home rows and delivered copies, once per run of receivers (up to
  :data:`~repro.kernels.route._CHUNK_ROWS` rows), and emit once per
  :data:`_PAIR_BUDGET` pairs; under the head's sender fold a larger
  receiver's pairs are folded as they are emitted.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.comm.boxes import BoxTable, Delivery
from repro.kernels.absorb import combine_block
from repro.kernels.block import concat_ranges, offsets
from repro.kernels.route import (
    _CHUNK_ROWS, _NONE, Emitted, _row_chunks, build_intra_sends, interleave,
)

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


def _matched(cr, pos, rel, version):
    """The rows of ``rel``'s ``version`` that body atom ``pos`` matches,
    by owner rank, and each rank's bounds in them; and each rank's row
    count before matching."""
    rows, sizes = rel.owner_blocks(version)
    ends = offsets(sizes)
    match_block = cr.matches_block[pos]
    if match_block is not None:
        keep = match_block.mask(rows)
        rows = np.compress(keep, rows, axis=0)
        ends = offsets(keep)[ends]
    return rows, ends, sizes


class ColumnarExecutor:
    """Row-block data plane: the :mod:`repro.kernels` batch kernels."""

    def scan_emit(self, cr, rel, version, per_rank_scan):
        rows, ends, sizes = _matched(cr, 0, rel, version)
        per_rank_scan += sizes
        out = cr.emit_spec.eval_block(rows, None)
        ends = ends.tolist()
        return {
            owner: out[lo:hi]
            for owner, (lo, hi) in enumerate(zip(ends[:-1], ends[1:]))
            if hi > lo
        }

    def intra_sends(
        self, cr, outer_pos, outer_rel, outer_ver, inner_rel, probe_cols, co_placed
    ):
        """Every rank's matched outer rows, by rank: its home rows, their
        per-rank ends and the table of copies that cross
        (:func:`~repro.kernels.route.build_intra_sends`).  ``co_placed``
        — the plan proves no copy crosses — takes the rows as they lie,
        a view of the store where nothing is filtered, and no table."""
        rows, ends, _sizes = _matched(cr, outer_pos, outer_rel, outer_ver)
        if co_placed:
            return rows, ends, None
        return build_intra_sends(
            rows, ends, inner_rel.dist, inner_rel.schema.n_subbuckets, probe_cols
        )

    def local_join(
        self, cr, outer_pos, home, home_ends, delivery, inner_rel, inner_ver,
        probe_cols, per_rank_probe, per_rank_emit, fold=None,
    ):
        """Join every rank's probe rows with the inner version: its home
        rows ``home[home_ends[r] : home_ends[r + 1]]`` and what
        ``delivery`` — the intra-bucket exchange's
        :class:`~repro.comm.boxes.Delivery`, None when none ran — brought
        it, in the order one delivery of every copy would have: rows from
        lower ranks, its own, rows from higher ranks.  Ranks probe in
        rank order."""
        inner_pos = 1 - outer_pos
        inner_mb = cr.matches_block[inner_pos]
        index = inner_rel.join_index(
            inner_ver, None if inner_mb is None else (id(cr), inner_pos), inner_mb
        )
        if delivery is None:
            delivery = Delivery(BoxTable(_NONE, _NONE, _NONE, rows=home[:0]), _NONE)
        ranks, cuts, is_home, row_lo, n_rows = _probe_pieces(home_ends, delivery)
        sizes = np.diff(offsets(n_rows)[cuts])
        emitted: Dict[int, Emitted] = {}
        for lo, hi in _row_chunks(sizes, _CHUNK_ROWS):
            dsts = ranks[lo:hi]
            a, b = cuts[lo], cuts[hi]
            if is_home[a:b].all():  # consecutive ranks' own rows: a view
                probe = home[row_lo[a] : row_lo[b - 1] + n_rows[b - 1]]
            else:
                probe = interleave(
                    home, delivery.table.rows, is_home[a:b], row_lo[a:b], n_rows[a:b]
                )
            probe_ends = offsets(sizes[lo:hi]).tolist()
            starts, counts = index.probe(
                np.repeat(dsts, sizes[lo:hi]), probe, probe_cols
            )
            pair_ends = offsets(counts)[probe_ends]
            n_pairs = np.diff(pair_ends)
            per_rank_probe[dsts] += sizes[lo:hi]  # the receivers are distinct
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


def _probe_pieces(home_ends, delivery):
    """Every receiving rank's probe rows as *pieces*, ranks in order: its
    delivered boxes from lower ranks, its home rows, its boxes from the
    rest, each part in delivery order — where its own copies would lie in
    a delivery by source rank.  Returns the receiving ranks, where each
    one's pieces start (and a final bound), and per piece whether it is
    home rows, its first row and its row count."""
    n_home = np.diff(home_ends)
    ranks = np.flatnonzero(n_home)
    table, boxes = delivery.table, delivery.order
    dst = table.dst[boxes]
    rank = np.concatenate([dst, ranks])
    part = np.concatenate([np.where(table.src[boxes] < dst, 0, 2), np.ones_like(ranks)])
    perm = np.argsort(rank * 3 + part, kind="stable")
    lo = np.concatenate([table.row_lo[boxes], home_ends[ranks]])[perm]
    n = np.concatenate([table.n_rows[boxes], n_home[ranks]])[perm]
    rank = rank[perm]
    heads = np.flatnonzero(np.diff(rank, prepend=-1))
    return rank[heads], np.append(heads, rank.shape[0]), (part == 1)[perm], lo, n
