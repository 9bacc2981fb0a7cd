"""The representation-specific data plane behind the engine's one pipeline.

:class:`~repro.runtime.engine.Engine` writes Fig. 1's pipeline once: the
vote, the outer/inner orientation, every ledger charge and counter, the
exchanges and the monotonicity audit.  What differs between executors is
only how tuples are *held* while they cross it — int64 row blocks
(:class:`ColumnarExecutor`, the :mod:`repro.kernels` calls) or Python
tuples (:class:`ScalarExecutor`, the tuple-at-a-time loops kept as the
test oracle and the only path for B-tree shards and head operators with
no array form).  Both build the same per-(src, dst) row sequences, so the
shared skeleton charges both identically.

An executor owns five steps.  ``emitted`` maps a rank to the head tuples
it produced, ``per_rank_*`` are int64 work tallies the engine turns into
compute charges, and ``outer_pos`` (0 = left, 1 = right) is the body atom
the vote chose to transmit:

* ``scan_emit`` — copy rules: scan one relation version, match, emit;
* ``intra_sends`` — scan and match the outer side and replicate it to
  every sub-bucket owner of the matching inner bucket;
* ``local_join`` — probe each rank's inner shards with what it received;
  where the engine hands in the head's sender fold, the columnar plane
  folds a large probe's pairs as it emits them instead of keeping them;
* ``route_sends`` — group emitted tuples into ``(bucket, sub, batch)``
  boxes per home rank, after the wire layer's sender fold where the
  engine hands one in;
* ``absorb`` — fuse one rank's received boxes into the head's shards.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.kernels.absorb import combine_block
from repro.kernels.block import concat_ranges
from repro.kernels.join import RankJoinIndex
from repro.kernels.route import Emitted, build_intra_sends, build_route_sends

TupleT = Tuple[int, ...]

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

    name = "columnar"

    def __init__(self) -> None:
        #: (relation, version, rank, match token) → (generation, index).
        self._index_cache: Dict[Tuple, Tuple[int, RankJoinIndex]] = {}

    def invalidate(self) -> None:
        """Drop cached join indexes (placement changed under them)."""
        self._index_cache.clear()

    @staticmethod
    def intra_count_of(box) -> int:
        return box.shape[0]

    def scan_emit(self, cr, rel, version, per_rank_scan):
        match_block = cr.matches_block[0]
        by_owner: Dict[int, List[np.ndarray]] = defaultdict(list)
        for owner, block in rel.version_blocks(version):
            per_rank_scan[owner] += block.shape[0]
            if match_block is not None:
                block = block[match_block.mask(block)]
            if block.shape[0]:
                by_owner[owner].append(cr.emit_spec.eval_block(block, None))
        return {
            owner: (blocks[0] if len(blocks) == 1 else np.vstack(blocks))
            for owner, blocks in by_owner.items()
        }

    def intra_sends(
        self, cr, outer_pos, outer_rel, outer_ver, inner_rel, probe_cols,
        per_rank_ser,
    ):
        outer_mb = cr.matches_block[outer_pos]
        owner_blocks: List[Tuple[int, np.ndarray]] = []
        for owner, block in outer_rel.version_blocks(outer_ver):
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
        self, cr, outer_pos, recv, inner_rel, inner_ver, probe_cols,
        per_rank_probe, per_rank_emit, fold=None,
    ):
        inner_pos = 1 - outer_pos
        inner_mb = cr.matches_block[inner_pos]
        match_token = None if inner_mb is None else (id(cr), inner_pos)
        emitted: Dict[int, Emitted] = {}
        for r, boxes in recv.items():
            probe = boxes[0] if len(boxes) == 1 else np.vstack(boxes)
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

    def absorb(self, head, boxes, absorb_stats) -> None:
        # Concatenate each shard's boxes in delivery order, so per-shard
        # tuple sequences — and therefore admitted counts — match the
        # scalar data plane exactly.
        by_shard: Dict[Tuple[int, int], List[np.ndarray]] = {}
        for b, s, rows in boxes:
            by_shard.setdefault((b, s), []).append(rows)
        for (b, s), blocks in by_shard.items():
            block = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
            head.absorb_block(b, s, block, absorb_stats)


class ScalarExecutor:
    """Tuple-at-a-time data plane: the reference the kernels are tested
    against, and what B-tree shards and non-vectorizable emits run."""

    name = "scalar"
    #: Intra-bucket payload items are single ``(bucket, tuple)`` pairs.
    intra_count_of = None

    def invalidate(self) -> None:
        """Nothing cached: shards' own indexes are probed directly."""

    def scan_emit(self, cr, rel, version, per_rank_scan):
        match = cr.matches[0]
        emit = cr.emit
        empty: TupleT = ()
        emitted: Dict[int, List[TupleT]] = defaultdict(list)
        for owner, batch in rel.version_batches(version):
            per_rank_scan[owner] += len(batch)
            out = emitted[owner]
            if match is None:
                out.extend(emit(t, empty) for t in batch)
            else:
                out.extend(emit(t, empty) for t in batch if match(t))
        return emitted

    def intra_sends(
        self, cr, outer_pos, outer_rel, outer_ver, inner_rel, probe_cols,
        per_rank_ser,
    ):
        # One hash pass computes every outer tuple's inner bucket; each
        # tuple is replicated to every sub-bucket rank of that bucket.
        # Payload entries are (bucket, tuple) so receivers don't re-hash
        # (the real system knows the bucket from message layout).
        outer_match = cr.matches[outer_pos]
        inner_dist = inner_rel.dist
        n_sub_inner = inner_rel.schema.n_subbuckets
        sends: Dict[int, Dict[int, List[Tuple[int, TupleT]]]] = {}
        n_intra = 0
        outer_tuples: List[TupleT] = []
        owner_spans: List[Tuple[int, int, int]] = []  # (owner, start, end)
        for owner, batch in outer_rel.version_batches(outer_ver):
            if outer_match is not None:
                batch = [t for t in batch if outer_match(t)]
            if not batch:
                continue
            start = len(outer_tuples)
            outer_tuples.extend(batch)
            owner_spans.append((owner, start, len(outer_tuples)))
        if outer_tuples:
            rows = np.asarray(outer_tuples, dtype=np.int64)
            buckets = inner_dist.buckets_of_key_rows(rows, probe_cols)
            dst_by_sub = [
                inner_dist.owners_of_buckets(buckets, s).tolist()
                for s in range(n_sub_inner)
            ]
            bucket_list = buckets.tolist()
            for owner, start, end in owner_spans:
                row = sends.setdefault(owner, {})
                for i in range(start, end):
                    item = (bucket_list[i], outer_tuples[i])
                    if n_sub_inner == 1:
                        dsts: Iterable[int] = (dst_by_sub[0][i],)
                        fanout = 1
                    else:
                        dsts = {dst_by_sub[s][i] for s in range(n_sub_inner)}
                        fanout = len(dsts)
                    for dst in dsts:
                        lst = row.get(dst)
                        if lst is None:
                            lst = row[dst] = []
                        lst.append(item)
                    per_rank_ser[owner] += fanout
                    n_intra += fanout
        return sends, n_intra

    def local_join(
        self, cr, outer_pos, recv, inner_rel, inner_ver, probe_cols,
        per_rank_probe, per_rank_emit, fold=None,
    ):
        # ``fold`` is ignored: the oracle emits every pair.
        outer_is_left = outer_pos == 0
        probe_get = cr.probe_get_left if outer_is_left else cr.probe_get_right
        inner_match = cr.matches[1 - outer_pos]
        emit = cr.emit
        emitted: Dict[int, List[TupleT]] = {}
        for r, items in recv.items():
            out: List[TupleT] = []
            # Inner indexes of this rank's shards for each seen bucket.
            index_cache: Dict[int, list] = {}
            for b, t in items:
                indexes = index_cache.get(b)
                if indexes is None:
                    indexes = [
                        getattr(shard, inner_ver)
                        for shard in inner_rel.shards_at_rank_for_bucket(b, r)
                    ]
                    index_cache[b] = indexes
                if not indexes:
                    continue
                jk = probe_get(t)
                for index in indexes:
                    group = index.get(jk)
                    if not group:
                        continue
                    if inner_match is None:
                        if outer_is_left:
                            out.extend(emit(t, it_) for it_ in group.values())
                        else:
                            out.extend(emit(it_, t) for it_ in group.values())
                    else:
                        for it_ in group.values():
                            if inner_match(it_):
                                out.append(
                                    emit(t, it_)
                                    if outer_is_left
                                    else emit(it_, t)
                                )
            if out:
                emitted[r] = out
            per_rank_probe[r] += len(items)
            per_rank_emit[r] += len(out)
        return emitted

    def route_sends(self, emitted, dist, for_wire, fold):
        if for_wire:
            # The wire layer folds and encodes row blocks, so each source's
            # tuples become one and take the shared builder (``absorb``
            # turns the decoded blocks back).
            return build_route_sends(
                {
                    src: np.asarray(tuples, dtype=np.int64)
                    for src, tuples in emitted.items()
                    if tuples
                },
                dist, True, fold,
            )
        # One hash pass per source computes each tuple's home shard
        # (bucket, sub) *and* its owner rank; payloads travel as
        # shard-tagged batches ("boxes") so the receiver absorbs without
        # regrouping.
        sends: Dict[int, Dict[int, list]] = {}
        n_comm = 0
        for src, tuples in emitted.items():
            if not tuples:
                continue
            rows = np.asarray(tuples, dtype=np.int64)
            b_arr, s_arr = dist.bucket_sub_of_rows(rows)
            dst_arr = dist.ranks_of_bucket_subs(b_arr, s_arr)
            buckets = b_arr.tolist()
            subs = s_arr.tolist()
            dsts = dst_arr.tolist()
            by_shard: Dict[Tuple[int, int], List[TupleT]] = {}
            shard_dst: Dict[Tuple[int, int], int] = {}
            for i, t in enumerate(tuples):
                key = (buckets[i], subs[i])
                lst = by_shard.get(key)
                if lst is None:
                    lst = by_shard[key] = []
                    shard_dst[key] = dsts[i]
                lst.append(t)
            row: Dict[int, list] = {}
            for key, batch in by_shard.items():
                row.setdefault(shard_dst[key], []).append(
                    (key[0], key[1], batch)
                )
            sends[src] = row
            n_comm += len(tuples)
        return sends, n_comm, {}

    def absorb(self, head, boxes, absorb_stats) -> None:
        for b, s, batch in boxes:
            if isinstance(batch, np.ndarray):
                batch = [tuple(t) for t in batch.tolist()]
            head.shard(b, s).absorb(batch, absorb_stats)


EXECUTORS = {"columnar": ColumnarExecutor, "scalar": ScalarExecutor}
