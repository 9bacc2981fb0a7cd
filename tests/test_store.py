"""The relation-wide row store against a per-shard reference.

One row store holds every shard of a relation, each row tagged with its
(bucket, sub-bucket) segment.  The reference model below holds one
single-segment store per shard — a single-segment store is exactly one
shard, which ``tests/test_kernels.py`` pins against absorbing one tuple
at a time — and replays every operation shard by shard.  Absorbs, Δ
advances and installs, resharding and checkpoint/restore are drawn in
random order over random segments, and after each one every observable
must agree: per-shard full and Δ block bytes, sizes by rank and by
bucket, per-rank absorb counts and the collected improvements.
"""

import copy

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.aggregators import MinAggregator, SumAggregator
from repro.faults.checkpoint import capture, restore
from repro.kernels.absorb import AbsorbStats, make_shard
from repro.relational.schema import Schema
from repro.relational.storage import VersionedRelation
from repro.runtime.rebalance import measure_bucket_skew
from repro.util.hashing import HashSeed

N_RANKS = 3

SCHEMAS = {
    "plain": lambda n_sub: Schema(
        name="r", arity=3, join_cols=(0,), n_subbuckets=n_sub
    ),
    # SUM admits every arrival, so its counts see within-shard order.
    "sum": lambda n_sub: Schema(
        name="r", arity=3, join_cols=(1,), n_dep=1,
        aggregator=SumAggregator(), n_subbuckets=n_sub,
    ),
    "min": lambda n_sub: Schema(
        name="r", arity=3, join_cols=(1,), n_dep=1,
        aggregator=MinAggregator(), n_subbuckets=n_sub,
    ),
}

#: Small values collide often; negative and very wide ones take the
#: key index's wide tier.
_VALUE = st.one_of(st.integers(0, 3), st.sampled_from([-1, -(2**62), 2**61]))
_ROWS = st.lists(st.tuples(_VALUE, _VALUE, st.integers(0, 9)), max_size=8)
_BOX = st.tuples(st.integers(0, N_RANKS - 1), st.integers(0, 2), _ROWS)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("absorb"), st.lists(_BOX, max_size=5)),
        st.tuples(st.just("advance")),
        st.tuples(st.just("install_delta"), st.randoms(use_true_random=False)),
        st.tuples(st.just("reshard"), st.integers(1, 3)),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("restore")),
    ),
    min_size=1,
    max_size=12,
)


def _rows(tuples):
    return np.asarray(tuples, dtype=np.int64).reshape(-1, 3)


class PerShard:
    """The reference: one single-segment store per (bucket, sub) shard."""

    def __init__(self, rel):
        self.rel = rel
        self.shards = {}

    def shard(self, key):
        if key not in self.shards:
            self.shards[key] = make_shard(self.rel.schema)
        return self.shards[key]

    def absorb(self, boxes):
        """Box by box; per-rank (received, admitted) and collected rows."""
        received = np.zeros(N_RANKS, dtype=np.int64)
        admitted = np.zeros(N_RANKS, dtype=np.int64)
        out = []
        for b, s, rows in boxes:
            if not rows.shape[0]:
                continue
            stats = AbsorbStats()
            self.shard((b, s)).absorb_block(rows, stats, out)
            owner = self.rel.dist.owner_table[b, s]
            received[owner] += stats.received
            admitted[owner] += stats.admitted
        return received, admitted, _concat(out)

    def advance(self):
        return sum(shard.advance() for shard in self.shards.values())

    def install_delta(self, rows):
        blocks = {}
        b_arr, s_arr = self.rel.dist.bucket_sub_of_rows(rows)
        for row, b, s in zip(rows, b_arr.tolist(), s_arr.tolist()):
            blocks.setdefault((b, s), []).append(row)
        for key in set(self.shards) | set(blocks):
            self.shard(key).install_delta(_rows(blocks.get(key, [])))

    def reshard(self, parts, new_schema):
        fragments = {}
        for b, s, kind, rows in parts:
            fragments.setdefault((b, s), ([], []))[kind].append(rows)
        self.shards = {}
        for key, (full, delta) in fragments.items():
            shard = self.shards[key] = make_shard(new_schema)
            shard.install_state(_concat(full), _concat(delta))

    def blocks(self, version):
        return {
            key: shard.version_block(version).tobytes()
            for key, shard in sorted(self.shards.items())
            if shard.version_block(version).shape[0]
        }

    def sizes_by_rank(self, version):
        out = np.zeros(N_RANKS, dtype=np.int64)
        for (b, s), shard in self.shards.items():
            out[self.rel.dist.owner_table[b, s]] += shard.version_block(
                version
            ).shape[0]
        return out

    def sizes_by_bucket(self):
        out = np.zeros(N_RANKS, dtype=np.int64)
        for (b, _s), shard in self.shards.items():
            out[b] += shard.full_size()
        return out


def _concat(blocks):
    return np.concatenate(blocks) if blocks else _rows([])


def _reshard_parts(rel, n_sub):
    """Every shard's full then Δ rows, each re-placed under ``n_sub``
    sub-buckets, as ``(bucket, sub, kind, rows)`` fragments."""
    new_dist = rel.dist.with_subbuckets(n_sub)
    deltas = {key: rows for key, _o, rows in rel.shard_blocks("delta")}
    parts = []
    for key, _owner, full in rel.shard_blocks("full"):
        for kind, rows in ((0, full), (1, deltas.get(key, _rows([])))):
            b_arr, s_arr = new_dist.bucket_sub_of_rows(rows)
            for b, s in sorted(set(zip(b_arr.tolist(), s_arr.tolist()))):
                parts.append((b, s, kind, rows[(b_arr == b) & (s_arr == s)]))
    return parts, new_dist.schema


def _assert_same(rel, ref):
    for version in ("full", "delta"):
        got = {key: rows.tobytes() for key, _o, rows in rel.shard_blocks(version)}
        assert got == ref.blocks(version)
        assert rel.sizes_by_rank(version).tolist() == (
            ref.sizes_by_rank(version).tolist()
        )
    for key, owner, _rows_ in rel.shard_blocks("full"):
        assert owner == rel.dist.owner_table[key]
    assert {key: rows.shape[0] for key, _o, rows in rel.shard_blocks("full")} == {
        key: shard.full_size()
        for key, shard in ref.shards.items()
        if shard.full_size()
    }
    by_bucket = ref.sizes_by_bucket()
    skew = measure_bucket_skew(rel)
    if by_bucket.sum() == 0:
        assert skew is None
    else:
        assert (skew.total, skew.n_buckets) == (
            int(by_bucket.sum()), int((by_bucket > 0).sum())
        )
        assert skew.top_share == by_bucket.max() / by_bucket.sum()
    assert rel.full_size() == sum(s.full_size() for s in ref.shards.values())


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
@given(n_sub=st.integers(1, 3), ops=_OPS)
def test_store_equals_per_shard_reference(kind, n_sub, ops):
    rel = VersionedRelation(SCHEMAS[kind](n_sub), N_RANKS, seed=HashSeed())
    ref = PerShard(rel)
    saved = None
    for op in ops:
        if op[0] == "absorb":
            n_sub = rel.schema.n_subbuckets
            boxes = [(b, s % n_sub, _rows(rows)) for b, s, rows in op[1]]
            out = []
            runs = [  # one run per box: runs absorb one after another
                (rows, np.full(rows.shape[0], b * n_sub + s, dtype=np.int64))
                for b, s, rows in boxes
            ]
            stats = rel.absorb(runs, collect=out)
            received, admitted, collected = ref.absorb(boxes)
            assert stats.received.tolist() == received.tolist()
            assert stats.admitted.tolist() == admitted.tolist()
            assert _concat(out).tobytes() == collected.tobytes()
        elif op[0] == "advance":
            assert rel.advance() == ref.advance()
        elif op[0] == "install_delta":
            rows = rel.table.version_block("full")
            pick = list(range(rows.shape[0]))
            op[1].shuffle(pick)
            delta = rows[pick[: op[1].randint(0, len(pick))]]
            rel.install_delta(delta)
            ref.install_delta(delta)
        elif op[0] == "reshard":
            parts, new_schema = _reshard_parts(rel, op[1])
            rel.install_reshard(new_schema, [  # one run per fragment
                (rows, np.full(rows.shape[0], b * op[1] + s), np.full(rows.shape[0], kind))
                for b, s, kind, rows in parts
            ])
            ref.reshard(parts, new_schema)
        elif op[0] == "checkpoint":
            saved = (
                capture({"r": rel}, ["r"], stratum=0, iteration=0, changed=True,
                        iterations_total=0, counters={}, trace_len=0),
                copy.deepcopy(ref.shards),
            )
        elif saved is not None:  # restore
            restore({"r": rel}, saved[0])
            ref.shards = copy.deepcopy(saved[1])
        _assert_same(rel, ref)


def test_single_segment_store_is_one_shard():
    """Rows with no segment all sit in segment 0: the store is a shard."""
    schema = SCHEMAS["min"](1)
    store = make_shard(schema)
    rows = _rows([(0, 1, 5), (2, 1, 3), (0, 1, 2)])
    assert store.absorb_block(rows) == 3
    assert store.advance() == 2
    assert store.version("full")[1].tolist() == [0, 0]
    assert store.version_block("delta").tolist() == [[0, 1, 2], [2, 1, 3]]
