"""Tests for cluster-wide relation storage."""

import numpy as np
import pytest

from repro.core.aggregators import MinAggregator
from repro.kernels.absorb import AbsorbStats
from repro.relational.schema import Schema
from repro.relational.storage import RelationStore, VersionedRelation
from repro.comm.simcluster import SimCluster
from repro.faults.checkpoint import capture, restore
from repro.runtime.rebalance import reshard_relation
from repro.util.hashing import HashSeed


def edge_schema(n_sub=1):
    return Schema(name="edge", arity=3, join_cols=(0,), n_subbuckets=n_sub)


def spath_schema():
    return Schema(name="spath", arity=3, join_cols=(1,), n_dep=1,
                  aggregator=MinAggregator())


class TestVersionedRelation:
    def test_load_dedups(self):
        rel = VersionedRelation(edge_schema(), 8)
        stats = AbsorbStats()
        assert rel.load([(1, 2, 3), (1, 2, 3), (4, 5, 6)], stats=stats) == 2
        assert rel.full_size() == 2
        assert stats.suppressed == 1

    def test_load_empty(self):
        rel = VersionedRelation(edge_schema(), 8)
        assert rel.load([]) == 0

    def test_load_arity_check(self):
        rel = VersionedRelation(edge_schema(), 8)
        with pytest.raises(ValueError, match="arity"):
            rel.load([(1, 2)])

    def test_load_aggregate_folds(self):
        rel = VersionedRelation(spath_schema(), 8)
        assert rel.load([(0, 1, 9), (0, 1, 4)]) == 2  # insert then improve
        assert rel.as_set() == {(0, 1, 4)}
        assert rel.full_size() == 1

    def test_tuples_land_on_owner_shard(self):
        rel = VersionedRelation(edge_schema(n_sub=4), 16)
        tuples = [(i, i + 1, 1) for i in range(200)]
        rel.load(tuples)
        for (b, s), _owner, block in rel.shard_blocks("full"):
            for t in map(tuple, block.tolist()):
                assert rel.dist.bucket_of(t) == b
                assert rel.dist.sub_of(t) == s

    def test_sizes_by_rank_sum(self):
        rel = VersionedRelation(edge_schema(), 8)
        rel.load([(i, 0, 0) for i in range(100)])
        by_rank = rel.sizes_by_rank()
        assert by_rank.sum() == 100
        assert len(by_rank) == 8

    def test_advance_promotes(self):
        rel = VersionedRelation(edge_schema(), 4)
        rel.load([(1, 2, 3)])
        assert rel.delta_size() == 0
        assert rel.advance() == 1
        assert rel.delta_size() == 1
        assert rel.advance() == 0

    def test_iterators_deterministic(self):
        rel = VersionedRelation(edge_schema(), 8)
        tuples = [(i, i * 7 % 13, 1) for i in range(50)]
        rel.load(tuples)
        assert list(rel.iter_full()) == list(rel.iter_full())

    def test_version_blocks_tag_owner(self):
        rel = VersionedRelation(edge_schema(n_sub=2), 8)
        rel.load([(i, i, 0) for i in range(60)])
        total = 0
        for _key, owner, block in rel.shard_blocks("full"):
            total += len(block)
            for t in map(tuple, block.tolist()):
                assert rel.dist.rank_of(t) == owner
        assert total == 60

    def test_version_blocks_bad_version(self):
        rel = VersionedRelation(edge_schema(), 4)
        with pytest.raises(ValueError):
            list(rel.shard_blocks("nope"))

    def test_probe_cache_invalidation(self):
        """The relation's cached join index is reused while the full
        version holds, and rebuilt — with no invalidate call anywhere —
        once a load, a degraded-mode overlay, a reshard or a checkpoint
        restore changes the rows or their placement under it."""
        rel = VersionedRelation(edge_schema(), 4)
        store = {"edge": rel}

        def matches():
            """Key 0's rows as the index returns them, per rank, against
            every key-0 row of the table under today's placement."""
            index = rel.join_index("full")
            ranks = np.arange(4, dtype=np.int64)
            starts, counts = index.probe(
                ranks, np.zeros((4, 3), dtype=np.int64), (0,)
            )
            got = {
                r: sorted(map(tuple, index.rows[s : s + c].tolist()))
                for r, s, c in zip(ranks.tolist(), starts.tolist(), counts.tolist())
            }
            want = {r: [] for r in range(4)}
            for row in sorted(rel.as_set()):
                if row[0] == 0:
                    want[rel.dist.rank_of(row)].append(row)
            assert got == want
            return got

        rel.load([(0, 1, 1)])
        before = rel.join_index("full")
        assert before is rel.join_index("full")
        rank = rel.dist.rank_of((0, 1, 1))
        assert matches()[rank] == [(0, 1, 1)]
        ckpt = capture(
            store, ["edge"], stratum=0, iteration=0, changed=False,
            iterations_total=0, counters={}, trace_len=0,
        )
        rel.load([(0, 2, 2)])
        assert matches()[rank] == [(0, 1, 1), (0, 2, 2)]
        # Back to the checkpoint's table and generation, then another
        # row: the generation the index was built at, other rows.
        restore(store, ckpt)
        rel.load([(0, 3, 3)])
        assert rel.full_gen == 2
        assert matches()[rank] == [(0, 1, 1), (0, 3, 3)]
        # The overlay moves the dead rank's shards: same rows, same
        # generation, another owner.
        rel.exclude_ranks([rank])
        assert matches()[rank] == []
        reshard_relation(rel, 3, SimCluster(4))
        matches()

    def test_repr(self):
        rel = VersionedRelation(edge_schema(), 4)
        assert "edge" in repr(rel)


class TestRelationStore:
    def test_declare_and_lookup(self):
        store = RelationStore(4)
        rel = store.declare(edge_schema())
        assert store["edge"] is rel
        assert "edge" in store
        assert "other" not in store

    def test_duplicate_declare_rejected(self):
        store = RelationStore(4)
        store.declare(edge_schema())
        with pytest.raises(ValueError, match="already declared"):
            store.declare(edge_schema())

    def test_shared_seed_across_relations(self):
        """Join colocation invariant: the bucket of a key value is the
        same regardless of which relation computes it."""
        store = RelationStore(32, seed=HashSeed().derive(7))
        edge = store.declare(edge_schema())
        spath = store.declare(spath_schema())
        for key in range(50):
            # edge keyed on col 0, spath keyed on col 1 — same key value
            assert edge.dist.bucket_of((key, 1, 1)) == spath.dist.bucket_of(
                (9, key, 9)
            )

    def test_iter(self):
        store = RelationStore(4)
        store.declare(edge_schema())
        store.declare(spath_schema())
        assert len(list(store)) == 2
