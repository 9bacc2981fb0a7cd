"""Tests for fused dedup + local aggregation (the paper's §III-A core)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.aggregators import MaxAggregator, MinAggregator, SumAggregator
from repro.kernels.absorb import (
    AbsorbStats,
    ColumnarAggregateShard,
    ColumnarPlainShard,
    make_shard,
)
from repro.relational.schema import Schema
from repro.relational.storage import VersionedRelation


def plain_schema():
    return Schema(name="p", arity=2, join_cols=(0,))


def min_schema():
    # spath-like: (from, to, dist); keyed on column 1
    return Schema(name="spath", arity=3, join_cols=(1,), n_dep=1,
                  aggregator=MinAggregator())


def rows(tuples, arity):
    return np.asarray(list(tuples), dtype=np.int64).reshape(-1, arity)


def absorb(shard, tuples, stats=None, collect=None):
    return shard.absorb_block(rows(tuples, shard.schema.arity), stats, collect)


def full(shard):
    return set(map(tuple, shard.version_block("full").tolist()))


def delta(shard):
    return set(map(tuple, shard.version_block("delta").tolist()))


def collected(out):
    return [tuple(t) for block in out for t in block.tolist()]


def probe(schema, version, tuples, jk):
    """Every ``version`` row whose join key is ``jk``, through the join
    index the local join probes (one rank, so one index holds them all)."""
    rel = VersionedRelation(schema, 1)
    rel.load(tuples)
    if version == "delta":
        rel.advance()
    index = rel.join_index(version)
    starts, counts = index.probe(
        np.zeros(1, dtype=np.int64), np.asarray([jk], dtype=np.int64), (0,)
    )
    return [tuple(t) for t in index.rows[starts[0] : starts[0] + counts[0]].tolist()]


class TestPlainShard:
    def test_absorb_dedups(self):
        s = ColumnarPlainShard(plain_schema())
        stats = AbsorbStats()
        assert absorb(s, [(1, 2), (1, 2), (1, 3)], stats) == 2
        assert stats.received == 3
        assert stats.admitted == 2
        assert stats.suppressed == 1
        assert s.full_size() == 2

    def test_delta_lifecycle(self):
        s = ColumnarPlainShard(plain_schema())
        absorb(s, [(1, 2)])
        assert s.delta_size() == 0  # not yet advanced
        assert s.advance() == 1
        assert delta(s) == {(1, 2)}
        absorb(s, [(1, 2), (5, 6)])  # (1,2) suppressed
        assert s.advance() == 1
        assert delta(s) == {(5, 6)}

    def test_probe_full(self):
        tuples = [(1, 2), (1, 3), (4, 5)]
        assert sorted(probe(plain_schema(), "full", tuples, (1,))) == [(1, 2), (1, 3)]
        assert probe(plain_schema(), "full", tuples, (9,)) == []

    def test_probe_delta(self):
        assert probe(plain_schema(), "delta", [(1, 2)], (1,)) == [(1, 2)]

    def test_collect(self):
        s = ColumnarPlainShard(plain_schema())
        out = []
        absorb(s, [(3, 4), (1, 2), (1, 2), (3, 4)], collect=out)
        assert collected(out) == [(3, 4), (1, 2)]  # admitted, arrival order

    def test_seed_delta_from_full(self):
        s = ColumnarPlainShard(plain_schema())
        absorb(s, [(1, 2), (3, 4)])
        s.install_delta(s.version_block("full"))
        assert delta(s) == {(1, 2), (3, 4)}


class TestAggregateShard:
    def test_requires_aggregator(self):
        with pytest.raises(ValueError):
            ColumnarAggregateShard(plain_schema())

    def test_first_tuple_admitted(self):
        s = ColumnarAggregateShard(min_schema())
        assert absorb(s, [(0, 1, 10)]) == 1
        assert s.full_size() == 1

    def test_improvement_updates_accumulator(self):
        s = ColumnarAggregateShard(min_schema())
        absorb(s, [(0, 1, 10)])
        assert absorb(s, [(0, 1, 7)]) == 1
        assert full(s) == {(0, 1, 7)}
        assert s.full_size() == 1  # still one group

    def test_non_improvement_suppressed(self):
        """Paper Fig. 1: (1,4,5) arriving over stored (1,4,2) does nothing."""
        s = ColumnarAggregateShard(min_schema())
        absorb(s, [(1, 4, 2)])
        s.advance()
        stats = AbsorbStats()
        assert absorb(s, [(1, 4, 5)], stats) == 0
        assert stats.suppressed == 1
        assert s.advance() == 0  # nothing enters delta
        assert full(s) == {(1, 4, 2)}

    def test_delta_carries_improved_value(self):
        s = ColumnarAggregateShard(min_schema())
        absorb(s, [(0, 1, 10), (0, 1, 4)])  # both in one batch
        s.advance()
        assert delta(s) == {(0, 1, 4)}

    def test_groups_with_same_join_key_independent(self):
        s = ColumnarAggregateShard(min_schema())
        # same join col (to=5), different from -> distinct groups
        absorb(s, [(1, 5, 10), (2, 5, 20)])
        assert s.full_size() == 2
        got = probe(min_schema(), "full", [(1, 5, 10), (2, 5, 20)], (5,))
        assert sorted(got) == [(1, 5, 10), (2, 5, 20)]

    def test_collect_materializes_merged_tuple(self):
        """What the RaSQL-style baseline re-shuffles: every admitted
        arrival's row as stored after it, in arrival order — within one
        block as across blocks."""
        s = ColumnarAggregateShard(min_schema())
        out = []
        absorb(s, [(0, 1, 10)], collect=out)
        absorb(s, [(0, 1, 3)], collect=out)
        assert collected(out) == [(0, 1, 10), (0, 1, 3)]
        out = []
        absorb(s, [(5, 5, 9), (0, 1, 4), (0, 1, 2), (5, 5, 7), (0, 1, 1)], collect=out)
        assert collected(out) == [(5, 5, 9), (0, 1, 2), (5, 5, 7), (0, 1, 1)]

    def test_lookup(self):
        s = ColumnarAggregateShard(min_schema())
        absorb(s, [(0, 1, 10)])
        slot = s._lookup(rows([(0, 1), (9, 9)], 2))
        assert slot[1] == -1
        assert s.version_block("full")[slot[0]].tolist() == [0, 1, 10]

    def test_max_aggregation(self):
        schema = Schema(name="m", arity=2, join_cols=(0,), n_dep=1,
                        aggregator=MaxAggregator())
        s = ColumnarAggregateShard(schema)
        absorb(s, [(1, 5), (1, 9), (1, 2)])
        assert full(s) == {(1, 9)}

    def test_fold_sum_always_admits(self):
        schema = Schema(name="s", arity=2, join_cols=(0,), n_dep=1,
                        aggregator=SumAggregator())
        s = ColumnarAggregateShard(schema)
        assert absorb(s, [(1, 5), (1, 7)]) == 2
        assert full(s) == {(1, 12)}

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 3),
                st.integers(0, 100),
            ),
            min_size=1,
            max_size=60,
        ),
        st.randoms(),
    )
    def test_order_insensitive_final_state(self, tuples, rnd):
        """Property: absorb order never changes the final accumulators —
        the invariant that makes unordered network delivery safe."""
        a = ColumnarAggregateShard(min_schema())
        absorb(a, tuples)
        shuffled = list(tuples)
        rnd.shuffle(shuffled)
        b = ColumnarAggregateShard(min_schema())
        for t in shuffled:
            absorb(b, [t])  # one at a time, different batching
        assert full(a) == full(b)

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 50)),
            min_size=1,
            max_size=40,
        )
    )
    def test_accumulator_is_group_min(self, tuples):
        s = ColumnarAggregateShard(min_schema())
        absorb(s, tuples)
        expected = {}
        for f, t, d in tuples:
            expected[(f, t)] = min(expected.get((f, t), d), d)
        got = {(f, t): d for f, t, d in full(s)}
        assert got == expected

    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 50)),
            min_size=1,
            max_size=30,
        )
    )
    def test_reabsorb_is_noop(self, tuples):
        """Dedup fusion: re-delivering everything changes nothing."""
        s = ColumnarAggregateShard(min_schema())
        absorb(s, tuples)
        s.advance()
        state = full(s)
        stats = AbsorbStats()
        absorb(s, sorted(state), stats)
        assert stats.admitted == 0
        assert full(s) == state


class TestMakeShard:
    def test_plain(self):
        assert isinstance(make_shard(plain_schema()), ColumnarPlainShard)

    def test_aggregate(self):
        assert isinstance(make_shard(min_schema()), ColumnarAggregateShard)
