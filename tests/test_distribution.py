"""Tests for the double-hash bucket / sub-bucket placement."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.aggregators import MinAggregator
from repro.relational.distribution import Distribution, heavy_keys
from repro.relational.schema import Schema
from repro.util.hashing import HashSeed

COL = st.integers(min_value=0, max_value=10**6)
ROWS = st.lists(st.tuples(COL, COL, COL), min_size=1, max_size=50)


def dist(n_ranks=32, join_cols=(0,), n_sub=1, n_dep=0, seed=None, heavy=None):
    schema = Schema(
        name="r",
        arity=3,
        join_cols=join_cols,
        n_dep=n_dep,
        aggregator=MinAggregator() if n_dep else None,
        n_subbuckets=n_sub,
        heavy_keys=heavy,
    )
    return Distribution(schema, n_ranks, seed)


class TestScalarPlacement:
    def test_bucket_determined_by_join_cols_only(self):
        d = dist(join_cols=(0,))
        assert d.bucket_of((5, 1, 2)) == d.bucket_of((5, 99, 100))

    def test_different_keys_spread(self):
        d = dist(n_ranks=64)
        buckets = {d.bucket_of((k, 0, 0)) for k in range(200)}
        assert len(buckets) > 32  # most ranks touched

    def test_sub_zero_when_disabled(self):
        d = dist(n_sub=1)
        assert d.sub_of((1, 2, 3)) == 0

    def test_sub_zero_when_no_other_cols(self):
        # cc-like schema: all independent columns are join columns
        schema = Schema(name="cc", arity=2, join_cols=(0,), n_dep=1,
                        aggregator=MinAggregator(), n_subbuckets=8)
        d = Distribution(schema, 16)
        assert d.sub_of((3, 7)) == 0

    def test_owner_sub_zero_is_home(self):
        d = dist(n_sub=8)
        for b in range(10):
            assert d.owner(b, 0) == b

    def test_owner_in_range(self):
        d = dist(n_ranks=16, n_sub=8)
        for b in range(16):
            for s in range(8):
                assert 0 <= d.owner(b, s) < 16

    def test_rank_pure_function_of_independent_cols(self):
        # Aggregation correctness: the dependent column must not move a
        # tuple (the paper's "excluded from the indexing process").
        d = dist(join_cols=(0,), n_sub=8, n_dep=1)
        assert d.rank_of((3, 7, 100)) == d.rank_of((3, 7, 5))

    def test_seed_changes_placement(self):
        d1 = dist(seed=HashSeed())
        d2 = dist(seed=HashSeed().derive(1))
        placements1 = [d1.bucket_of((k, 0, 0)) for k in range(100)]
        placements2 = [d2.bucket_of((k, 0, 0)) for k in range(100)]
        assert placements1 != placements2

    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError):
            dist(n_ranks=0)


class TestVectorizedEquivalence:
    @given(ROWS, st.sampled_from([1, 3, 8]))
    def test_rank_of_rows_matches_scalar(self, rows, n_sub):
        d = dist(n_ranks=17, join_cols=(1,), n_sub=n_sub)
        arr = np.asarray(rows, dtype=np.int64)
        vec = d.rank_of_rows(arr)
        for row, r in zip(rows, vec):
            assert d.rank_of(row) == int(r)

    @given(ROWS)
    def test_bucket_sub_of_rows_matches_scalar(self, rows):
        d = dist(n_ranks=13, join_cols=(0,), n_sub=4)
        arr = np.asarray(rows, dtype=np.int64)
        buckets, subs = d.bucket_sub_of_rows(arr)
        for row, b, s in zip(rows, buckets, subs):
            assert d.bucket_of(row) == int(b)
            assert d.sub_of(row) == int(s)

    @given(ROWS, st.sampled_from([(0,), (2, 0)]), st.data())
    def test_heavy_light_placement_matches_scalar(self, rows, join_cols, data):
        """With a heavy-key set, a heavy key's rows spread by their other
        columns and every light key's rows sit in their bucket's home
        cell, sub-bucket 0; the vectorized and scalar placements agree."""
        keys = sorted({tuple(row[c] for c in join_cols) for row in rows})
        heavy = tuple(data.draw(st.lists(st.sampled_from(keys), unique=True)))
        d = dist(n_ranks=13, join_cols=join_cols, n_sub=4, heavy=tuple(sorted(heavy)))
        paper = dist(n_ranks=13, join_cols=join_cols, n_sub=4)
        arr = np.asarray(rows, dtype=np.int64)
        buckets, subs = d.bucket_sub_of_rows(arr)
        is_heavy = d.heavy_rows(arr, join_cols)
        for row, b, s, h in zip(rows, buckets, subs, is_heavy):
            assert (d.bucket_of(row), d.sub_of(row)) == (int(b), int(s))
            key = tuple(row[c] for c in join_cols)
            assert bool(h) == (key in heavy)
            if key in heavy:
                assert d.sub_of(row) == paper.sub_of(row)
            else:
                assert d.sub_of(row) == 0
                assert d.rank_of(row) == d.owner(int(b), 0) == int(b)

    def test_no_heavy_set_is_the_paper_placement(self):
        rows = np.random.default_rng(1).integers(0, 50, size=(200, 3))
        paper, light = dist(n_sub=8), dist(n_sub=8, heavy=())
        assert paper.heavy_rows(rows, (0,)) is None
        assert not light.heavy_rows(rows, (0,)).any()
        assert light.rank_of_rows(rows).tolist() == light.buckets_of_key_rows(
            rows, (0,)
        ).tolist()
        all_heavy = dist(n_sub=8, heavy=tuple((k,) for k in range(50)))
        assert all_heavy.rank_of_rows(rows).tolist() == paper.rank_of_rows(rows).tolist()

    @given(ROWS)
    def test_ranks_of_bucket_subs_matches_owner(self, rows):
        d = dist(n_ranks=11, n_sub=5)
        arr = np.asarray(rows, dtype=np.int64)
        buckets, subs = d.bucket_sub_of_rows(arr)
        ranks = d.ranks_of_bucket_subs(buckets, subs)
        for b, s, r in zip(buckets, subs, ranks):
            assert d.owner(int(b), int(s)) == int(r)

    @pytest.mark.parametrize("variant", ["plain", "degraded", "resized"])
    def test_owner_table_matches_scalar(self, variant):
        """Every (bucket, sub) cell of the owner table is the scalar
        :meth:`~Distribution.owner`, and the distinct-owner mask marks
        each sub-bucket whose owner no lower sub-bucket shares."""
        d = dist(n_ranks=29, n_sub=6)
        if variant == "degraded":
            d = d.exclude_ranks([0, 3, 17])
        elif variant == "resized":
            d = d.exclude_ranks([5]).with_subbuckets(9)
        n_sub = d.schema.n_subbuckets
        assert d.owner_table.shape == (29, n_sub)
        for b in range(29):
            owners = [d.owner(b, s) for s in range(n_sub)]
            assert d.owner_table[b].tolist() == owners
            assert d.distinct_owners[b].tolist() == [
                owners[s] not in owners[:s] for s in range(n_sub)
            ]
        assert not set(d.owner_table.ravel().tolist()) & d.dead_ranks

    def test_empty_rows(self):
        d = dist()
        assert d.rank_of_rows(np.zeros((0, 3), dtype=np.int64)).size == 0

    def test_buckets_of_key_rows_matches_probe_semantics(self):
        """The send side's hash over probe columns must equal the bucket
        the inner relation's own tuples were placed by."""
        shared_seed = HashSeed()
        # inner: edge(m, t, w) keyed on column 0
        inner = dist(n_ranks=32, join_cols=(0,), seed=shared_seed)
        # outer tuples: spath(f, m, l); probe col = 1 (m)
        outer_rows = np.array([(9, 5, 1), (8, 5, 2), (7, 6, 3)], dtype=np.int64)
        got = inner.buckets_of_key_rows(outer_rows, (1,))
        assert got[0] == got[1] == inner.bucket_of((5, 0, 0))
        assert got[2] == inner.bucket_of((6, 0, 0))


class TestHeavyKeys:
    def test_threshold_is_more_than_m_over_p(self):
        rows = np.asarray(
            [(1, 0, 0)] * 5 + [(2, 0, 0)] * 3 + [(3, 0, 0)] * 2, dtype=np.int64
        )
        assert heavy_keys(rows, (0,), 4) == ((1,), (2,))  # m/p = 2.5
        assert heavy_keys(rows, (0,), 2) == ()  # 5 is not more than 5
        assert heavy_keys(rows[:0], (0,), 4) == ()
        assert heavy_keys(rows, (0, 1), 4) == ((1, 0), (2, 0))
        wide = rows * 10**12 - 7  # past the count-by-value path
        assert heavy_keys(wide, (0,), 4) == ((10**12 - 7,), (2 * 10**12 - 7,))

    def test_carried_by_resize_and_overlay(self):
        d = dist(n_ranks=8, n_sub=4, heavy=((3,),))
        for other in (d.with_subbuckets(8), d.exclude_ranks([2])):
            assert other.schema.heavy_keys == ((3,),)

    def test_key_width_checked(self):
        with pytest.raises(ValueError, match="heavy key"):
            dist(join_cols=(0, 1), heavy=((1,),))


class TestBalancing:
    def test_subbuckets_spread_hot_key(self):
        """A star graph's hub edges concentrate on one rank without
        sub-bucketing and spread across ~n_sub ranks with it."""
        hub_tuples = [(0, leaf, 1) for leaf in range(1, 2000)]
        arr = np.asarray(hub_tuples, dtype=np.int64)

        d1 = dist(n_ranks=64, n_sub=1)
        ranks1 = set(d1.rank_of_rows(arr).tolist())
        assert len(ranks1) == 1

        d8 = dist(n_ranks=64, n_sub=8)
        ranks8 = set(d8.rank_of_rows(arr).tolist())
        assert 4 <= len(ranks8) <= 8

        # Only a heavy hub spreads; a light one keeps one cell.
        heavy = heavy_keys(arr, (0,), 64)
        assert heavy == ((0,),)
        assert set(dist(n_ranks=64, n_sub=8, heavy=heavy).rank_of_rows(arr).tolist()) == ranks8
        assert len(set(dist(n_ranks=64, n_sub=8, heavy=()).rank_of_rows(arr).tolist())) == 1
