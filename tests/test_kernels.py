"""Tests for the columnar batch kernels.

The shards promise the semantics of absorbing one tuple at a time: the
property tests here drive them and a sequential reference model (nested
dicts, written below) with identical batch sequences and assert every
observable — admitted counts, iteration *order*, Δ lifecycle, version
blocks — matches exactly.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregators import (
    AnyAggregator,
    CountAggregator,
    MaxAggregator,
    MCountAggregator,
    MinAggregator,
    SumAggregator,
    UnionAggregator,
)
from repro import Engine
from repro.comm.boxes import BoxTable, Delivery
from repro.kernels import block, route
from repro.kernels.absorb import _COMBINERS, AbsorbStats, combine_block, make_shard
from repro.kernels.block import (
    KeyIndex,
    concat_ranges,
    group_columns,
    lex_group,
    segmented_scan,
)
from repro.kernels.join import RankJoinIndex
from repro.kernels.route import build_intra_sends, build_route_sends
from repro.planner.ast import Atom, BinOp, Const, Var
from repro.planner.compile_rules import EmitSpec
from repro.queries.sssp import sssp_program
from repro.relational.distribution import Distribution
from repro.relational.schema import Schema
from repro.relational.storage import VersionedRelation
from repro.runtime import executor as executor_mod
from repro.runtime.config import EngineConfig
from repro.util.hashing import HashSeed


# ----------------------------------------------------------- block primitives


class TestLexGroup:
    def test_groups_equal_rows(self):
        mat = np.array([[1, 2], [3, 4], [1, 2], [1, 2]], dtype=np.int64)
        order, starts, counts = lex_group(mat)
        groups = {}
        for g in range(len(starts)):
            idx = order[starts[g] : starts[g] + counts[g]]
            groups[tuple(mat[idx[0]])] = sorted(idx.tolist())
        assert groups == {(1, 2): [0, 2, 3], (3, 4): [1]}

    def test_empty(self):
        order, starts, counts = lex_group(np.empty((0, 3), dtype=np.int64))
        assert len(order) == len(starts) == len(counts) == 0

    def test_zero_columns_is_one_group(self):
        order, starts, counts = lex_group(np.empty((5, 0), dtype=np.int64))
        assert counts.tolist() == [5]
        assert order.tolist() == [0, 1, 2, 3, 4]

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            min_size=1,
            max_size=50,
        )
    )
    def test_stable_and_exhaustive(self, rows):
        """Every row lands in exactly one group; within a group the rows
        keep arrival order (stability — what absorb semantics rely on)."""
        mat = np.asarray(rows, dtype=np.int64)
        order, starts, counts = lex_group(mat)
        assert int(counts.sum()) == len(rows)
        assert sorted(order.tolist()) == list(range(len(rows)))
        for g in range(len(starts)):
            idx = order[starts[g] : starts[g] + counts[g]]
            vals = {tuple(mat[i]) for i in idx.tolist()}
            assert len(vals) == 1  # a group never mixes distinct keys
            assert idx.tolist() == sorted(idx.tolist())  # arrival order


def _lexsort_groups(cols):
    """``np.lexsort``'s stable ``(order, starts, counts)`` — the reference."""
    order = np.lexsort(tuple(cols[::-1]))
    n = order.shape[0]
    boundary = np.zeros(n - 1, dtype=bool)
    for col in cols:
        boundary |= col[order][1:] != col[order][:-1]
    starts = np.concatenate([[0], np.nonzero(boundary)[0] + 1])
    return order, starts, np.diff(np.append(starts, n))


def _group_and_tier(cols):
    """``group_columns(cols)`` and the tier that produced it."""
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as spy:
        got = group_columns(cols)
    return got, "lexsort" if spy.called else "value"


def _expected_tier(cols):
    """The 63-bit rule: packed key bits + row-index bits share one int64."""
    if any(int(col.min()) < 0 for col in cols):
        return "lexsort"
    bits = sum(int(col.max()).bit_length() for col in cols)
    bits += (cols[0].shape[0] - 1).bit_length()
    return "value" if bits <= 63 else "lexsort"


def _assert_groups_like_lexsort(cols, tier=None):
    want = _lexsort_groups(cols)
    got, ran = _group_and_tier(cols)
    assert ran == (tier or _expected_tier(cols))
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and np.array_equal(g, w)


_SIZES = sorted({1, 2} | {(1 << k) + d for k in range(1, 8) for d in (0, 1)})

#: (value strategy, dtype) per key column: all-zero, duplicate-heavy,
#: narrow dtypes (the packing shifts must happen in int64), wide and
#: negative values.
_COLUMN_KINDS = st.sampled_from(
    [
        (st.just(0), np.int64),
        (st.integers(0, 3), np.int64),
        (st.booleans(), np.bool_),
        (st.integers(0, 2**31 - 1), np.int32),
        (st.integers(-(2**31), 2**31 - 1), np.int32),
        (st.integers(0, 2**20), np.int64),
        (st.integers(0, 2**62), np.int64),
        (st.integers(-4, 4), np.int64),
        (st.integers(-(2**63), 2**63 - 1), np.int64),
    ]
)


@st.composite
def _key_columns(draw):
    n = draw(st.sampled_from(_SIZES))
    kinds = draw(st.lists(_COLUMN_KINDS, min_size=1, max_size=4))
    return [
        np.asarray(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)
        for values, dtype in kinds
    ]


class TestGroupColumns:
    """The packed (key, row index) value sort and the lexsort tier are one
    function: exactly ``np.lexsort``'s stable permutation and groups."""

    @given(_key_columns())
    @settings(max_examples=300, deadline=None)
    def test_equals_lexsort(self, cols):
        _assert_groups_like_lexsort(cols)

    @pytest.mark.parametrize("n", [1, 2, 64, 65])
    def test_negative_lone_column_takes_lexsort(self, n):
        col = np.arange(n, dtype=np.int64)[::-1] % 3 - 1
        _assert_groups_like_lexsort([col], tier="lexsort")

    def test_all_zero_columns_are_one_group(self):
        cols = [np.zeros(9, dtype=np.int64)] * 3
        (order, starts, counts), tier = _group_and_tier(cols)
        assert tier == "value"
        assert order.tolist() == list(range(9))
        assert (starts.tolist(), counts.tolist()) == ([0], [9])

    @pytest.mark.parametrize(
        "total,tier", [(62, "value"), (63, "value"), (64, "lexsort")]
    )
    @pytest.mark.parametrize("n", [2, 5, 64, 65])
    @pytest.mark.parametrize("n_cols", [1, 2, 3])
    def test_tier_boundary(self, total, tier, n, n_cols):
        """Key bits + index bits at 62, 63 and 64: the widest keys that
        still share a word with the row index, and the first that do not
        (every one of them packs into 63 bits on its own)."""
        key_bits = total - (n - 1).bit_length()
        widths = [key_bits // n_cols] * n_cols
        widths[0] += key_bits - sum(widths)
        rng = np.random.default_rng(total * n + n_cols)
        cols = []
        for w in widths:
            col = rng.integers(0, 1 << w, size=n, dtype=np.int64)
            col[rng.integers(n)] = (1 << w) - 1  # the width is exact
            cols.append(col)
        cols[-1][[0, n - 1]] = (1 << widths[-1]) - 1  # and one duplicate
        _assert_groups_like_lexsort(cols, tier=tier)

    def test_narrow_dtypes_shift_in_int64(self):
        big = np.asarray([2**28, 1, 2**28, 0, 1], dtype=np.int32)
        flag = np.asarray([True, False, True, True, False])
        for cols in ([big], [big, big], [flag, big, flag]):
            _assert_groups_like_lexsort(cols, tier="value")


_KEY_VALUES = st.one_of(
    st.integers(0, 5),
    st.sampled_from([-1, -(2**63), 2**62, 2**63 - 1]),
    st.integers(-(2**63), 2**63 - 1),
)


@st.composite
def _stored_and_queries(draw):
    """Distinct stored keys of 0-3 columns and queries that mix stored
    keys with arbitrary ones."""
    k = draw(st.integers(0, 3))
    key = st.tuples(*[_KEY_VALUES] * k)
    stored = draw(st.lists(key, unique=True, max_size=20))
    query = st.one_of(st.sampled_from(stored), key) if stored else key
    return k, stored, draw(st.lists(query, max_size=20))


def _find_and_tier(stored, queries, k):
    """``KeyIndex(stored).find(queries)`` and the tier that answered, in
    :func:`_expected_tier`'s names ("value" packed, "lexsort" wide)."""
    index = KeyIndex(np.asarray(stored, dtype=np.int64).reshape(len(stored), k))
    q = np.asarray(queries, dtype=np.int64).reshape(len(queries), k)
    with mock.patch.object(block, "group_columns", wraps=group_columns) as spy:
        got = index.find(q)
    assert got.dtype == np.int64 and got.shape == (len(queries),)
    return got.tolist(), "lexsort" if spy.called else "value"


def _assert_finds_like_dict(stored, queries, k, tier=None):
    oracle = {key: slot for slot, key in enumerate(stored)}
    got, ran = _find_and_tier(stored, queries, k)
    assert got == [oracle.get(tuple(q), -1) for q in queries]
    if tier is not None:
        assert ran == tier


class TestKeyIndex:
    """The exact key → slot map, in both tiers, against a dict."""

    @given(_stored_and_queries())
    @settings(max_examples=300, deadline=None)
    def test_matches_dict(self, case):
        k, stored, queries = case
        tier = None
        if stored and queries and k:
            cols = [np.asarray([s[c] for s in stored]) for c in range(k)]
            tier = _expected_tier(cols)
        _assert_finds_like_dict(stored, queries, k, tier)

    @pytest.mark.parametrize(
        "total,tier", [(62, "value"), (63, "value"), (64, "lexsort")]
    )
    @pytest.mark.parametrize("n", [2, 5, 64, 65])
    @pytest.mark.parametrize("n_cols", [1, 2, 3])
    def test_tier_boundary(self, total, tier, n, n_cols):
        """Key bits + slot bits at 62, 63 and 64, as for group_columns."""
        key_bits = total - (n - 1).bit_length()
        widths = [key_bits // n_cols] * n_cols
        widths[0] += key_bits - sum(widths)
        rng = np.random.default_rng(total * n + n_cols)
        stored = set()
        while len(stored) < n:
            row = [int(rng.integers(0, 1 << w, dtype=np.int64)) for w in widths]
            if not stored:
                row[0] = (1 << widths[0]) - 1  # the widths are exact
                row[-1] = (1 << widths[-1]) - 1
            stored.add(tuple(row))
        stored = sorted(stored, key=lambda _: rng.random())
        misses = [row[:-1] + (row[-1] ^ 1,) for row in stored]
        if widths[-1] < 63:  # one bit wider than the column stores
            misses += [row[:-1] + (1 << widths[-1],) for row in stored[:3]]
        _assert_finds_like_dict(stored, stored + misses, n_cols, tier)

    def test_empty_stored_keys(self):
        _assert_finds_like_dict([], [(0, 0), (-1, 5)], 2)

    def test_empty_queries(self):
        assert _find_and_tier([(1, 2)], [], 2)[0] == []
        assert _find_and_tier([(-1, 2)], [], 2)[0] == []

    def test_zero_key_columns_share_one_key(self):
        _assert_finds_like_dict([()], [(), ()], 0, "value")

    def test_queries_outside_a_column_width_miss(self):
        stored = [(0, 0), (1, 3), (3, 2)]
        queries = [(4, 0), (0, 4), (1, 7), (-1, 3), (1, -1), (2**63 - 1, 0)]
        _assert_finds_like_dict(stored, queries, 2, "value")

    def test_planted_alias_misses(self):
        """(0, 4) packed unmasked at widths (2, 2) is 0 << 2 | 4, the
        word of the stored key (1, 0)."""
        stored = [(1, 0), (3, 3)]
        assert (0 << 2) | 4 == (1 << 2) | 0
        _assert_finds_like_dict(stored, [(0, 4), (1, 0)], 2, "value")


class TestConcatRanges:
    def test_flattens_ranges_in_order(self):
        starts = np.array([5, 0, 7], dtype=np.int64)
        counts = np.array([2, 3, 0], dtype=np.int64)
        assert concat_ranges(starts, counts).tolist() == [5, 6, 0, 1, 2]

    def test_empty(self):
        z = np.empty(0, dtype=np.int64)
        assert concat_ranges(z, z).tolist() == []

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 5)),
            max_size=20,
        )
    )
    def test_matches_python_ranges(self, pairs):
        starts = np.asarray([p[0] for p in pairs], dtype=np.int64)
        counts = np.asarray([p[1] for p in pairs], dtype=np.int64)
        expected = [i for s, c in pairs for i in range(s, s + c)]
        assert concat_ranges(starts, counts).tolist() == expected


def _scan(segments, join=np.add):
    """segmented_scan over a list of per-segment value lists."""
    counts = np.asarray([len(seg) for seg in segments], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    vals = np.asarray(
        [v for seg in segments for v in seg], dtype=np.int64
    ).reshape(-1, 1)
    return segmented_scan(vals, starts, counts, join)[:, 0].tolist()


class TestSegmentedScan:
    def test_empty(self):
        assert _scan([]) == []

    def test_singletons_untouched(self):
        """No segment has a second row: nothing is ever joined, so even a
        join that rewrites its inputs leaves the raw values."""
        assert _scan([[5], [7], [9]], join=lambda a, b: a * 0) == [5, 7, 9]

    def test_one_segment(self):
        assert _scan([[1, 2, 3, 4, 5]]) == [1, 3, 6, 10, 15]

    def test_in_place(self):
        vals = np.asarray([[3], [1], [2]], dtype=np.int64)
        out = segmented_scan(
            vals, np.asarray([0]), np.asarray([3]), np.minimum
        )
        assert out is vals and vals[:, 0].tolist() == [3, 1, 1]

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=70), max_size=8
        ),
        st.sampled_from([np.add, np.minimum, np.maximum, np.bitwise_or]),
    )
    def test_equals_left_fold_per_segment(self, segments, join):
        """Ragged segments, past 64 rows: every position holds the Python
        left fold of its segment's prefix, and no segment leaks into the
        next."""
        expected = []
        for seg in segments:
            acc = seg[0]
            expected.append(acc)
            for v in seg[1:]:
                acc = int(join(acc, v))
                expected.append(acc)
        assert _scan(segments, join) == expected


# ------------------------------------------------------------------ EmitSpec


def _emit_spec(terms, binding):
    return EmitSpec(Atom("h", tuple(terms)), binding)


class TestEmitSpec:
    def test_arithmetic_matches_scalar(self):
        # h(X, L + W) with X, L from left and W from right.
        binding = {"x": (0, 0), "l": (0, 2), "w": (1, 2)}
        spec = _emit_spec([Var("x"), BinOp("+", Var("l"), Var("w"))], binding)
        lt = np.array([[1, 5, 10], [2, 6, 20]], dtype=np.int64)
        rt = np.array([[5, 9, 3], [6, 8, 4]], dtype=np.int64)
        assert spec.eval_block(lt, rt).tolist() == [[1, 13], [2, 24]]

    def test_const_broadcast(self):
        spec = _emit_spec([Var("x"), Const(7)], {"x": (0, 0)})
        lt = np.array([[4], [5]], dtype=np.int64)
        assert spec.eval_block(lt, None).tolist() == [[4, 7], [5, 7]]

    def test_min_max_ops(self):
        binding = {"a": (0, 0), "b": (1, 0)}
        spec = _emit_spec(
            [BinOp("min", Var("a"), Var("b")), BinOp("max", Var("a"), Var("b"))],
            binding,
        )
        lt = np.array([[3], [9]], dtype=np.int64)
        rt = np.array([[5], [2]], dtype=np.int64)
        assert spec.eval_block(lt, rt).tolist() == [[3, 5], [2, 9]]

    def test_floordiv_zero_denominator_raises(self):
        """Python raises on any zero divisor; the block kernel must too
        (numpy would silently yield 0)."""
        binding = {"a": (0, 0), "b": (0, 1)}
        spec = _emit_spec([BinOp("//", Var("a"), Var("b"))], binding)
        ok = np.array([[10, 2], [9, 3]], dtype=np.int64)
        assert spec.eval_block(ok, None).tolist() == [[5], [3]]
        bad = np.array([[10, 2], [9, 0]], dtype=np.int64)
        with pytest.raises(ZeroDivisionError):
            spec.eval_block(bad, None)

    def test_floordiv_zero_constant_raises(self):
        spec = _emit_spec(
            [BinOp("//", Var("a"), Const(0))], {"a": (0, 0)}
        )
        with pytest.raises(ZeroDivisionError):
            spec.eval_block(np.array([[10]], dtype=np.int64), None)

    def test_custom_op_array_form(self):
        """An operator registered via register_function runs its own
        function row by row, nested and beside constants, into int64."""
        import math

        from repro.planner.ast import register_function

        register_function("gcd", math.gcd)
        binding = {"a": (0, 0), "b": (0, 1)}
        spec = _emit_spec(
            [
                BinOp("gcd", Var("a"), Var("b")),
                BinOp("+", BinOp("gcd", Var("a"), Const(4)), Var("b")),
                BinOp("gcd", Const(12), Const(18)),
            ],
            binding,
        )
        out = spec.eval_block(np.array([[6, 4], [9, 6], [7, 0]], dtype=np.int64), None)
        assert out.dtype == np.int64
        assert out.tolist() == [[2, 6, 6], [3, 7, 6], [7, 1, 6]]
        empty = spec.eval_block(np.empty((0, 2), dtype=np.int64), None)
        assert empty.shape == (0, 3) and empty.dtype == np.int64

    def test_custom_op_term_is_int64(self):
        """A term's evaluator returns an int64 column, also for a custom
        operator, whose function returns Python objects: arithmetic
        around it then stays in int64 arrays."""
        import math

        from repro.planner.ast import register_function
        from repro.planner.compile_rules import _compile_term_block

        register_function("gcd", math.gcd)
        term = _compile_term_block(
            BinOp("gcd", Var("a"), Var("b")), {"a": (0, 0), "b": (0, 1)}
        )
        col = term(np.array([[6, 4], [9, 6]], dtype=np.int64), None)
        assert col.dtype == np.int64 and col.tolist() == [2, 3]


# ----------------------------------- shard ≡ sequential reference (nested dicts)


class _SequentialShard:
    """The reference: absorb one tuple at a time into nested dicts
    ``jk → other → tuple``.  A group's first arrival is stored raw, later
    ones are joined in with the aggregator's ``partial_agg``; an arrival
    that changes its group is admitted and (re)written into pending Δ."""

    def __init__(self, schema):
        self.schema = schema
        self.full, self.pending, self.delta = {}, {}, {}

    def absorb(self, rows):
        schema, n = self.schema, self.schema.n_indep
        admitted = 0
        for t in map(tuple, rows.tolist()):
            jk, other = schema.key_of(t), schema.other_of(t)
            group = self.full.setdefault(jk, {})
            cur = group.get(other)
            if cur is not None:
                if not schema.is_aggregate:
                    continue
                joined = tuple(schema.aggregator.partial_agg(cur[n:], t[n:]))
                if joined == cur[n:]:
                    continue
                t = cur[:n] + joined
            group[other] = t
            self.pending.setdefault(jk, {})[other] = t
            admitted += 1
        return admitted

    def advance(self):
        self.delta, self.pending = self.pending, {}
        return sum(len(group) for group in self.delta.values())

    def block(self, version):
        nested = self.full if version == "full" else self.delta
        rows = [t for group in nested.values() for t in group.values()]
        return np.asarray(rows, dtype=np.int64).reshape(-1, self.schema.arity)


def _assert_same_state(shard, model):
    for version in ("full", "delta"):
        got, want = shard.version_block(version), model.block(version)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def plain_schema():
    return Schema(name="p", arity=2, join_cols=(0,))


def agg_schema(agg):
    return Schema(name="a", arity=3, join_cols=(1,), n_dep=1, aggregator=agg)


SCHEMAS = {
    "plain": plain_schema,
    "min": lambda: agg_schema(MinAggregator()),
    "max": lambda: agg_schema(MaxAggregator()),
    "sum": lambda: agg_schema(SumAggregator()),
    "count": lambda: agg_schema(CountAggregator()),
    # ANY stores a group's first value raw and normalizes from the second
    # on; MCOUNT's bound sits inside the 0..9 value range so the clamp fires.
    "any": lambda: agg_schema(AnyAggregator()),
    "union": lambda: agg_schema(UnionAggregator()),
    "mcount": lambda: agg_schema(MCountAggregator(bound=6)),
}

#: Key-column values: a small domain (packed index tier) plus negative
#: values and values near +/-2**62 (the wide tier).
_WIDE_KEY = st.one_of(
    st.integers(0, 3), st.sampled_from([-1, -(2**62) - 1, 2**62 - 1, 2**62])
)

batches_strategy = st.lists(
    st.lists(
        st.tuples(_WIDE_KEY, _WIDE_KEY, st.integers(0, 9)),
        max_size=25,
    ),
    min_size=1,
    max_size=5,
)


def _rows(batch, arity):
    if not batch:
        return np.empty((0, arity), dtype=np.int64)
    return np.asarray([t[:arity] for t in batch], dtype=np.int64)


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
@given(batches=batches_strategy)
def test_columnar_absorb_equals_scalar(kind, batches):
    """Block absorb ≡ the sequential reference, including
    arrival-order-sensitive admitted counts, iteration ORDER (not just
    set equality), and the Δ lifecycle across multiple advances."""
    schema = SCHEMAS[kind]()
    model = _SequentialShard(schema)
    shard = make_shard(schema)
    for batch in batches:
        rows = _rows(batch, schema.arity)
        stats = AbsorbStats()
        admitted = model.absorb(rows)
        assert shard.absorb_block(rows, stats) == admitted
        assert (stats.received, stats.admitted, stats.suppressed) == (
            len(rows), admitted, len(rows) - admitted
        )
        assert shard.full_size() == len(model.block("full"))
        _assert_same_state(shard, model)
        assert shard.advance() == model.advance()
        assert shard.delta_size() == len(model.block("delta"))
        _assert_same_state(shard, model)


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
@given(batches=batches_strategy)
def test_columnar_duplicate_heavy_batches(kind, batches):
    """A two-key domain with every batch repeated eight times: nine rows
    on one key already exceed 64 occurrences of it, on new groups (first
    batch) and stored ones (every later batch) alike."""
    schema = SCHEMAS[kind]()
    model = _SequentialShard(schema)
    shard = make_shard(schema)
    for batch in batches:
        squeezed = [(0, a & 1, d) for (a, _, d) in batch] * 8
        rows = _rows(squeezed, schema.arity)
        assert shard.absorb_block(rows) == model.absorb(rows)
        _assert_same_state(shard, model)
        assert shard.advance() == model.advance()
        _assert_same_state(shard, model)


_i64 = st.integers(-(2**63), 2**63 - 1)


@pytest.mark.parametrize("agg_type", sorted(_COMBINERS, key=lambda t: t.__name__))
@given(a=_i64, b=_i64, c=_i64)
def test_vector_join_is_associative(agg_type, a, b, c):
    """The one precondition the segmented scan (and the sender's halving
    fold) adds to a sequential fold — over the full int64 range,
    wrap-around included."""
    join = _COMBINERS[agg_type](agg_type()).join
    a, b, c = (np.asarray([[v]], dtype=np.int64) for v in (a, b, c))
    np.testing.assert_array_equal(join(join(a, b), c), join(a, join(b, c)))


# ------------------------------------------------------------- RankJoinIndex


def _brute_probe(rel, version, rank, jk):
    out = []
    for _key, owner, block in rel.shard_blocks(version):
        if owner != rank:
            continue
        for row in block.tolist():
            if tuple(row[c] for c in rel.schema.join_cols) == jk:
                out.append(tuple(row))
    return out


@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 6) | st.sampled_from([-3, -(2**62), 2**62 - 1, 2**62]),
            st.integers(0, 6),
            st.integers(1, 9),
        ),
        min_size=1,
        max_size=60,
    ),
    n_ranks=st.sampled_from([1, 3, 7]),
)
def test_rank_join_index_probe_matches_brute_force(rows, n_ranks):
    schema = Schema(name="edge", arity=3, join_cols=(0,))
    rel = VersionedRelation(schema, n_ranks)
    rel.load([tuple(r) for r in rows])
    probe_cols = (0,)
    index = RankJoinIndex.build(rel, "full")
    keys = sorted({r[0] for r in rows})
    probe = np.asarray([(k, 0, 0) for k in keys], dtype=np.int64)
    for rank in range(n_ranks):
        ranks = np.full(len(keys), rank, dtype=np.int64)
        starts, counts = index.probe(ranks, probe, probe_cols)
        for i, k in enumerate(keys):
            got = [
                tuple(r)
                for r in index.rows[starts[i] : starts[i] + counts[i]].tolist()
            ]
            # The key fixes the bucket: every rank-local row with key k
            # is in k's bucket.
            assert got == _brute_probe(rel, "full", rank, (k,))
            assert all(
                rel.dist.bucket_of(t) == rel.dist.bucket_of_key((k,)) for t in got
            )


class _EvenLast:
    """A body atom's row filter: keeps rows whose last column is even."""

    def mask(self, rows):
        return rows[:, -1] % 2 == 0


def _ref_rank_index(rel, version, rank, match_block=None):
    """The per-rank index the relation-wide one replaced, as ``(rows,
    key index, starts, counts)``: the rank's rows — its shards in
    (bucket, sub) order, each in nested order — stably grouped by join
    key, each key's rows one ``[start, start + count)`` range."""
    blocks = [b for _key, owner, b in rel.shard_blocks(version) if owner == rank]
    rows = np.concatenate(blocks) if blocks else np.empty(
        (0, rel.schema.arity), dtype=np.int64
    )
    if match_block is not None and rows.shape[0]:
        rows = rows[match_block.mask(rows)]
    keymat = rows[:, list(rel.schema.join_cols)]
    order, starts, counts = lex_group(keymat)
    return rows[order], KeyIndex(keymat[order[starts]]), starts, counts


def _ref_probe(ref, probe, probe_cols):
    """Per probe row, the (start, count) of its matches in ``ref``."""
    _rows, keys, starts, counts = ref
    slot = keys.find(probe[:, list(probe_cols)])
    return np.append(starts, 0)[slot], np.append(counts, 0)[slot]


_KEYS = st.integers(-2, 3) | st.sampled_from([-(2**62), 2**62 - 1, 2**62])


@given(
    rows=st.lists(
        st.tuples(_KEYS, st.integers(0, 6), st.integers(0, 9)),
        min_size=0,
        max_size=80,
        unique=True,
    ),
    n_ranks=st.sampled_from([1, 3, 7, 64]),
    n_sub=st.sampled_from([1, 3, 8]),
    aggregate=st.booleans(),
    filtered=st.booleans(),
    version=st.sampled_from(["full", "delta"]),
    data=st.data(),
)
def test_join_index_matches_per_rank_indexes(
    rows, n_ranks, n_sub, aggregate, filtered, version, data
):
    """One index over the whole version returns, for every (rank, key),
    exactly the rows and the order the rank's own index returned — under
    sub-buckets, a degraded-mode overlay, a row filter, either version,
    and keys of both key-index tiers."""
    dead = set()
    if n_ranks > 1:
        dead = data.draw(st.sets(st.integers(0, n_ranks - 1), max_size=n_ranks - 1))
    _check_join_index(
        rows, n_ranks, n_sub, aggregate, filtered, version,
        data.draw(st.integers(0, len(rows))), dead,
        np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
    )


@pytest.mark.parametrize("n_ranks", [1, 3])
def test_join_index_orders_a_key_by_segment_then_arrival(n_ranks):
    """Dense fixed relations: a key's rows on one rank sit in several
    sub-bucket segments and arrive interleaved across them."""
    rng = np.random.default_rng(11)
    for _ in range(8):
        rows = [tuple(map(int, r)) for r in rng.integers(0, (3, 7, 10), (60, 3))]
        _check_join_index(rows, n_ranks, 8, False, False, "full", 30, set(), rng)


def _check_join_index(
    rows, n_ranks, n_sub, aggregate, filtered, version, cut, dead, rng
):
    """Assert :class:`RankJoinIndex` over a relation of ``rows`` (the
    first ``cut`` loaded and advanced first, ``dead`` ranks excluded)
    answers one probe of every (rank, key) pair, in ``rng``'s order, as
    each rank's own index (:func:`_ref_rank_index`) does: the rank's
    shards in (bucket, sub) order, each in nested order."""
    schema = Schema(
        name="rel", arity=3, join_cols=(0,), n_subbuckets=n_sub,
        **({"n_dep": 1, "aggregator": MinAggregator()} if aggregate else {}),
    )
    rel = VersionedRelation(schema, n_ranks)
    rel.load(rows[:cut])
    rel.advance()
    rel.load(rows[cut:])
    if version == "delta":
        rel.advance()
    if dead:
        rel.exclude_ranks(dead)
    match_block = _EvenLast() if filtered else None
    index = RankJoinIndex.build(rel, version, match_block)
    keys = sorted({r[0] for r in rows} | {7})  # 7 is never stored
    ranks = np.repeat(np.arange(n_ranks, dtype=np.int64), len(keys))
    probe = np.tile(np.asarray([(k, 1, 1) for k in keys], dtype=np.int64), (n_ranks, 1))
    perm = rng.permutation(ranks.shape[0])
    ranks, probe = ranks[perm], probe[perm]
    starts, counts = index.probe(ranks, probe, (0,))
    for rank in range(n_ranks):
        ref = _ref_rank_index(rel, version, rank, match_block)
        mine = ranks == rank
        ref_starts, ref_counts = _ref_probe(ref, probe[mine], (0,))
        np.testing.assert_array_equal(counts[mine], ref_counts)
        np.testing.assert_array_equal(
            index.rows[concat_ranges(starts[mine], counts[mine])],
            ref[0][concat_ranges(ref_starts, ref_counts)],
        )


def _ref_local_join(
    cr, outer_pos, delivery, inner_rel, inner_ver, probe_cols,
    per_rank_probe, per_rank_emit, fold=None,
):
    """The per-rank loop the run-wise join replaced: per receiving rank,
    its own index (:func:`_ref_rank_index`), one probe and one emission,
    folded as it is emitted past the pair budget."""
    inner_mb = cr.matches_block[1 - outer_pos]
    budget = executor_mod._PAIR_BUDGET
    emitted = {}
    for r, boxes in delivery.boxes():
        probe = delivery.table.rows_of(boxes)
        per_rank_probe[r] += probe.shape[0]
        ref = _ref_rank_index(inner_rel, inner_ver, r, inner_mb)
        starts, counts = _ref_probe(ref, probe, probe_cols)
        n_pairs = int(counts.sum())
        per_rank_emit[r] += n_pairs
        if not n_pairs:
            continue
        if fold is None or n_pairs <= budget:
            emitted[r] = executor_mod._emit_pairs(
                cr, outer_pos, probe, ref[0], 0, starts, counts
            )
            continue
        parts = [
            combine_block(
                executor_mod._emit_pairs(cr, outer_pos, probe, ref[0], lo, s, c),
                *fold,
            )
            for lo, s, c in executor_mod._pair_chunks(starts, counts, budget)
        ]
        emitted[r] = (
            np.concatenate([rows for rows, _ in parts]),
            np.concatenate([pre for _, pre in parts]),
        )
    return emitted


@given(
    n_ranks=st.sampled_from([1, 3, 7]),
    n_sub=st.sampled_from([1, 3]),
    edges=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 5)),
        max_size=60,
    ),
    boxes=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 12)),
        min_size=2,
        max_size=16,
    ),
    inner_ver=st.sampled_from(["full", "delta"]),
    fold=st.booleans(),
    chunk_rows=st.integers(4, 48),
    pair_budget=st.integers(1, 24),
    data=st.data(),
)
def test_local_join_matches_per_rank_loop(
    n_ranks, n_sub, edges, boxes, inner_ver, fold, chunk_rows, pair_budget, data
):
    """The run-wise local join on a random delivery — receivers in any
    order, one box delivered twice, small runs and a small pair budget so
    receivers share runs, fill runs alone and fold past the budget —
    emits what the per-rank loop emitted."""
    _check_local_join(
        n_ranks, n_sub, edges, boxes, inner_ver, fold, chunk_rows, pair_budget,
        np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
    )


@pytest.mark.parametrize("fold", [False, True])
def test_local_join_groups_like_per_rank_loop(fold):
    """Dense fixed deliveries: runs of several receivers, each run cut
    into several emission groups, folded receivers behind others."""
    rng = np.random.default_rng(7)
    for _ in range(8):
        edges = [tuple(map(int, e)) for e in rng.integers((0, 0, 1), (6, 6, 6), (40, 3))]
        boxes = [tuple(map(int, b)) for b in rng.integers(0, 13, (12, 3))]
        _check_local_join(3, 1, edges, boxes, "full", fold, 48, 3, rng)


def _check_local_join(
    n_ranks, n_sub, edges, boxes, inner_ver, fold, chunk_rows, pair_budget, rng
):
    """Assert the local join of a delivery of ``boxes`` (``(src, dst,
    n_rows)``, taken modulo the rank count and 13) against an SSSP edge
    relation equals :func:`_ref_local_join`'s: the same receivers in the
    same order, the same blocks and dtypes, the same tallies."""
    engine = Engine(
        sssp_program(), EngineConfig(n_ranks=n_ranks, subbuckets={"edge": n_sub})
    )
    half = len(edges) // 2
    engine.load("edge", edges[:half])
    engine.load("edge", edges[half:])
    cr = next(cr for cr in engine.compiled.compiled.values() if cr.is_join)
    assert cr.body_names == ("spath", "edge")
    src, dst, n_rows = (
        np.asarray(col, dtype=np.int64) % m
        for col, m in zip(zip(*boxes), (n_ranks, n_ranks, 13))
    )
    rows = rng.integers(0, 7, (int(n_rows.sum()), 3))
    table = BoxTable(src, dst, n_rows, rows=rows)
    # Receivers in a random order, each one's boxes shuffled, and one box
    # delivered twice.
    order = [
        rng.permutation(np.flatnonzero(dst == d))
        for d in rng.permutation(np.unique(dst))
    ]
    twice = int(rng.integers(len(order)))
    order[twice] = np.append(order[twice], order[twice][0])
    delivery = Delivery(table, np.concatenate(order))
    plan = engine._wire_plans["spath"] if fold else None
    args = (cr, 0, delivery, engine.store["edge"], inner_ver, cr.probe_from_left)
    got_tallies = [np.zeros(n_ranks, dtype=np.int64) for _ in range(2)]
    ref_tallies = [np.zeros(n_ranks, dtype=np.int64) for _ in range(2)]
    with mock.patch.object(executor_mod, "_CHUNK_ROWS", chunk_rows), \
            mock.patch.object(executor_mod, "_PAIR_BUDGET", pair_budget):
        got = executor_mod.ColumnarExecutor().local_join(*args, *got_tallies, plan)
        ref = _ref_local_join(*args, *ref_tallies, plan)
    assert list(got) == list(ref)
    for r, block in ref.items():
        if isinstance(block, tuple):
            assert isinstance(got[r], tuple)
            for a, b in zip(got[r], block):
                np.testing.assert_array_equal(a, b)
                assert a.dtype == b.dtype
        else:
            np.testing.assert_array_equal(got[r], block)
            assert got[r].dtype == block.dtype
    for a, b in zip(got_tallies, ref_tallies):
        np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------- route

def _ref_intra_sends(owner_blocks, dist, n_sub, probe_cols, per_rank_ser):
    """Intra-bucket replication one owner block at a time, with every
    owner read off the scalar ``Distribution.owner``: a row whose key is
    in the inner schema's heavy set (every key when it has none) goes to
    each distinct sub-bucket owner of its bucket, a light one to the
    bucket's home cell, the owner of sub-bucket 0."""
    heavy = dist.schema.heavy_keys
    sends = {}
    n_intra = 0
    for owner, rows in owner_blocks:
        n = rows.shape[0]
        if n == 0:
            continue
        buckets = dist.buckets_of_key_rows(rows, probe_cols).tolist()
        dst_mat = np.asarray(
            [[dist.owner(b, s) for b in buckets] for s in range(n_sub)],
            dtype=np.int64,
        ).reshape(n_sub, n)
        keep = np.ones(dst_mat.shape, dtype=bool)
        for s in range(1, n_sub):
            for p in range(s):
                keep[s] &= dst_mat[s] != dst_mat[p]
        for i, row in enumerate(rows.tolist()):
            key = tuple(row[c] for c in probe_cols)
            if n_sub > 1 and heavy is not None and key not in heavy:
                keep[1:, i] = False
        src_row = np.nonzero(keep.T)[0]
        dst = dst_mat.T[keep.T]
        order, starts, counts = group_columns([dst])
        dst_heads = dst[order[starts]]
        order = src_row[order]
        row_map = sends.setdefault(owner, {})
        for s0, c, d in zip(starts.tolist(), counts.tolist(), dst_heads.tolist()):
            row_map.setdefault(d, []).append(rows[order[s0 : s0 + c]])
        per_rank_ser[owner] += dst.shape[0]
        n_intra += dst.shape[0]
    return sends, n_intra


def _sends(table):
    """A table's boxes as a ``sends[src][dst] = [items]`` dict, in table
    order."""
    sends = {}
    for k, (src, dst) in enumerate(zip(table.src.tolist(), table.dst.tolist())):
        sends.setdefault(src, {}).setdefault(dst, []).append(table.item(k))
    return sends


@given(
    n_ranks=st.integers(1, 7),
    n_sub=st.sampled_from([1, 3, 8]),
    data=st.data(),
    budget=st.sampled_from([1, 5, route._CHUNK_ROWS]),
)
def test_batched_intra_sends_match_per_owner_model(n_ranks, n_sub, data, budget):
    """Replicating consecutive owners' blocks in one batch sends every
    ``(owner, dst)`` pair the same rows in the same order, with the same
    fan-out tallies, as replicating each block alone — batches split
    anywhere, under a dead-rank overlay too, with no heavy set (every key
    heavy), an empty one (every key light) or some heavy keys."""
    dead = data.draw(st.sets(st.integers(0, n_ranks - 1), max_size=n_ranks - 1))
    heavy = data.draw(st.none() | st.lists(
        st.integers(-5, 40), unique=True, max_size=6
    ).map(lambda keys: tuple((k,) for k in sorted(keys))))
    schema = Schema(
        name="inner", arity=3, join_cols=(0,), n_subbuckets=n_sub, heavy_keys=heavy
    )
    dist = Distribution(
        schema, n_ranks, HashSeed().derive(data.draw(st.integers(0, 9))), dead
    )
    probe_cols = data.draw(st.sampled_from([(0,), (2,)]))
    owner_blocks = [
        (owner, np.asarray(rows, dtype=np.int64).reshape(len(rows), 3))
        for owner, rows in data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n_ranks - 1),
                    st.lists(st.lists(st.integers(-5, 40), min_size=3, max_size=3),
                             max_size=12),
                ),
                max_size=8,
            )
        )
    ]
    want_ser = np.zeros(n_ranks, dtype=np.int64)
    want, want_n = _ref_intra_sends(owner_blocks, dist, n_sub, probe_cols, want_ser)
    got_ser = np.zeros(n_ranks, dtype=np.int64)
    with mock.patch.object(route, "_CHUNK_ROWS", budget):
        got, got_n = build_intra_sends(owner_blocks, dist, n_sub, probe_cols, got_ser)

    def flat(sends):
        return {
            (owner, dst): np.concatenate(blocks).tolist()
            for owner, per_dst in sends.items()
            for dst, blocks in per_dst.items()
        }

    assert flat(_sends(got)) == flat(want)
    assert got_n == want_n
    assert got_ser.tolist() == want_ser.tolist()


def test_build_route_sends_partitions_all_rows():
    schema = Schema(name="p", arity=2, join_cols=(0,))
    rel = VersionedRelation(schema, 4)
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 50, size=(200, 2), dtype=np.int64)
    table, n_comm, folded = build_route_sends({0: rows, 2: rows[:17]}, rel.dist)
    sends = _sends(table)
    assert n_comm == 217 and folded == {0: 0, 2: 0}
    for src, expect in ((0, rows), (2, rows[:17])):
        boxes = [box for row in sends[src].values() for box in row]
        got = np.vstack([b[1] for b in boxes])
        # Every row routed exactly once (multiset equality via sort).
        assert sorted(map(tuple, got.tolist())) == sorted(
            map(tuple, expect.tolist())
        )
        for dst, row_boxes in sends[src].items():
            for seg, blk in row_boxes:  # a box's header: its home segment
                b, s = divmod(seg, schema.n_subbuckets)
                bb, ss = rel.dist.bucket_sub_of_rows(blk)
                assert (bb == b).all() and (ss == s).all()
                assert rel.dist.owner(b, s) == dst
