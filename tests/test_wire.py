"""Tests for the wire-optimization layer (PR 7): codecs, sender-side
combining, collective autotuning, and the end-to-end invariant that the
layer changes modeled bytes/seconds but never results, Δ trajectories
or iteration counts."""

import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.comm.boxes import BoxTable, Delivery
from repro.comm.simcluster import SimCluster
from repro.comm.wire import WIRE_HEADER_WORDS, decode_blocks, decode_rows, encode_rows
from repro.core.aggregators import TupleAggregator, make_aggregator
from repro.kernels import absorb, route
from repro.kernels.absorb import combine_block, sender_fold_plan, vector_combiner
from repro.kernels.block import concat_ranges, group_columns, lex_group, offsets
from repro.planner.ast import MIN, EdbDecl, Program, Rel, vars_
from repro.queries.cc import cc_program, run_cc
from repro.queries.sssp import run_sssp, sssp_program
from repro.relational.distribution import Distribution
from repro.relational.schema import Schema
from repro.runtime import executor as executor_mod
from repro.runtime.config import DiagnosticsOptions, EngineConfig
from repro.util.hashing import HashSeed

I64 = np.iinfo(np.int64)


#: The two payload encodings: ``delta`` (wire on) and ``raw`` (the
#: reshard exchange with the wire off).
CODECS = ("raw", "delta")


def _cfg(wire=True, n_ranks=4, diagnostics=False, tracer=None, **kw):
    return EngineConfig(
        n_ranks=n_ranks, wire=wire,
        diagnostics=DiagnosticsOptions(enabled=diagnostics, tracer=tracer),
        **kw,
    )


rows_strategy = st.lists(
    st.lists(st.integers(I64.min, I64.max), min_size=3, max_size=3),
    min_size=0,
    max_size=40,
)


class TestWireConfig:
    def test_defaults_on(self):
        assert EngineConfig().wire is True

    def test_off_is_legacy(self, medium_weighted_graph):
        """Wire off: no fold plans and no encoding — every box travels as
        built, charged at its raw tuple size, and no wire tally is kept."""
        from repro.comm.simcluster import SimCluster

        with mock.patch.object(
            SimCluster, "alltoallv", autospec=True, side_effect=SimCluster.alltoallv
        ) as spy:
            result = run_sssp(medium_weighted_graph, [0, 5], _cfg(wire=False))
        assert spy.called
        for call in spy.call_args_list:
            table = call.args[1]
            assert table.nbytes is None  # charged at raw tuple size
            assert table.pre_rows is None  # no pre-combine accounting
            assert table.payload is None  # not encoded
        assert not any(k.startswith("wire_") for k in result.fixpoint.counters)
        engine = Engine(sssp_program(), _cfg(wire=False))
        assert engine._wire_plans == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(wire="delta")
        with pytest.raises(ValueError):
            EngineConfig(wire=1)


class TestCodecs:
    @pytest.mark.parametrize("codec", CODECS)
    @given(data=rows_strategy)
    @settings(max_examples=30)
    def test_round_trip_exact(self, codec, data):
        rows = np.asarray(data, dtype=np.int64).reshape(len(data), 3)
        payload = encode_rows(rows, codec)
        assert isinstance(payload, bytes)
        out = decode_rows(payload, rows.shape[0], 3, codec)
        assert out.dtype == np.int64
        assert np.array_equal(out, rows)
        out[:] = 0  # decoded blocks must be writable (frombuffer is not)

    @pytest.mark.parametrize("codec", CODECS)
    def test_empty_and_single(self, codec):
        empty = np.empty((0, 2), dtype=np.int64)
        # A delta box is framed even when empty: its row count, 0.
        payload = encode_rows(empty, codec)
        assert payload == (b"" if codec == "raw" else b"\x00")
        assert np.array_equal(decode_rows(payload, 0, 2, codec), empty)
        one = np.array([[I64.min, I64.max]], dtype=np.int64)
        assert np.array_equal(
            decode_rows(encode_rows(one, codec), 1, 2, codec), one
        )

    def test_delta_compresses_sorted_keys(self):
        keys = np.arange(10_000, dtype=np.int64).reshape(-1, 1)
        rows = np.hstack([keys, keys + 7])
        delta = encode_rows(rows, "delta")
        raw = encode_rows(rows, "raw")
        assert len(delta) < len(raw) / 4

    def test_unknown_codec_rejected(self):
        rows = np.zeros((1, 1), dtype=np.int64)
        for codec in ("gzip", "dict"):
            with pytest.raises(ValueError):
                encode_rows(rows, codec)
            with pytest.raises(ValueError):
                decode_rows(b"\x00" * 8, 1, 1, codec)

    def test_encoded_nbytes_includes_header(self):
        """A ``delta`` box is charged exactly its payload, frame included;
        a ``raw`` box its payload plus the header words it never writes."""
        rows = np.zeros((4, 2), dtype=np.int64)
        sends = BoxTable(np.zeros(1, np.int64), np.ones(1, np.int64),
                         np.asarray([4]), rows=rows)
        for codec, unwritten in (("delta", 0), ("raw", 8 * WIRE_HEADER_WORDS)):
            table = route.encode_wire_sends(sends, codec=codec)
            payload = encode_rows(rows, codec)
            assert table.byte_len.tolist() == [len(payload)]
            assert table.payload.tobytes() == payload
            assert table.nbytes.tolist() == [len(payload) + unwritten]


class TestCombineBlock:
    def test_plain_relation_dedups(self):
        rows = np.array(
            [[3, 1], [1, 2], [3, 1], [1, 2], [0, 9]], dtype=np.int64
        )
        out, counts = combine_block(rows, 2, None)
        assert np.array_equal(out, np.unique(rows, axis=0))
        assert counts.tolist() == [1, 2, 2]

    @given(
        keys=st.lists(st.integers(0, 5), min_size=1, max_size=60),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30)
    def test_min_fold_matches_sequential(self, keys, seed):
        """Folding each group with the lattice join must agree with the
        one-at-a-time fold over the same occurrence sequence."""
        rng = np.random.default_rng(seed)
        vals = rng.integers(-1000, 1000, size=len(keys))
        rows = np.column_stack([np.asarray(keys), vals]).astype(np.int64)
        comb = vector_combiner(make_aggregator("min"))
        out, counts = combine_block(rows, 1, comb)
        assert counts.tolist() == [keys.count(k) for k in sorted(set(keys))]
        expect = {}
        for k, v in zip(keys, vals):
            expect[k] = min(expect.get(k, v), v)
        got = {int(r[0]): int(r[1]) for r in out}
        assert got == expect
        assert np.array_equal(out[:, 0], np.sort(out[:, 0]))

    def test_combinable_registry(self):
        """SUM/COUNT folding is unsound (it changes Δ trajectories:
        a (+3, -3) box admits under wire-off but a folded 0 suppresses);
        the idempotent/clamped lattices are safe."""
        for name in ("min", "max", "any", "union", "mcount"):
            comb = vector_combiner(make_aggregator(name))
            assert comb is not None and comb.combinable, name
        for name in ("sum", "count"):
            comb = vector_combiner(make_aggregator(name))
            assert comb is not None and not comb.combinable, name


# --- per-box reference: the wire format as PR 7 wrote it, one box at a
# time (kept here as the oracle the segmented kernels must match).

def _ref_group(mat):
    """(order, starts, counts) by plain ``np.lexsort`` — no packed keys."""
    n = mat.shape[0]
    if mat.shape[1] == 0:
        return np.arange(n), np.zeros(1, np.int64), np.asarray([n])
    order = np.lexsort(tuple(mat[:, c] for c in range(mat.shape[1] - 1, -1, -1)))
    sorted_mat = mat[order]
    boundary = (sorted_mat[1:] != sorted_mat[:-1]).any(axis=1)
    starts = np.concatenate([[0], np.nonzero(boundary)[0] + 1]).astype(np.int64)
    return order, starts, np.diff(np.append(starts, n))


def _ref_combine_block(rows, n_indep, combiner):
    n = rows.shape[0]
    if n <= 1:
        return rows
    if combiner is None:
        return np.unique(rows, axis=0)
    indep = rows[:, :n_indep]
    order, starts, counts = _ref_group(indep)
    n_groups = starts.shape[0]
    vals = rows[:, n_indep:][order]
    if n_groups != n:
        pos = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
        while vals.shape[0] > n_groups:
            odd = (pos & 1) == 1
            idx = np.nonzero(odd)[0]
            vals[idx - 1] = combiner.join(vals[idx - 1], vals[idx])
            vals = vals[~odd]
            pos = pos[~odd] >> 1
    out = np.empty((n_groups, rows.shape[1]), dtype=np.int64)
    out[:, :n_indep] = indep[order[starts]]
    out[:, n_indep:] = vals
    return out


def _ref_varint(u):
    n = u.shape[0]
    nb = np.ones(n, np.int64)
    for k in range(1, 10):
        nb += u >= (np.uint64(1) << np.uint64(7 * k))
    starts = np.zeros(n, np.int64)
    np.cumsum(nb[:-1], out=starts[1:])
    out = np.zeros(int(starts[-1] + nb[-1]), np.uint8)
    for j in range(10):
        m = nb > j
        if not m.any():
            break
        byte = ((u[m] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(np.uint8)
        byte[nb[m] - 1 > j] |= np.uint8(0x80)
        out[starts[m] + j] = byte
    return out.tobytes()


def _ref_delta(rows):
    cols = np.ascontiguousarray(rows.T)
    d = np.empty_like(cols)
    d[:, 0] = cols[:, 0]
    d[:, 1:] = cols[:, 1:] - cols[:, :-1]
    d = d.ravel()
    return _ref_varint(
        (d.astype(np.uint64) << np.uint64(1))
        ^ (d >> np.int64(63)).astype(np.uint64)
    )


def _ref_encode_rows(rows, codec):
    if rows.size == 0:
        return b""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    if codec == "raw":
        return rows.astype("<i8", copy=False).tobytes()
    return _ref_delta(rows)


def _ref_frame(n_rows, words=()):
    """A box's frame: its row count, then its header words, plain LEB128."""
    return _ref_varint(np.asarray([n_rows, *words], dtype=np.uint64))


def _ref_payload(rows, codec, words=()):
    """A box's payload: ``raw`` is its rows' bytes; ``delta`` its frame,
    then the reference body (:func:`_ref_encode_rows`)."""
    body = _ref_encode_rows(rows, codec)
    return body if codec == "raw" else _ref_frame(rows.shape[0], words) + body


_wire_values = st.one_of(
    st.integers(0, 3),  # few distinct values: duplicate keys to fold
    st.integers(-5, 5),
    st.integers(I64.min, I64.max),
    st.sampled_from([I64.min, I64.max, -1, 2**31, 2**62]),
)


@st.composite
def _wire_boxes(draw):
    """(arity, boxes): 1–8 boxes of 0–12 rows, empty and one-row included."""
    arity = draw(st.integers(1, 4))
    row = st.lists(_wire_values, min_size=arity, max_size=arity)
    boxes = draw(st.lists(st.lists(row, max_size=12), min_size=1, max_size=8))
    return arity, [
        np.asarray(b, dtype=np.int64).reshape(len(b), arity) for b in boxes
    ]


#: The heads a sender folds: a plain relation (None) and every combinable
#: aggregate; the first four take the direct-addressed tier.
_FOLD_AGGS = (None, "min", "max", "union", "any", "mcount")
_DIRECT_AGGS = (None, "min", "max", "union")


def _ref_counts(rows, n_indep, weights):
    """Pre-fold count per distinct key: rows, or the sum of their weights."""
    order, starts, counts = _ref_group(rows[:, :n_indep])
    return counts if weights is None else np.add.reduceat(weights[order], starts)


def _takes_direct_tier(rows, n_indep, agg):
    """The direct fold's stated rule, restated on Python ints: a set fold
    or MIN/MAX/UNION, at least one key column, and a non-negative packed
    key of ``bits <= 62`` with ``1 << bits <= 4 n``."""
    keys = rows[:, :n_indep]
    if agg not in _DIRECT_AGGS or n_indep == 0 or (keys < 0).any():
        return False
    bits = sum(int(keys[:, c].max()).bit_length() for c in range(n_indep))
    return bits <= 62 and 1 << bits <= 4 * rows.shape[0]


@st.composite
def _fold_blocks(draw):
    """(rows, n_indep, weights): one block around the direct fold's density
    bound — a key column over [0, k) for k at n/4, n, 4n, 4n + 1 or 64n,
    its largest value present — behind an optional leading key column
    that is all zeros (0 bits), a small source id, negative, or over 62
    bits; then 1–3 dependent columns, extremes included."""
    n = draw(st.one_of(st.integers(2, 2000), st.sampled_from([2, 4, 64, 512, 1024])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.sampled_from([max(n // 4, 1), n, 4 * n, 4 * n + 1, 64 * n]))
    key = rng.integers(0, k, n)
    key[rng.integers(n)] = k - 1
    cols = [key]
    lead = draw(st.sampled_from([None, "zero", "source", "negative", "wide"]))
    if lead == "zero":
        cols.insert(0, np.zeros(n, dtype=np.int64))
    elif lead == "source":
        cols.insert(0, rng.integers(0, 4, n))
    elif lead == "negative":
        cols.insert(0, rng.integers(-2, 2, n))
        cols[0][rng.integers(n)] = -1
    elif lead == "wide":
        cols.insert(0, rng.integers(0, 2, n) << 62)
        cols[0][rng.integers(n)] = 1 << 62
    n_dep = draw(st.integers(1, 3))
    extremes = np.asarray([I64.min, I64.max, -1, 0, 2**62], dtype=np.int64)
    vals = np.where(
        rng.random((n, n_dep)) < 0.1,
        rng.choice(extremes, (n, n_dep)),
        rng.integers(-1000, 1000, (n, n_dep)),
    )
    rows = np.column_stack(cols + [vals]).astype(np.int64)
    weights = rng.integers(1, 1000, n) if draw(st.booleans()) else None
    return rows, len(cols), weights


class TestBatchedKernels:
    """The one-block fold and the chunked codec pass must equal the
    per-box reference byte for byte, whatever the chunking."""

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("agg", (None, "min", "max", "sum"))
    @given(case=_wire_boxes(), data=st.data())
    def test_encode_matches_reference_and_round_trips(self, codec, agg, case, data):
        arity, boxes = case
        n_indep = data.draw(st.integers(0, arity))
        # Budgets from 1 row up: boxes straddle a chunk, exceed one, or
        # all share one.
        budget = data.draw(st.sampled_from([1, 3, 7, 20, 1 << 16]))
        combiner = None if agg is None else vector_combiner(make_aggregator(agg))
        expect_rows = [_ref_combine_block(b.copy(), n_indep, combiner) for b in boxes]
        expect = [_ref_payload(r, codec) for r in expect_rows]
        folded = [combine_block(b, n_indep, combiner) for b in boxes]
        for b, (got, counts), want in zip(boxes, folded, expect_rows):
            assert np.array_equal(got, want)
            assert counts.shape[0] == want.shape[0] and counts.sum() == b.shape[0]
        with mock.patch.object(route, "_CHUNK_ROWS", budget):
            table = route.encode_wire_sends(
                _table_of([rows for rows, _counts in folded], arity), codec=codec
            )
            runs = route.decode_wire_boxes(
                Delivery(table, np.arange(len(table))), arity, codec
            )
        assert [table.item(k)[1] for k in range(len(table))] == expect
        delivered = np.concatenate([b for b, _rows, _h in runs])
        assert delivered.tolist() == list(range(len(table)))
        decoded = np.concatenate([rows for _b, rows, _h in runs])
        assert decoded.dtype == np.int64
        assert np.array_equal(decoded, np.concatenate(expect_rows))
        for _b, rows, header in runs:
            assert header is None  # nothing framed beyond the row counts
            rows[:] = 0  # decoded blocks must be writable
        # The single-box entry point is the same kernel, batch of one.
        for want_rows, want in zip(expect_rows, expect):
            assert encode_rows(want_rows, codec) == want

    @pytest.mark.parametrize("agg", (None, "min", "max", "any", "union", "mcount"))
    @given(case=_wire_boxes(), data=st.data())
    def test_fold_of_chunk_folds_is_the_fold(self, agg, case, data):
        """Folding a block in arbitrary chunks (the drawn boxes, empty ones
        included) and merging the chunk folds with their counts carried
        returns exactly one fold of the whole block — what lets the local
        join fold as it emits."""
        arity, chunks = case
        n_indep = data.draw(st.integers(0, arity))
        combiner = None if agg is None else vector_combiner(make_aggregator(agg))
        whole = np.concatenate(chunks)
        want_rows, want_counts = combine_block(whole, n_indep, combiner)
        assert np.array_equal(
            want_rows, _ref_combine_block(whole.copy(), n_indep, combiner)
        )
        parts = [combine_block(chunk, n_indep, combiner) for chunk in chunks]
        got_rows, got_counts = combine_block(
            np.concatenate([rows for rows, _ in parts]),
            n_indep,
            combiner,
            np.concatenate([counts for _, counts in parts]),
        )
        assert np.array_equal(got_rows, want_rows)
        assert np.array_equal(got_counts, want_counts)

    @pytest.mark.parametrize("agg", _FOLD_AGGS)
    @given(case=_fold_blocks())
    def test_direct_fold_equals_the_sort_path(self, agg, case):
        """The direct-addressed tier runs exactly where its rule says (the
        sort path's helper is called otherwise) and returns the reference
        fold's rows, counts and dtypes; a block that went through pickle
        folds to the same bytes."""
        rows, n_indep, weights = case
        combiner = None
        if agg is None:  # a plain relation's key is the whole row
            rows = np.ascontiguousarray(rows[:, :n_indep])
        else:
            combiner = vector_combiner(make_aggregator(agg))
        with mock.patch.object(
            absorb, "_fold_sorted", wraps=absorb._fold_sorted
        ) as sort_path:
            got_rows, got_counts = combine_block(rows, n_indep, combiner, weights)
        assert sort_path.called != _takes_direct_tier(rows, n_indep, agg)
        assert got_rows.dtype == np.int64 and got_counts.dtype == np.int64
        assert np.array_equal(
            got_rows, _ref_combine_block(rows.copy(), n_indep, combiner)
        )
        assert np.array_equal(got_counts, _ref_counts(rows, n_indep, weights))
        again_rows, again_counts = combine_block(
            pickle.loads(pickle.dumps(rows)), n_indep, combiner, weights
        )
        assert np.array_equal(again_rows, got_rows)
        assert np.array_equal(again_counts, got_counts)

    @pytest.mark.parametrize(
        "agg, keys, direct",
        [
            ("min", range(256), True),  # 8 bits, 256 slots <= 4 x 256 rows
            ("min", [1023] * 256, True),  # 10 bits: 1,024 slots, at the bound
            ("max", [1024] * 256, False),  # 11 bits: 2,048 slots, over it
            ("union", [0] * 256, True),  # a 0-bit key: one slot
            (None, range(256), True),
            ("any", range(256), False),  # not a ufunc join
            ("mcount", range(256), False),
            ("min", [-1] * 256, False),  # a negative key reads as 64 bits
            ("min", [1 << 62] * 256, False),  # 63 bits
        ],
    )
    def test_direct_tier_boundary(self, agg, keys, direct):
        keys = np.asarray(keys, dtype=np.int64)[:, None]
        combiner = None
        if agg is not None:
            combiner = vector_combiner(make_aggregator(agg))
            keys = np.column_stack([keys, np.arange(256)[::-1]])
        with mock.patch.object(
            absorb, "_fold_sorted", wraps=absorb._fold_sorted
        ) as sort_path:
            got_rows, got_counts = combine_block(keys, 1, combiner)
        assert sort_path.called != direct
        assert np.array_equal(got_rows, _ref_combine_block(keys.copy(), 1, combiner))
        assert np.array_equal(got_counts, _ref_counts(keys, 1, None))

    @pytest.mark.parametrize("codec", CODECS)
    @given(case=_wire_boxes(), dup=st.integers(0, 7), budget=st.sampled_from([1, 5, 1 << 16]))
    @settings(max_examples=25, deadline=None)
    def test_inbox_with_duplicated_box(self, codec, case, dup, budget):
        """A fault-plane ``dup`` delivers a box twice, adjacent to its
        original; the inbox decode returns both copies."""
        arity, boxes = case
        table = _wire_table([_ref_payload(b, codec) for b in boxes], boxes)
        dup %= len(boxes)
        order = np.insert(np.arange(len(boxes)), dup, dup)
        boxes = boxes[:dup] + [boxes[dup]] + boxes[dup:]
        with mock.patch.object(route, "_CHUNK_ROWS", budget):
            out = route.decode_wire_boxes(Delivery(table, order), arity, codec)
        assert np.concatenate([b for b, _rows, _h in out]).tolist() == order.tolist()
        assert np.array_equal(
            np.concatenate([rows for _b, rows, _h in out]), np.concatenate(boxes)
        )
        assert np.array_equal(
            route.decode_wire_box(table, order[dup : dup + 1], arity, codec)[0],
            boxes[dup],
        )

    def test_box_boundary_mismatch_rejected(self):
        """Row counts that disagree with the payloads must not decode."""
        a = np.array([[1, 2], [3, 4]], dtype=np.int64)
        b = np.array([[5, 6]], dtype=np.int64)
        for codec in ("raw", "delta"):
            table = _wire_table(
                [encode_rows(a, codec), encode_rows(b, codec)], [b, a]
            )
            with pytest.raises(ValueError):
                route.decode_wire_box(table, np.arange(2), 2, codec)

    @given(
        cols=st.integers(1, 4).flatmap(
            lambda k: st.lists(
                st.lists(
                    st.one_of(
                        st.integers(0, 3),
                        st.integers(0, 2**20),
                        st.integers(-4, 4),
                        st.sampled_from([I64.min, I64.max, 2**40, 2**62]),
                    ),
                    min_size=k, max_size=k,
                ),
                min_size=1, max_size=40,
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_packed_sort_equals_lexsort(self, cols):
        """One packed-key argsort (non-negative keys within 63 bits) and
        the lexsort fallback (negatives, overflow) give the same stable
        permutation and groups as plain ``np.lexsort``."""
        mat = np.asarray(cols, dtype=np.int64)
        want = _ref_group(mat)
        for got in (
            lex_group(mat),
            group_columns([mat[:, c] for c in range(mat.shape[1])]),
        ):
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


#: Header words at the edges of the varint widths, up to the largest.
_FRAME_WORDS = st.one_of(
    st.sampled_from([0, 127, 128, 16383, 16384, 2**32, I64.max]),
    st.integers(0, I64.max),
)


class TestFrame:
    """A ``delta`` payload is its box's frame — row count, then header
    words, plain LEB128 — followed by exactly the reference body of the box;
    the receiver reads the words back from the frame, and rejects a frame
    or a box boundary that disagrees with the table's row counts."""

    @given(case=_wire_boxes(), data=st.data())
    def test_frame_then_the_reference_body(self, case, data):
        """…for every box rank 0 sends rank 1; its self-sends skip the
        codec, and their rows and words come off the table."""
        arity, boxes = case
        width = data.draw(st.integers(0, 2))
        words = np.asarray(
            data.draw(st.lists(
                st.lists(_FRAME_WORDS, min_size=width, max_size=width),
                min_size=len(boxes), max_size=len(boxes),
            )),
            dtype=np.int64,
        ).reshape(len(boxes), width)
        wired = np.asarray(data.draw(st.lists(
            st.booleans(), min_size=len(boxes), max_size=len(boxes)
        )))
        budget = data.draw(st.sampled_from([1, 3, 7, 20, 1 << 16]))
        header = words if width else None
        sends = _table_of(boxes, arity, header)
        sends.dst = wired.astype(np.int64)
        with mock.patch.object(route, "_CHUNK_ROWS", budget):
            table = route.encode_wire_sends(sends, codec="delta")
            # The receiver has the sender's words for its own boxes only.
            received = BoxTable(
                table.src, table.dst, table.n_rows,
                header=None if header is None else np.where(wired[:, None], -1, words),
                rows=table.rows, payload=table.payload, byte_len=table.byte_len,
            )
            runs = route.decode_wire_boxes(
                Delivery(received, np.arange(len(table))), arity, "delta"
            )
        payloads = [
            _ref_frame(b.shape[0], w) + _ref_encode_rows(b, "delta")
            for b, w in zip(boxes, words.tolist())
        ]
        assert table.payload.tobytes() == b"".join(
            p for p, sent in zip(payloads, wired) if sent
        )
        assert table.byte_len.tolist() == [
            len(p) if sent else 0 for p, sent in zip(payloads, wired)
        ]
        assert np.array_equal(table.nbytes, table.byte_len)
        assert np.array_equal(
            np.concatenate([rows for _b, rows, _h in runs]), np.concatenate(boxes)
        )
        if width:
            assert np.array_equal(np.concatenate([h for _b, _r, h in runs]), words)

    @given(case=_wire_boxes(), data=st.data())
    def test_a_frame_off_by_one_or_a_truncated_box_is_rejected(self, case, data):
        """…and so are byte lengths that split the stream elsewhere."""
        arity, boxes = case
        k = data.draw(st.integers(0, len(boxes) - 1))
        payloads = [_ref_payload(b, "delta") for b in boxes]
        n = boxes[k].shape[0]
        off = data.draw(st.sampled_from([-1, 1] if n else [1]))
        bad_frame = list(payloads)
        bad_frame[k] = _ref_frame(n + off) + _ref_encode_rows(boxes[k], "delta")
        truncated = list(payloads)
        truncated[k] = payloads[k][:-1]
        bad = [_wire_table(bad_frame, boxes), _wire_table(truncated, boxes)]
        if len(boxes) > 1:
            moved = _wire_table(payloads, boxes)
            j = (k + 1) % len(boxes)
            moved.byte_len[k] -= 1  # one byte of box k counted as box j's
            moved.byte_len[j] += 1
            moved.byte_lo = offsets(moved.byte_len)[:-1]
            bad.append(moved)
        for table in bad:
            with pytest.raises(ValueError):
                route.decode_wire_box(table, np.arange(len(boxes)), arity, "delta")
        rows, _header = route.decode_wire_box(
            _wire_table(payloads, boxes), np.arange(len(boxes)), arity, "delta"
        )
        assert np.array_equal(rows, np.concatenate(boxes))


def _ref_wire_boxes(src, rows, dist, plan, codec):
    """Source ``src``'s ``(dst, segment, n_rows, pre_rows, payload)``
    tuples and fold count the way PR 7 produced them: box first, then
    fold and encode each box on its own, framed with its segment — a
    self-send's rows as they are."""
    b_arr, s_arr = dist.bucket_sub_of_rows(rows)
    by_shard = {}
    for i, shard in enumerate(zip(b_arr.tolist(), s_arr.tolist())):
        by_shard.setdefault(shard, []).append(i)
    per_dst, n_folded = {}, 0
    for b, s in sorted(by_shard):
        block = rows[by_shard[b, s]]
        pre = block.shape[0]
        if plan is not None and pre > 1:
            block = _ref_combine_block(block.copy(), *plan)
            n_folded += pre
        dst = dist.owner(b, s)
        seg = b * dist.schema.n_subbuckets + s
        per_dst.setdefault(dst, []).append((
            seg, block.shape[0], pre,
            block.tolist() if dst == src else _ref_payload(block, codec, (seg,)),
        ))
    return [(dst, *box) for dst, boxes in per_dst.items() for box in boxes], n_folded


@st.composite
def _emitted_heads(draw):
    """(emitted blocks per source, head placement, sender fold plan)."""
    arity = draw(st.integers(1, 4))
    agg = draw(st.sampled_from(
        [None, "min", "max", "any", "union", "mcount", "sum", "count"]
    ))
    # A plain head's key is the whole row.
    n_indep = arity if agg is None else draw(st.integers(0, arity))
    n_dep = arity - n_indep
    aggregator = None
    if n_dep:
        aggregator = make_aggregator(agg)
        if n_dep > 1:  # the vector joins are elementwise over any width
            aggregator = TupleAggregator([aggregator] * n_dep)
    join_cols = draw(st.lists(st.integers(0, max(n_indep - 1, 0)), unique=True,
                              max_size=n_indep))
    schema = Schema(
        "head", arity, tuple(join_cols), n_dep, aggregator,
        n_subbuckets=draw(st.sampled_from([1, 3, 8])),
    )
    n_ranks = draw(st.integers(1, 8))
    dead = draw(st.sets(st.integers(0, n_ranks - 1), max_size=n_ranks - 1))
    dist = Distribution(schema, n_ranks, HashSeed().derive(draw(st.integers(0, 9))), dead)
    plan = None
    if agg is None:
        plan = sender_fold_plan(schema)
    elif vector_combiner(make_aggregator(agg)).combinable:
        plan = (n_indep, vector_combiner(make_aggregator(agg)))
    row = st.lists(_wire_values, min_size=arity, max_size=arity)
    emitted = {
        src: np.asarray(block, dtype=np.int64).reshape(len(block), arity)
        for src, block in draw(
            st.dictionaries(st.integers(0, n_ranks - 1), st.lists(row, max_size=30))
        ).items()
    }
    if draw(st.booleans()):
        # A long block over a narrow key domain (keys in [0, 8)), so the
        # sender fold crosses into its direct-addressed tier.
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(32, 300))
        block = rng.integers(-1000, 1000, (n, arity))
        block[:, :n_indep] = rng.integers(0, 8, (n, n_indep))
        emitted[draw(st.integers(0, n_ranks - 1))] = block
    return emitted, dist, plan


def _fold_in_runs(rows, plan, budget):
    """What the folding local join hands on: ``rows`` folded in runs of
    ``budget`` rows, the runs' folds and pre-fold counts concatenated."""
    parts = [
        combine_block(rows[lo : lo + budget], *plan)
        for lo in range(0, max(rows.shape[0], 1), budget)
    ]
    return (
        np.concatenate([run for run, _ in parts]),
        np.concatenate([counts for _, counts in parts]),
    )


def _flat_wire(table):
    """A table's boxes as ``{src: [(dst, *item), …]}``, each source's
    destinations in order of their first box, rows as lists."""
    sends = {}
    for k, key in enumerate(zip(table.src.tolist(), table.dst.tolist())):
        src, dst = key
        item = tuple(
            x.tolist() if isinstance(x, np.ndarray) else x for x in table.item(k)
        )
        sends.setdefault(src, {}).setdefault(dst, []).append(item)
    return {
        src: [(dst, *box) for dst, boxes in per_dst.items() for box in boxes]
        for src, per_dst in sends.items()
    }


def _table_of(blocks, arity, header=None):
    """Rank 0's boxes to rank 1, one per row block."""
    n = np.asarray([b.shape[0] for b in blocks], dtype=np.int64)
    zeros = np.zeros(len(blocks), dtype=np.int64)
    rows = np.concatenate(blocks) if blocks else np.zeros((0, arity), np.int64)
    return BoxTable(zeros, zeros + 1, n, header=header, rows=rows.reshape(-1, arity))


def _wire_table(payloads, blocks):
    """Rank 0's encoded boxes to rank 1: ``payloads`` standing for ``blocks``."""
    zeros = np.zeros(len(payloads), dtype=np.int64)
    return BoxTable(
        zeros, zeros + 1, np.asarray([b.shape[0] for b in blocks], dtype=np.int64),
        payload=np.frombuffer(b"".join(payloads), np.uint8),
        byte_len=np.asarray([len(p) for p in payloads], dtype=np.int64),
    )


class TestFoldBeforeRoute:
    """Folding a source's block per independent key *before* it is hashed
    and boxed leaves every wire box byte-identical to boxing first and
    folding each box on its own — a key belongs to exactly one box."""

    @pytest.mark.parametrize("codec", CODECS)
    @given(
        case=_emitted_heads(),
        budget=st.sampled_from([1, 5, route._CHUNK_ROWS]),
        pair_budget=st.sampled_from([1, 2, 7, 1 << 18]),
    )
    @settings(max_examples=120, deadline=None)
    def test_wire_boxes_identical_to_per_box_fold(
        self, codec, case, budget, pair_budget
    ):
        """…and so does handing the route step a block the local join
        folded in runs of ``pair_budget`` pairs, with its pre-fold counts
        — for every source, or for every other one.  The row budget makes
        the route step fold and box up to 8 sources at once, a source
        over it alone."""
        emitted, dist, plan = case
        want = {
            src: _ref_wire_boxes(src, rows, dist, plan, codec)
            for src, rows in emitted.items()
            if rows.shape[0]
        }
        runs = [emitted]
        if plan is not None:
            for every in (1, 2):
                runs.append({
                    src: _fold_in_runs(rows, plan, pair_budget)
                    if i % every == 0 else rows
                    for i, (src, rows) in enumerate(emitted.items())
                })
        for blocks in runs:
            with mock.patch.object(route, "_CHUNK_ROWS", budget):
                sends, n_comm, folded = route.build_route_sends(
                    blocks, dist, True, plan
                )
                got = _flat_wire(route.encode_wire_sends(sends, codec=codec))
            assert n_comm == sum(rows.shape[0] for rows in emitted.values())
            assert got == {src: boxes for src, (boxes, _n) in want.items()}
            assert folded == {src: n for src, (_boxes, n) in want.items()}

    def test_non_combinable_heads_have_no_plan(self):
        for name in ("sum", "count"):
            schema = Schema("h", 2, (0,), 1, make_aggregator(name))
            assert sender_fold_plan(schema) is None

    # One value left on this axis (the fold is on whenever the wire is);
    # the id is the one the two-value axis gave it.
    @pytest.mark.parametrize("wire", [False], ids=["wire0"])
    def test_no_fold_reaches_the_route_step(self, wire, medium_weighted_graph):
        from repro.runtime import engine as engine_mod

        with mock.patch.object(
            engine_mod, "build_route_sends", wraps=route.build_route_sends
        ) as spy:
            run_sssp(medium_weighted_graph, [0, 5], _cfg(wire=wire))
        assert spy.call_count
        assert all(call.args[3] is None for call in spy.call_args_list)

    @given(
        counts=st.lists(st.integers(0, 9), min_size=1, max_size=30),
        budget=st.integers(1, 12),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_pair_chunks_cover_every_pair_once(self, counts, budget, data):
        """The folding join's runs split a probe's pairs in emission order
        — a probe row with more matches than the budget across several
        runs — each run ``budget`` pairs but the last."""
        counts = np.asarray(counts, dtype=np.int64)
        assume(counts.sum() > 0)
        starts = np.asarray(
            data.draw(st.lists(st.integers(0, 50), min_size=len(counts),
                               max_size=len(counts))),
            dtype=np.int64,
        )
        outer, inner, sizes = [], [], []
        for lo, run_starts, run_counts in executor_mod._pair_chunks(
            starts, counts, budget
        ):
            assert (run_counts >= 0).all()
            outer.append(np.repeat(np.arange(lo, lo + run_counts.shape[0]), run_counts))
            inner.append(concat_ranges(run_starts, run_counts))
            sizes.append(int(run_counts.sum()))
        assert np.array_equal(
            np.concatenate(outer), np.repeat(np.arange(counts.shape[0]), counts)
        )
        assert np.array_equal(np.concatenate(inner), concat_ranges(starts, counts))
        assert sizes[:-1] == [budget] * (len(sizes) - 1)
        assert 0 < sizes[-1] <= budget

    def test_folding_join_peak_memory_is_bounded_by_the_pair_budget(self):
        """A 2M-pair probe onto a MIN head never holds its emitted block:
        the join's traced peak stays a small multiple of one run's rows."""
        engine = Engine(sssp_program(), EngineConfig(n_ranks=1))
        # One hub with 2,000 out-edges (500 targets x 4 weights), probed by
        # 1,000 paths from 4 sources: 2M pairs onto 2,000 (source, target)
        # keys, each reached 1,000 times.
        engine.load("edge", [(0, t, w) for t in range(500) for w in range(1, 5)])
        cr = next(cr for cr in engine.compiled.compiled.values() if cr.is_join)
        assert cr.body_names == ("spath", "edge")
        probe = np.asarray([(s % 4, 0, s) for s in range(1000)], dtype=np.int64)
        plan = engine._wire_plans["spath"]
        per_rank_emit = np.zeros(1, dtype=np.int64)
        # All 1,000 probes in one box delivered to rank 0.
        delivery = Delivery(
            BoxTable(np.zeros(1, np.int64), np.zeros(1, np.int64),
                     np.asarray([probe.shape[0]]), rows=probe),
            np.zeros(1, dtype=np.int64),
        )
        no_home = np.zeros((0, 3), dtype=np.int64)
        tracemalloc.start()
        try:
            emitted = executor_mod.ColumnarExecutor().local_join(
                cr, 0, no_home, np.zeros(2, dtype=np.int64), delivery,
                engine.store["edge"], "full",
                cr.probe_from_left, np.zeros(1, dtype=np.int64), per_rank_emit,
                plan,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert per_rank_emit.tolist() == [2_000_000]
        # The unfolded path peaks at ~24x this; the folding one at ~3.4x.
        assert peak < 6 * executor_mod._PAIR_BUDGET * 3 * 8
        run_folds, run_counts = emitted[0]
        rows, counts = combine_block(run_folds, *plan, run_counts)
        # Source k's shortest path reads k; the lightest hub edge weighs 1.
        assert rows.tolist() == [[k, t, k + 1] for k in range(4) for t in range(500)]
        assert counts.tolist() == [1000] * 2000


class TestWireInvariance:
    """The tentpole acceptance: wire on vs off must agree on all results
    and iteration counts; only modeled bytes/seconds move."""

    def _sssp(self, graph, **kw):
        return run_sssp(graph, [0, 5], _cfg(**kw))

    def test_on_off_identical_results(self, medium_weighted_graph):
        g = medium_weighted_graph
        off = self._sssp(g, wire=False)
        on = self._sssp(g)
        assert on.distances == off.distances
        assert on.iterations == off.iterations

    def test_wire_off_has_no_wire_tallies(self, medium_weighted_graph):
        off = self._sssp(medium_weighted_graph, wire=False).fixpoint
        assert "wire_precombine_bytes" not in off.counters
        assert "wire_on_wire_bytes" not in off.counters

    @pytest.mark.parametrize("codec", CODECS)
    def test_codec_choice_invisible_to_semantics(
        self, medium_weighted_graph, codec
    ):
        """``raw`` is the wire-off form of the payloads, ``delta`` the
        wire-on form: identical tuples travel either way."""
        g = medium_weighted_graph
        base = self._sssp(g, wire=False)
        run = self._sssp(g, wire=codec == "delta")
        assert run.distances == base.distances
        assert run.iterations == base.iterations
        assert (
            run.fixpoint.counters["alltoall_tuples"]
            == base.fixpoint.counters["alltoall_tuples"]
        )

    def _shipped_boxes(self, graph):
        """Every wire box a wire-on run ships, and the run's counters."""
        from repro.runtime import engine as engine_mod

        shipped = []

        def spy(sends, *, codec):
            out = route.encode_wire_sends(sends, codec=codec)
            shipped.extend((codec, out.item(k)) for k in range(len(out)))
            return out

        with mock.patch.object(engine_mod, "encode_wire_sends", spy):
            fp = self._sssp(graph).fixpoint
        assert shipped
        return shipped, fp

    def test_delta_ships_fewer_bytes_than_raw(self, medium_weighted_graph):
        """The same boxes re-encoded ``raw`` are larger than as shipped,
        frames and all."""
        shipped, _fp = self._shipped_boxes(medium_weighted_graph)
        assert {codec for codec, _box in shipped} == {"delta"}
        delta = raw = 0
        for _codec, (_seg, n_rows, _pre, payload) in shipped:
            if not isinstance(payload, bytes):
                continue  # a self-send: not on the wire
            rows, _header = decode_blocks(
                np.frombuffer(payload, np.uint8), np.asarray([len(payload)]),
                np.asarray([0, n_rows]), 3, "delta", 1,
            )
            delta += len(payload)
            raw += len(encode_rows(rows, "raw"))
        assert 0 < delta < raw

    def test_sender_combine_saves_bytes(self, medium_weighted_graph):
        shipped, combined = self._shipped_boxes(medium_weighted_graph)
        # The fold ships fewer rows than the join handed it …
        assert sum(box[1] for _c, box in shipped) < sum(
            box[2] for _c, box in shipped
        )
        # … so fewer bytes than the counterfactual pre-combine traffic.
        assert (
            combined.counters["wire_on_wire_bytes"]
            < combined.counters["wire_precombine_bytes"]
        )

    def test_pre_combine_tuple_counts_unchanged(self, medium_weighted_graph):
        """``alltoall_tuples`` counts what the query *routed*, before the
        wire layer folds — identical wire on or off."""
        g = medium_weighted_graph
        on = self._sssp(g).fixpoint
        off = self._sssp(g, wire=False).fixpoint
        assert (
            on.counters["alltoall_tuples"] == off.counters["alltoall_tuples"]
        )

    def test_cc_union_labels_identical(self, medium_graph):
        off = run_cc(medium_graph, _cfg(wire=False))
        on = run_cc(medium_graph, _cfg())
        assert on.labels == off.labels


class TestChargedBytesAreTheBytes:
    def test_every_exchange_charges_its_remote_payloads_and_encodes_no_self_box(self):
        """On an 8-rank SSSP run with the wire on — a resize, a converge
        and an update — every route, seed and reshard exchange's
        ledger bytes are the byte lengths of its remote boxes' payloads,
        each box charged exactly its payload, and every box that reaches
        the codec is bound for another rank."""
        from repro.runtime.incremental import FixpointHandle

        rng = np.random.default_rng(5)
        edges = [
            (int(a), int(b), int(w))
            for a, b, w in zip(rng.integers(0, 60, 400), rng.integers(0, 60, 400),
                               rng.integers(1, 9, 400))
        ]
        config = EngineConfig(n_ranks=8, subbuckets={"edge": 1}, auto_balance=1.0)
        exchanges, encoded, framed = [], [], []
        alltoallv, encode_wire_sends = SimCluster.alltoallv, route.encode_wire_sends
        encode_blocks = route.encode_blocks

        def exchange_spy(cluster, sends, **kw):
            first = len(cluster.ledger.comm.events)
            out = alltoallv(cluster, sends, **kw)
            exchanges.append((sends, cluster.ledger.comm.events[first:]))
            return out

        def encode_spy(table, *, codec):
            framed.clear()
            out = encode_wire_sends(table, codec=codec)
            encoded.append((out, sum(framed)))
            return out

        def blocks_spy(rows, starts, codec, header=None):
            framed.append(starts.shape[0] - 1)
            return encode_blocks(rows, starts, codec, header)

        from repro.runtime import engine as engine_mod, incremental, rebalance

        with mock.patch.object(SimCluster, "alltoallv", exchange_spy), \
                mock.patch.object(route, "encode_blocks", blocks_spy), \
                mock.patch.object(engine_mod, "encode_wire_sends", encode_spy), \
                mock.patch.object(incremental, "encode_wire_sends", encode_spy), \
                mock.patch.object(rebalance, "encode_wire_sends", encode_spy):
            handle = FixpointHandle.converge(
                sssp_program(), {"edge": edges[:360], "start": [(0,)]}, config
            )
            handle.update({"edge": edges[360:]})
        assert handle.engine.store["edge"].schema.n_subbuckets > 1
        kinds = set()
        for table, n_framed in encoded:
            remote = table.src != table.dst
            assert n_framed == int(remote.sum())  # no self box framed
            assert not table.byte_len[~remote].any()
            assert np.array_equal(table.nbytes, table.byte_len)
            matches = [events for sends, events in exchanges if sends is table]
            assert len(matches) == 1
            (events,) = matches
            assert sum(e.nbytes for e in events) == int(table.byte_len[remote].sum())
            kinds.update(e.kind for e in events)
        assert kinds == {"alltoallv", "incremental_seed", "rebalance"}
        assert any((table.src == table.dst).any() for table, _n in encoded)


class TestCollectiveAutotune:
    def _run(self, graph, **kw):
        return run_sssp(graph, [0, 5], _cfg(n_ranks=8, **kw)).fixpoint

    def test_choices_recorded(self, medium_weighted_graph):
        fp = self._run(medium_weighted_graph)
        total = (
            fp.counters["wire_collective_direct"]
            + fp.counters["wire_collective_bruck"]
        )
        assert total > 0

    def test_auto_never_slower_than_either(self, medium_weighted_graph):
        """Every autotuned exchange charges the cheaper algorithm.  A slow
        interconnect (β = 1 MB/s) at 8 ranks makes the mid-fixpoint
        exchanges bandwidth-bound, so direct wins those and Bruck the
        latency-bound rest: both charge paths run."""
        from repro.comm.costmodel import CostModel
        from repro.obs.tracer import Tracer

        fp = self._run(
            medium_weighted_graph, tracer=Tracer(), cost_model=CostModel(beta=1e6)
        )
        choices = [sp.attrs for sp in fp.spans if sp.name == "collective_choice"]
        assert {a["chosen"] for a in choices} == {"direct", "bruck"}
        for a in choices:
            cheaper = (
                "bruck" if a["bruck_seconds"] < a["direct_seconds"] else "direct"
            )
            assert a["chosen"] == cheaper
            assert a["saved_seconds"] == (
                a["direct_seconds"] - a["bruck_seconds"] if cheaper == "bruck" else 0.0
            )
        for choice in ("direct", "bruck"):
            assert fp.counters[f"wire_collective_{choice}"] == sum(
                a["chosen"] == choice for a in choices
            )

    def test_forced_direct_records_no_bruck(self, medium_weighted_graph):
        """With the wire off every exchange is charged as direct, even on
        the slow interconnect where the autotune picks Bruck for some."""
        from repro.comm.costmodel import CostModel
        from repro.comm.simcluster import SimCluster
        from repro.obs.tracer import Tracer

        with mock.patch.object(
            SimCluster, "alltoallv", autospec=True, side_effect=SimCluster.alltoallv
        ) as spy:
            fp = self._run(
                medium_weighted_graph, wire=False, tracer=Tracer(),
                cost_model=CostModel(beta=1e7),
            )
        assert spy.called
        assert not any(call.kwargs.get("autotune") for call in spy.call_args_list)
        assert fp.spans
        assert not any(sp.name == "collective_choice" for sp in fp.spans)
        assert "wire_collective_bruck" not in fp.counters

    def test_choice_spans_emitted(self, medium_weighted_graph):
        from repro.obs.tracer import Tracer

        fp = run_sssp(
            medium_weighted_graph, [0, 5], _cfg(n_ranks=8, tracer=Tracer())
        ).fixpoint
        choices = [sp for sp in fp.spans if sp.name == "collective_choice"]
        assert choices
        for sp in choices:
            attrs = sp.attrs
            assert attrs["chosen"] in ("direct", "bruck")
            assert attrs["bruck_seconds"] >= 0.0
            if attrs["chosen"] == "bruck":
                assert attrs["bruck_seconds"] <= attrs["direct_seconds"]


class TestDiagnosticsBytesSaved:
    def test_comm_matrix_precombine_channel(self, medium_weighted_graph):
        fp = run_sssp(
            medium_weighted_graph, [0, 5], _cfg(diagnostics=True)
        ).fixpoint
        rec = fp.comm_profile
        assert rec is not None
        saved = rec.bytes_saved()
        assert saved > 0
        assert saved == rec.bytes_total("precombine") - sum(
            m.bytes_total("data")
            for m in rec.matrices
            if m.precombine or m.bytes_total("precombine")
        )
        # Reconciliation against the ledger ignores the counterfactual
        # channel: the recorder must still tie out exactly.
        comparison = rec.reconcile(fp.ledger.comm.by_kind)
        assert comparison["ok"]

    def test_bytes_saved_visible_in_render(self, medium_weighted_graph):
        from repro.obs.tracer import Tracer

        fp = run_sssp(
            medium_weighted_graph, [0, 5],
            _cfg(diagnostics=True, tracer=Tracer()),
        ).fixpoint
        text = fp.diagnose().render()
        assert "wire layer:" in text

    def test_round_trips_through_trace(self, tmp_path, medium_weighted_graph):
        """Bytes-saved must be recoverable offline from a trace alone."""
        from repro.obs.analysis import comm_profile_from_spans
        from repro.obs.export import load_trace
        from repro.obs.tracer import Tracer

        fp = run_sssp(
            medium_weighted_graph, [0, 5],
            _cfg(diagnostics=True, tracer=Tracer()),
        ).fixpoint
        path = tmp_path / "trace.json"
        fp.write_trace(str(path))
        spans, _meta = load_trace(str(path))
        rec = comm_profile_from_spans(spans)
        assert rec is not None
        assert rec.bytes_saved() == fp.comm_profile.bytes_saved()
        assert "wire layer:" in fp.diagnose().render()


class TestSpmdWire:
    def test_spmd_agrees_with_bsp_wire_on(self):
        from repro.planner.parser import parse_program
        from repro.runtime.engine import Engine
        from repro.runtime.spmd import run_spmd_engine

        src = """
        .decl edge(a, b)
        .decl path(a, b)
        path(x, y) :- edge(x, y).
        path(x, z) :- path(x, y), edge(y, z).
        .output path
        """
        parsed = parse_program(src)
        facts = {
            "edge": [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)],
        }
        engine = Engine(parsed.program, _cfg(n_ranks=3))
        for name, rows in facts.items():
            engine.load(name, rows)
        bsp = engine.run()
        for wire in (True, False):
            spmd = run_spmd_engine(
                parsed.program, facts,
                EngineConfig(n_ranks=3, wire=wire),
            )
            assert spmd["path"] == set(bsp.query("path"))

    def test_spmd_aggregate_wire_on_off(self):
        from repro.planner.parser import parse_program
        from repro.runtime.spmd import run_spmd_engine

        src = """
        .decl edge(x, y, w) keys(x)
        .decl start(n) keys(n)
        dist(n, n, 0) :- start(n).
        dist(f, t, $min(l + w)) :- dist(f, m, l), edge(m, t, w).
        .output dist
        """
        parsed = parse_program(src)
        facts = {
            "edge": [
                (0, 1, 4), (0, 2, 9), (1, 2, 1), (2, 3, 2),
                (3, 1, 1), (1, 4, 7), (3, 4, 3),
            ],
            "start": [(0,), (3,)],
        }
        results = {
            label: run_spmd_engine(
                parsed.program, facts, EngineConfig(n_ranks=3, wire=wire)
            )
            for label, wire in (("on", True), ("off", False))
        }
        assert results["on"]["dist"] == results["off"]["dist"]


class TestHeavyLightPlacement:
    """With the wire on, a sub-bucketed EDB relation's first load freezes
    its heavy keys (more than m/(p·n_sub) of its m rows).  A light key's
    rows all sit in its bucket's home cell, sub-bucket 0 on the bucket's
    own rank, and its outer tuples cross the intra-bucket exchange once,
    to that rank: for an outer relation placed by the same key, a
    self-send.  A heavy key keeps §IV-C's spread and its outer tuples
    reach every owner of its bucket.  The join's output cannot change.
    Wire off keeps §IV-C's placement."""

    N_RANKS = 8
    #: The star's key: (x, y) of its label-1 hops.
    HUB = (0, 0)

    @staticmethod
    def _program():
        """Walks over ``hop(x, y, label, z)`` rows with label 1: a constant
        in the inner atom and a two-column join key (x, y)."""
        walk, hop, start = Rel("walk"), Rel("hop"), Rel("start")
        x, y, z, d = vars_("x y z d")
        return Program(
            rules=[
                walk(x, y, MIN(0)) <= start(x, y),
                walk(y, z, MIN(d + 1)) <= (walk(x, y, d), hop(x, y, 1, z)),
            ],
            edb=[
                EdbDecl("hop", arity=4, join_cols=(0, 1), n_subbuckets=8),
                EdbDecl("start", arity=2, join_cols=(0,)),
            ],
        )

    @classmethod
    def _facts(cls, hub):
        """Three random hops for each of 100 keys (x, y) — 300 rows, so an
        average one of the 64 cells holds 4.7 — and a star of ``hub``
        label-1 hops from :attr:`HUB`."""
        rng = np.random.default_rng(5)
        hops = [
            (x, y, *map(int, rng.integers(0, [2, 10])))
            for x in range(10) for y in range(10) for _ in range(3)
        ]
        hops += [(*cls.HUB, 1, 10 + i) for i in range(hub)]
        return {"hop": hops, "start": [(0, 1), (2, 3), cls.HUB]}

    def _run(self, wire, hub=0, scenario=None):
        """Converge (the walk side always outer) and apply ``scenario``.

        Returns the result, the engine, and per join evaluation the outer
        rows, the home rows and their per-rank ends, and the table of
        crossing copies (None where the join is co-placed).
        """
        from repro.faults.checkpoint import capture, restore
        from repro.runtime.incremental import FixpointHandle
        from repro.runtime.rebalance import reshard_relation

        config = EngineConfig(
            n_ranks=self.N_RANKS, wire=wire, dynamic_join=False,
            static_outer="left",
        )
        engine = Engine(self._program(), config)
        for name, rows in self._facts(hub).items():
            engine.load(name, rows)
        sent = []

        real = executor_mod.ColumnarExecutor.intra_sends

        def spy(ex, cr, outer_pos, outer_rel, outer_ver, *args):
            out = real(ex, cr, outer_pos, outer_rel, outer_ver, *args)
            sent.append((outer_rel.owner_blocks(outer_ver)[0], *out))
            return out

        with mock.patch.object(executor_mod.ColumnarExecutor, "intra_sends", spy):
            result = engine.run()
            hop = engine.store["hop"]
            if scenario == "reshard":
                reshard_relation(hop, 2, engine.cluster, wire=wire)
                engine.compiled.schemas["hop"] = hop.schema
            elif scenario == "restore":
                ckpt = capture(
                    engine.store, ["hop"], stratum=0, iteration=0, changed=True,
                    iterations_total=0, counters={}, trace_len=0,
                )
                hop.table = None  # the rows are lost; the restore brings them back
                restore(engine.store, ckpt)
            if scenario is not None:
                # A walk (a, b) → (b, 20) → (20, 21): the second hop's key
                # (b, 20) is new; (20, 21) gets 100 rows, heavy if counted.
                a, b, _d = min(result.query("walk"))
                result = FixpointHandle(engine, result).update({"hop": [
                    (a, b, 1, 20), (b, 20, 1, 21),
                    *((20, 21, 0, 30 + i) for i in range(100)),
                ]})
                assert (20, 21) in {(f, t) for f, t, _d in result.query("walk")}
        return result, engine, sent

    @staticmethod
    def _assert_same_answers(on, off):
        assert on.query("walk") == off.query("walk")
        assert on.iterations == off.iterations
        assert on.counters["emitted"] == off.counters["emitted"]

    @staticmethod
    def _cells(hop):
        """Each hop key's distinct segments, and its distinct owners."""
        rows, segs = hop.table.stored("full")
        cells = {}
        for (x, y, _label, _z), seg in zip(rows.tolist(), segs.tolist()):
            cells.setdefault((x, y), set()).add(seg)
        owner = hop.rank_of_segment()
        return cells, {key: {int(owner[s]) for s in segs} for key, segs in cells.items()}

    def _assert_placed(self, hop, heavy):
        cells, owners = self._cells(hop)
        assert hop.schema.heavy_keys == heavy
        n_sub = hop.schema.n_subbuckets
        for key, segs in cells.items():
            if key in heavy:
                assert len(owners[key]) >= 4, (key, owners[key])
            else:
                assert len(segs) == 1 and min(segs) % n_sub == 0, (key, segs)

    @staticmethod
    def _remote_keys(sent):
        """The join key of every intra copy that left its rank."""
        return [
            tuple(row[:2])
            for *_home, table in sent if table is not None and len(table)
            for row in table.rows_of(np.arange(len(table))).tolist()
        ]

    @staticmethod
    def _intra_bytes(result):
        return sum(
            ev.nbytes for ev in result.ledger.comm.events
            if ev.phase == "intra_bucket"
        )

    def test_light_keys_cross_once(self):
        """No key is heavy: every outer row sent is one intra copy, and a
        self-send, since ``walk`` is placed by the join key too: the
        intra exchange's remote bytes read 0."""
        from repro.planner.interpreter import interpret

        on, engine, sent = self._run(True)
        off, _engine, _sent = self._run(False)
        self._assert_placed(engine.store["hop"], ())
        n_sent = sum(rows.shape[0] for rows, *_out in sent)
        assert n_sent and on.counters["intra_bucket_tuples"] == n_sent
        assert off.counters["intra_bucket_tuples"] > n_sent
        # Co-placed: every outer row is its rank's home row, no table built.
        for rows, home, _ends, table in sent:
            assert home is rows and table is None
        assert on.counters["intra_remote_tuples"] == 0
        assert self._remote_keys(sent) == []
        assert self._intra_bytes(on) == 0 < self._intra_bytes(off)
        self._assert_same_answers(on, off)
        expected = interpret(self._program(), self._facts(0))
        assert on.query("walk") == expected["walk"]

    def test_hub_is_spread_and_replicated(self):
        """The star's key is heavy: its rows span the bucket's owners, and
        each of its outer rows reaches every distinct owner of its bucket,
        while each light outer row reaches one."""
        from repro.planner.interpreter import interpret

        on, engine, sent = self._run(True, hub=200)
        off, _engine, _sent = self._run(False, hub=200)
        hop = engine.store["hop"]
        self._assert_placed(hop, (self.HUB,))
        dist = hop.dist
        hub_bucket = int(dist.buckets_of_key_rows(np.asarray([self.HUB]), (0, 1))[0])
        hub_owners = set(dist.owner_table[hub_bucket].tolist())
        n_hub = n_light = 0
        for rows, home, home_ends, table in sent:
            copies = {}
            for r in range(home_ends.shape[0] - 1):
                for row in home[home_ends[r] : home_ends[r + 1]].tolist():
                    copies.setdefault(tuple(row), []).append(r)
            for k, dst in enumerate(table.dst.tolist()):
                for row in table.rows_of(np.asarray([k])).tolist():
                    copies.setdefault(tuple(row), []).append(dst)
            assert len(copies) == rows.shape[0]
            for row in map(tuple, rows.tolist()):
                if row[:2] == self.HUB:
                    n_hub += 1
                    assert sorted(copies[row]) == sorted(hub_owners)
                else:
                    n_light += 1
                    assert len(copies[row]) == 1
        assert n_hub and n_light
        remote = self._remote_keys(sent)
        assert remote and set(remote) == {self.HUB}
        self._assert_same_answers(on, off)
        expected = interpret(self._program(), self._facts(200))
        assert on.query("walk") == expected["walk"]

    @pytest.mark.parametrize("scenario", ["update", "reshard", "restore"])
    def test_set_survives(self, scenario):
        """The set carries through a checkpoint restore and an update
        batch, and a reshard recounts it (the star stays heavy at the new
        count): inserted rows place by it, so a key that grows heavy
        through insertions stays light, in one cell."""
        on, engine, _sent = self._run(True, hub=200, scenario=scenario)
        off, _engine, _sent = self._run(False, hub=200, scenario=scenario)
        hop = engine.store["hop"]
        assert hop.schema.n_subbuckets == (2 if scenario == "reshard" else 8)
        assert engine.compiled.schemas["hop"].heavy_keys == (self.HUB,)
        cells, _owners = self._cells(hop)
        assert len(cells[(20, 21)]) == 1
        for key, segs in cells.items():
            assert key == self.HUB or len(segs) == 1, (key, segs)
        self._assert_same_answers(on, off)

    def test_set_frozen_at_first_load(self):
        """A second load does not recount: the star loaded after the
        random hops stays light, whole in one cell, and still joins."""
        config = EngineConfig(
            n_ranks=self.N_RANKS, dynamic_join=False, static_outer="left"
        )
        engine = Engine(self._program(), config)
        facts = self._facts(200)
        engine.load("hop", facts["hop"][:300])
        engine.load("hop", facts["hop"][300:])
        engine.load("start", facts["start"])
        on = engine.run()
        off, _engine, _sent = self._run(False, hub=200)
        self._assert_placed(engine.store["hop"], ())
        self._assert_same_answers(on, off)

    def test_set_survives_exclude_ranks(self):
        """``crash_perm``'s recovery re-owns the dead rank's shards
        (``exclude_ranks``) under the same heavy set, and the run still
        matches the fault-free wire-off run."""
        from repro.faults import FaultConfig
        from repro.runtime.config import FaultOptions, RecoveryOptions

        off, _engine, _sent = self._run(False, hub=200)
        crash = FaultConfig(seed=3, crash_perm_rank=1, crash_perm_superstep=12)
        config = EngineConfig(
            n_ranks=self.N_RANKS, dynamic_join=False, static_outer="left",
            faults=FaultOptions(config=crash),
            recovery=RecoveryOptions(checkpoint_every=1, replicas=1),
        )
        engine = Engine(self._program(), config)
        for name, rows in self._facts(200).items():
            engine.load(name, rows)
        on = engine.run()
        assert on.degraded.excluded_ranks == [1]
        hop = engine.store["hop"]
        assert 1 in hop.dist.dead_ranks
        self._assert_placed(hop, (self.HUB,))
        self._assert_same_answers(on, off)

    def test_wire_off_replicates_as_before(self, medium_weighted_graph):
        """Wire off, a sub-bucketed run's answers, counters, charges and
        bytes are the paper's full replication, pinned from before the
        directory existed."""
        config = EngineConfig(n_ranks=8, wire=False, subbuckets={"edge": 4})
        summary = run_sssp(medium_weighted_graph, [0, 5], config).fixpoint.summary()
        assert summary["iterations"] == 6
        assert summary["counters"] == {
            "admitted": 164, "alltoall_tuples": 616, "emitted": 614,
            "intra_bucket_tuples": 484, "intra_remote_tuples": 342,
            "loaded": 393, "suppressed": 452,
        }
        assert (summary["comm_bytes"], summary["comm_messages"]) == (21800, 407)
        assert summary["phase_seconds"] == pytest.approx({
            "comm": 9.051440000000001e-05, "dedup_agg": 1.228e-05,
            "intra_bucket": 5.7863200000000005e-05,
            "local_join": 1.2039999999999998e-05,
            "other": 2.1016800000000002e-05, "vote": 2.1004199999999998e-05,
        }, rel=1e-12)


class TestCoPlacedJoin:
    """With the wire on, a join whose inner has no heavy key and whose
    outer is placed by the join key is *co-placed*: every outer row
    already sits on the rank holding the inner rows of its key.  The plan
    proves it from the two placements, so the join builds no intra-bucket
    table, calls no collective and charges no serialization; a rank's
    own rows go straight to its probe.  Otherwise only the copies that
    cross are boxed and charged."""

    RING = [(i, (i + 1) % 16, 1 + i % 3) for i in range(16)]
    #: The ring plus a star from vertex 0: 48 of its 64 edges, a heavy key.
    HUB = RING + [(0, v, w) for v in range(16) for w in (1, 4, 9)]

    @staticmethod
    def _engine(program, edges, **options):
        config = EngineConfig(n_ranks=4, subbuckets={"edge": 4}, **options)
        engine = Engine(program, config)
        arity = engine.compiled.schemas["edge"].arity
        engine.load("edge", [edge[:arity] for edge in edges])
        return engine

    @staticmethod
    def _joins(engine):
        """Per join rule, the predicate with the left and with the right
        atom as the outer."""
        out = []
        for cr in engine.compiled.compiled.values():
            if cr.is_join:
                left, right = (engine.store[name] for name in cr.body_names)
                out.append((
                    engine._co_placed(left, right, cr.probe_from_left),
                    engine._co_placed(right, left, cr.probe_from_right),
                ))
        return out

    @pytest.mark.parametrize("program", [sssp_program, cc_program])
    def test_no_heavy_key_reads_co_placed(self, program):
        engine = self._engine(program(), self.RING)
        assert engine.store["edge"].schema.heavy_keys == ()
        assert self._joins(engine) == [(True, True)]
        # One sub-bucket has no heavy key either.
        one = Engine(program(), EngineConfig(n_ranks=4))
        assert self._joins(one) == [(True, True)]

    @pytest.mark.parametrize("program", [sssp_program, cc_program])
    def test_heavy_key_wire_off_or_spread_idb_outer_read_not(self, program):
        hub = self._engine(program(), self.HUB)
        assert (0,) in hub.store["edge"].schema.heavy_keys
        assert self._joins(hub) == [(False, False)]
        off = self._engine(program(), self.RING, wire=False)
        assert self._joins(off) == [(False, False)]
        # A sub-bucketed IDB relation spreads every key: as the outer it
        # is not placed by the key alone; as the inner, every key is heavy.
        head = program().idb_relations()[0]
        spread = Engine(program(), EngineConfig(
            n_ranks=4, subbuckets={"edge": 4, head: 4}
        ))
        spread.load("edge", [e[:spread.compiled.schemas["edge"].arity] for e in self.RING])
        assert self._joins(spread) == [(False, False)]

    def test_exclude_ranks_overlay_on_both_reads_co_placed(self):
        """The degraded overlay reroutes a dead owner's cells by a hash of
        (bucket, sub) under the shared seed, so both relations excluding
        the same rank keep one home rank per bucket: co-placed.  Only one
        of them excluding it moves that relation's home cells alone: not."""
        engine = self._engine(sssp_program(), self.RING)
        cr = next(cr for cr in engine.compiled.compiled.values() if cr.is_join)
        spath, edge = engine.store["spath"], engine.store["edge"]
        edge.exclude_ranks([1])
        assert not engine._co_placed(spath, edge, cr.probe_from_left)
        spath.exclude_ranks([1])
        assert engine._co_placed(spath, edge, cr.probe_from_left)
        assert engine._co_placed(edge, spath, cr.probe_from_right)

    def test_predicate_is_cached_per_placement_pair(self):
        engine = self._engine(sssp_program(), self.RING)
        cr = next(cr for cr in engine.compiled.compiled.values() if cr.is_join)
        spath, edge = engine.store["spath"], engine.store["edge"]
        for _ in range(3):
            assert engine._co_placed(spath, edge, cr.probe_from_left)
        edge.exclude_ranks([2])  # a new placement object: asked again
        assert not engine._co_placed(spath, edge, cr.probe_from_left)
        assert list(engine._co_placed_cache.values()) == [True, False]

    @staticmethod
    def _run(edges, wire):
        engine = TestCoPlacedJoin._engine(sssp_program(), edges, wire=wire)
        engine.load("start", [(0,), (5,)])
        return engine.run()

    def test_co_placed_ledger_has_no_intra_exchange(self):
        on, off = self._run(self.RING, True), self._run(self.RING, False)
        assert on.query("spath") == off.query("spath")
        assert on.counters["intra_bucket_tuples"] > 0
        assert on.counters["intra_remote_tuples"] == 0
        assert not [e for e in on.ledger.comm.events if e.phase == "intra_bucket"]
        assert "intra_bucket" not in on.ledger.phase_seconds
        assert on.phase_breakdown()["intra_bucket"] == 0.0
        # Wire off keeps the exchange and the serialization of every copy.
        assert [e for e in off.ledger.comm.events if e.phase == "intra_bucket"]
        assert off.ledger.phase_seconds["intra_bucket"] > 0

    @pytest.mark.parametrize("spec", ["drop=0.05,dup=0.05,seed=3", "crash=1@20,seed=3"])
    def test_fault_clock_counts_the_skipped_exchange(self, spec):
        """A skipped exchange still ticks the fault clock, so a fault
        schedule lands where it did when every join exchanged: the same
        supersteps, fates, rollback and answers as the same join forced
        through an (empty) intra-bucket collective."""
        from repro.runtime.config import FaultOptions, RecoveryOptions

        def run():
            engine = self._engine(
                sssp_program(), self.RING, faults=FaultOptions(spec=spec),
                recovery=RecoveryOptions(checkpoint_every=2),
            )
            engine.load("start", [(0,), (5,)])
            return engine.run()

        skipped = run()
        with mock.patch.object(Engine, "_co_placed", return_value=False):
            exchanged = run()
        assert skipped.query("spath") == exchanged.query("spath")
        assert skipped.recovery.injected == exchanged.recovery.injected
        assert skipped.recovery.rolled_back_iterations == (
            exchanged.recovery.rolled_back_iterations
        )
        assert exchanged.counters["intra_remote_tuples"] == 0
        assert [e for e in exchanged.ledger.comm.events if e.phase == "intra_bucket"]
        assert not [e for e in skipped.ledger.comm.events if e.phase == "intra_bucket"]

    def test_hub_charges_only_crossing_copies(self):
        """On the hub graph the join is not co-placed: each rank's
        serialization charge is its crossing copies, never its home rows."""
        engine = self._engine(sssp_program(), self.HUB)
        engine.load("start", [(0,), (5,)])
        cost = engine.cluster.cost
        per_tuple = cost.tuple_serialize * cost.compute_scale
        crossing, charged = [], []
        real_sends = executor_mod.ColumnarExecutor.intra_sends
        real_step = engine.cluster.ledger.add_compute_step

        def sends(ex, *args):
            home, home_ends, table = out = real_sends(ex, *args)
            crossing.append(np.bincount(table.src, table.n_rows, minlength=4))
            return out

        def step(phase, seconds):
            if phase == "intra_bucket":
                charged.append(seconds)
            return real_step(phase, seconds)

        with mock.patch.object(executor_mod.ColumnarExecutor, "intra_sends", sends), \
                mock.patch.object(engine.cluster.ledger, "add_compute_step", step):
            result = engine.run()
        assert len(charged) == len(crossing) > 0
        for got, want in zip(charged, crossing):
            np.testing.assert_array_equal(got, want * per_tuple)
        n_remote = int(sum(c.sum() for c in crossing))
        assert 0 < n_remote == result.counters["intra_remote_tuples"]
        assert n_remote < result.counters["intra_bucket_tuples"]
        off = self._run(self.HUB, False)
        assert result.query("spath") == off.query("spath")
        assert result.counters["emitted"] == off.counters["emitted"]
