"""Tests for the relation-wide resize: ``auto_balance`` and its
redistribution exchange (:func:`repro.runtime.rebalance.reshard_relation`).

The contract under test: a sub-bucket resize is invisible to semantics.
The redistribution exchange preserves exact tuple multisets
(property-tested), every resized shard agrees with the versioned hash
map, results / Δ trajectories / iteration counts are bit-identical to a
static run, and chaos (message faults, a rank crash inside the resize)
cannot make a resized run diverge from the fault-free one.
"""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.boxes import BoxTable
from repro.comm.simcluster import SimCluster
from repro.comm.wire import WIRE_HEADER_WORDS, decode_blocks, encode_blocks, payload_codec
from repro.core.aggregators import make_aggregator
from repro.core.balancer import measure_imbalance, recommend_subbuckets
from repro.faults.config import FaultConfig
from repro.faults.plane import FaultPlane
from repro.graphs.generators import rmat, skewed_hub_graph
from repro.kernels.block import group_columns
from repro.obs.analysis import CommMatrix, CommMatrixRecorder, measure_bucket_skew
from repro.obs.tracer import Tracer
from repro.queries.cc import run_cc
from repro.queries.pagerank import run_pagerank
from repro.queries.sssp import run_sssp
from repro.relational.distribution import heavy_keys
from repro.relational.schema import Schema
from repro.relational.storage import VersionedRelation
from repro.runtime import engine as engine_mod
from repro.runtime.config import (
    DiagnosticsOptions,
    EngineConfig,
    FaultOptions,
    RecoveryOptions,
)
from repro.runtime.rebalance import BALANCE_PHASE, recount_words, reshard_relation
from repro.util.hashing import HashSeed

#: The one data plane.  The axis has a single value: it keeps the
#: ``columnar`` case ids from when a tuple-at-a-time plane ran beside it.
ON_PLANE = pytest.mark.parametrize("plane", ["columnar"])


def _plain_schema(n_sub=1):
    return Schema(name="r", arity=3, join_cols=(0,), n_subbuckets=n_sub)


def _agg_schema(n_sub=1):
    return Schema(
        name="a", arity=3, join_cols=(0,), n_dep=1,
        aggregator=make_aggregator("min"), n_subbuckets=n_sub,
    )


def _relation(schema, n_ranks, full=(), delta=()):
    """A standalone relation with the given full and Δ contents."""
    rel = VersionedRelation(schema, n_ranks, seed=HashSeed().derive(7))
    if full:
        rel.load(list(full))
        rel.advance()
        rel.advance()  # clear Δ so only `delta` rows populate it
    if delta:
        rel.load(list(delta))
        rel.advance()
    return rel


def _rows_of(rel, version):
    blocks = [b for _k, _o, b in rel.shard_blocks(version)]
    if not blocks:
        return []
    return sorted(map(tuple, np.vstack(blocks).tolist()))


def _forced(*, n_ranks=8, faults=None, checkpoint_every=None,
            diagnostics=False, tracer=None, delta_fingerprints=False):
    """Config whose resize fires on any skew: ``edge`` starts at one
    sub-bucket, and ``auto_balance`` at tolerance 1.0 grows it while any
    rank would hold more than the mean (to the count that comes closest)."""
    return EngineConfig(
        n_ranks=n_ranks,
        subbuckets={"edge": 1},
        auto_balance=1.0,
        faults=FaultOptions(config=faults),
        recovery=RecoveryOptions(checkpoint_every=checkpoint_every),
        diagnostics=DiagnosticsOptions(
            enabled=diagnostics, tracer=tracer,
            delta_fingerprints=delta_fingerprints,
        ),
    )


# --------------------------------------------------------------------------
# Distribution.with_subbuckets


class TestWithSubbuckets:
    def test_buckets_preserved_across_resize(self):
        dist = _relation(_plain_schema(), 16).dist
        grown = dist.with_subbuckets(8)
        rows = np.arange(60, dtype=np.int64).reshape(20, 3)
        assert np.array_equal(
            dist.bucket_sub_of_rows(rows)[0],
            grown.bucket_sub_of_rows(rows)[0],
        )

    def test_new_fanout_used(self):
        dist = _relation(_plain_schema(), 16).dist
        grown = dist.with_subbuckets(8)
        assert grown.schema.n_subbuckets == 8
        assert grown.seed is dist.seed
        rows = np.arange(300, dtype=np.int64).reshape(100, 3)
        _b, subs = grown.bucket_sub_of_rows(rows)
        assert subs.max() > 0  # fan-out actually engaged

    def test_sub_zero_stays_home(self):
        grown = _relation(_plain_schema(), 16).dist.with_subbuckets(4)
        for b in range(16):
            assert grown.owner(b, 0) == b


# --------------------------------------------------------------------------
# balancer satellite: the recommendation cap


class TestSubbucketGrowth:
    def test_recommend_respects_non_power_of_two_cap(self):
        # Regression: the trial count used to jump straight past a
        # non-power-of-two cap instead of clamping to it.
        rows = np.asarray([(0, i, i) for i in range(256)])
        n, _report = recommend_subbuckets(
            rows, _plain_schema(), 16, max_subbuckets=3
        )
        assert n <= 3


# --------------------------------------------------------------------------
# the redistribution exchange (property tests)


rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)
    ),
    min_size=0,
    max_size=60,
)


class TestReshardProperty:
    @ON_PLANE
    @given(
        data=rows_strategy,
        n_ranks=st.sampled_from([1, 3, 8]),
        target=st.sampled_from([2, 3, 4, 8]),
        split=st.integers(0, 60),
    )
    @settings(max_examples=25)
    def test_multiset_and_owner_map(
        self, plane, data, n_ranks, target, split
    ):
        """Any shard contents + any rebalance point: the exchange keeps
        the exact full and Δ multisets, and every row sits in the shard
        the versioned hash map assigns it."""
        full, delta = data[:split], data[split:]
        # a relation is a set per version; keep Δ rows out of full
        delta = [t for t in delta if t not in set(full)]
        rel = _relation(_plain_schema(), n_ranks, full=full, delta=delta)
        before_full = _rows_of(rel, "full")
        before_delta = _rows_of(rel, "delta")
        reshard_relation(rel, target, SimCluster(n_ranks))
        assert rel.schema.n_subbuckets == target
        assert _rows_of(rel, "full") == before_full
        assert _rows_of(rel, "delta") == before_delta
        for (bucket, sub), _owner, rows in rel.shard_blocks("full"):
            assert 0 <= sub < target
            if rows.shape[0]:
                b_arr, s_arr = rel.dist.bucket_sub_of_rows(rows)
                assert (b_arr == bucket).all() and (s_arr == sub).all()

    @ON_PLANE
    @given(data=rows_strategy, split=st.integers(0, 60))
    @settings(max_examples=15)
    def test_shrink_back_round_trips(self, plane, data, split):
        full = sorted(set(data[:split]))
        delta = [t for t in data[split:] if t not in set(full)]
        rel = _relation(_plain_schema(), 4, full=full, delta=delta)
        before = (_rows_of(rel, "full"), _rows_of(rel, "delta"))
        cluster = SimCluster(4)
        reshard_relation(rel, 4, cluster)
        reshard_relation(rel, 1, cluster)
        assert (_rows_of(rel, "full"), _rows_of(rel, "delta")) == before

    def test_noop_resize_is_free(self):
        rel = _relation(_plain_schema(2), 4, full=[(1, 2, 3)])
        table = rel.table
        info = reshard_relation(rel, 2, SimCluster(4))
        assert info == {"shipped": 0, "moved": 0, "wire_bytes": 0}
        assert rel.table is table

    def test_aggregate_relation_keeps_values(self):
        full = [(k, k + 1, v) for k, v in ((0, 5), (1, 9), (2, 3))]
        rel = _relation(_agg_schema(), 4, full=full)
        reshard_relation(rel, 4, SimCluster(4))
        assert _rows_of(rel, "full") == sorted(full)

    def test_empty_relation(self):
        rel = _relation(_plain_schema(), 4)
        info = reshard_relation(rel, 4, SimCluster(4))
        assert info["shipped"] == 0
        assert rel.schema.n_subbuckets == 4

    def test_exchange_lands_in_rebalance_channel(self):
        recorder = CommMatrixRecorder(4)
        cluster = SimCluster(4, comm_recorder=recorder)
        rel = _relation(
            _plain_schema(), 4, full=[(i, i, i) for i in range(64)]
        )
        info = reshard_relation(rel, 4, cluster)
        matrices = [m for m in recorder.matrices if m.kind == "rebalance"]
        assert matrices, "no rebalance comm matrix captured"
        total = sum(m.bytes_total("rebalance") for m in matrices)
        assert total == info["wire_bytes"] > 0
        assert all(m.bytes_total("data") == 0 for m in matrices)
        recorder.reconcile(cluster.ledger.comm.by_kind)  # raises on mismatch

    def test_wire_codec_shrinks_exchange_bytes(self):
        full = [(i % 4, i, 7) for i in range(400)]
        raw = _relation(_plain_schema(), 4, full=full)
        enc = _relation(_plain_schema(), 4, full=full)
        raw_info = reshard_relation(raw, 4, SimCluster(4), wire=False)
        enc_info = reshard_relation(enc, 4, SimCluster(4), wire=True)
        assert enc_info["wire_bytes"] < raw_info["wire_bytes"]
        assert _rows_of(enc, "full") == _rows_of(raw, "full")


# --------------------------------------------------------------------------
# the box-table reshard against the per-box protocol it replaced


def _ref_shard_boxes(rows, dist):
    """``(owner, bucket, sub, block)`` per home shard of ``rows`` under
    ``dist``: shards in (bucket, sub) order, each block in arrival order."""
    b_arr, s_arr = dist.bucket_sub_of_rows(rows)
    order, starts, counts = group_columns([b_arr, s_arr])
    for lo, n in zip(starts.tolist(), counts.tolist()):
        idx = order[lo : lo + n]
        b, s = int(b_arr[idx[0]]), int(s_arr[idx[0]])
        yield int(dist.owner_table[b, s]), b, s, rows[idx]


def build_reshard_sends(blocks, new_dist, codec):
    """The send dict of the per-box protocol: ``(src, kind, rows)``
    blocks re-placed into ``(bucket, sub, kind, n_rows, payload, seq)``
    boxes, each payload encoded alone — under ``delta`` framed with its
    row count and ``2 · segment + kind`` — and a self-send's rows left as
    they are; ``seq`` is unique per box.  Returns it with the rows
    shipped and the rows whose owner changed."""
    sends = {}
    n_shipped = n_moved = seq = 0
    n_sub = new_dist.schema.n_subbuckets
    for src, kind, rows in blocks:
        if not rows.shape[0]:
            continue
        row_map = sends.setdefault(src, {})
        for dst, b, s, block in _ref_shard_boxes(rows, new_dist):
            n = block.shape[0]
            payload = block
            if dst != src:
                header = np.asarray([[2 * (b * n_sub + s) + kind]])
                payload = encode_blocks(
                    block, np.asarray([0, n]), codec, header
                )[0].tobytes()
                n_moved += n
            row_map.setdefault(dst, []).append((b, s, kind, n, payload, seq))
            seq += 1
        n_shipped += rows.shape[0]
    return sends, n_shipped, n_moved


def decode_reshard_box(box, arity, codec, n_sub):
    """Inverse of the per-box encoding in :func:`build_reshard_sends`:
    under ``delta`` the segment and kind come from the frame."""
    b, s, kind, n_rows, payload, _seq = box
    if isinstance(payload, np.ndarray):
        return b, s, kind, payload
    rows, header = decode_blocks(
        np.frombuffer(payload, np.uint8), np.asarray([len(payload)]),
        np.asarray([0, n_rows]), arity, codec, int(codec == "delta"),
    )
    if codec == "delta":
        (key,) = header[0].tolist()
        (b, s), kind = divmod(key >> 1, n_sub), key & 1
    return b, s, kind, rows


def _charged(box, codec):
    """A remote box's wire bytes: its payload, plus under ``raw`` the
    header words it does not write."""
    payload = box[4]
    if isinstance(payload, np.ndarray):
        return 0  # a self-send
    return len(payload) + (8 * WIRE_HEADER_WORDS if codec == "raw" else 0)


def reference_reshard(rel, n_subbuckets, cluster, *, wire=False):
    """``reshard_relation`` as it ran on the per-box protocol: one tuple
    per box, sized per item, duplicates dropped by sequence number."""
    if n_subbuckets == rel.schema.n_subbuckets:
        return {"shipped": 0, "moved": 0, "wire_bytes": 0}
    new_schema = dataclasses.replace(rel.schema, n_subbuckets=n_subbuckets)
    codec = payload_codec(wire)
    deltas = {key: rows for key, _src, rows in rel.shard_blocks("delta")}
    blocks = []
    for key, src, rows in rel.shard_blocks("full"):
        blocks.append((src, 0, rows))
        if key in deltas:
            blocks.append((src, 1, deltas[key]))
    sends, n_shipped, n_moved = build_reshard_sends(
        blocks, rel.dist.with_subbuckets(n_subbuckets), codec
    )
    items = [
        (s, d, box)
        for s in sorted(sends)
        for d, boxes in sorted(sends[s].items())
        for box in boxes
    ]
    col = lambda f: np.asarray([f(*item) for item in items], dtype=np.int64)  # noqa: E731
    table = BoxTable(
        col(lambda s, _d, _box: s),
        col(lambda _s, d, _box: d),
        col(lambda _s, _d, box: box[3]),
        nbytes=col(lambda _s, _d, box: _charged(box, codec)),
        items=[box for _s, _d, box in items],
    )
    wire_bytes = int(table.nbytes[table.src != table.dst].sum())
    recv = cluster.alltoallv(
        table, arity=new_schema.arity, phase=BALANCE_PHASE,
        kind="rebalance", channel="rebalance", autotune=wire,
    )
    runs, seen = [], set()
    for dst in sorted(recv):
        for box in recv[dst]:
            if box[5] in seen:
                continue
            seen.add(box[5])
            b, s, kind, rows = decode_reshard_box(
                box, new_schema.arity, codec, n_subbuckets
            )
            n = rows.shape[0]
            runs.append((
                rows, np.full(n, b * n_subbuckets + s), np.full(n, kind)
            ))
    rel.install_reshard(new_schema, runs)
    return {"shipped": n_shipped, "moved": n_moved, "wire_bytes": wire_bytes}


def _reshard_outcome(reshard, rel, target, cluster, wire):
    """Everything a reshard leaves behind on ``rel`` and ``cluster``."""
    info = reshard(rel, target, cluster, wire=wire)
    installed = [
        tuple(a.tolist() for a in get(version))
        for get in (rel.table.stored, rel.table.version)
        for version in ("full", "delta")
    ]
    recorder = cluster.comm_recorder
    return {
        "info": info,
        "schema": rel.schema,
        "installed": installed,
        "events": list(cluster.ledger.comm.events),
        "phase_seconds": dict(cluster.ledger.phase_seconds),
        "collective_counts": dict(cluster.collective_counts),
        "injected": cluster.faults.stats.as_dict(),
        "matrices": [m.to_dict() for m in recorder.matrices],
        "spans": [
            (sp.name, sp.cat, sp.rank, sp.attrs) for sp in cluster.tracer.spans
        ],
    }


class TestReshardReference:
    @given(
        data=rows_strategy,
        split=st.integers(0, 60),
        aggregate=st.booleans(),
        n_sub=st.integers(1, 3),
        n_ranks=st.integers(1, 8),
        target=st.integers(1, 8),
        wire=st.booleans(),
        reorder_seed=st.one_of(st.none(), st.integers(0, 99)),
        faults=st.builds(
            FaultConfig,
            seed=st.integers(0, 99),
            drop=st.sampled_from([0.0, 0.2]),
            dup=st.sampled_from([0.0, 0.3]),
            corrupt=st.sampled_from([0.0, 0.3]),
            max_retries=st.just(12),
        ),
    )
    @settings(deadline=None)
    def test_table_reshard_equals_per_box_protocol(
        self, data, split, aggregate, n_sub, n_ranks, target, wire,
        reorder_seed, faults,
    ):
        """On any relation, empty Δ or not, the box-table reshard installs
        the same rows and segments, returns the same totals and leaves
        the same ledger events, phase seconds, collective counts,
        injected faults, comm matrices and spans as the per-box protocol
        — under drop/dup/corrupt faults and delivery reordering too.
        """
        schema = (_agg_schema if aggregate else _plain_schema)(n_sub)
        full = data[:split]
        delta = [t for t in data[split:] if t not in set(full)]

        def outcome(reshard):
            cluster = SimCluster(
                n_ranks,
                reorder_seed=reorder_seed,
                tracer=Tracer(),
                fault_plane=FaultPlane(faults, n_ranks),
                comm_recorder=CommMatrixRecorder(n_ranks),
            )
            rel = _relation(schema, n_ranks, full=full, delta=delta)
            return _reshard_outcome(reshard, rel, target, cluster, wire)

        assert outcome(reshard_relation) == outcome(reference_reshard)


# --------------------------------------------------------------------------
# engine integration: a forced resize vs the static run


@pytest.fixture(scope="module")
def graph():
    return rmat(7, 4, seed=3).with_weights(np.random.default_rng(5), 8)


class TestEngineForcedRebalance:
    def test_rebalance_matches_static_run(self, graph):
        off = run_sssp(graph, [0, 1], EngineConfig(n_ranks=8))
        on = run_sssp(graph, [0, 1], _forced())
        fp = on.fixpoint
        assert fp.relations["edge"].schema.n_subbuckets > 1
        assert on.distances == off.distances
        assert on.iterations == off.iterations
        for key in ("loaded", "emitted", "alltoall_tuples"):
            assert fp.counters[key] == off.fixpoint.counters[key]

    def test_compiled_schema_view_stays_synced(self, graph):
        from repro.queries.sssp import sssp_program
        from repro.runtime.engine import Engine

        engine = Engine(sssp_program(1), _forced())
        engine.load("edge", graph.edges)
        engine.load("start", [(0,)])
        engine.run()
        assert engine.store["edge"].schema.n_subbuckets > 1
        for name, rel in engine.store.relations.items():
            assert engine.compiled.schemas[name] is rel.schema

    def test_trace_records_rebalance_instants(self, graph):
        """One ``auto_balance`` span per loaded EDB relation, and the
        resize's exchange picks its collective in the ``balance`` phase."""
        on = run_sssp(graph, [0], _forced(tracer=Tracer()))
        spans = on.fixpoint.spans_named("auto_balance")
        assert sorted(sp.attrs["relation"] for sp in spans) == ["edge", "start"]
        choices = [
            sp for sp in on.fixpoint.spans_named("collective_choice")
            if sp.attrs["phase"] == "balance"
        ]
        assert len(choices) == 1

    def test_rebalance_phase_charged(self, graph):
        on = run_sssp(graph, [0], _forced())
        assert on.fixpoint.phase_breakdown().get("balance", 0.0) > 0.0
        kinds = [
            ev.kind for ev in on.fixpoint.ledger.comm.events
            if ev.phase == "balance"
        ]
        assert kinds == ["allgather", "rebalance"]

    def test_diagnostics_reconcile_with_rebalance_traffic(self, graph):
        on = run_sssp(
            graph, [0], _forced(diagnostics=True, tracer=Tracer())
        )
        profile = on.fixpoint.comm_profile
        assert any(m.kind == "rebalance" for m in profile.matrices)
        report = profile.reconcile(on.fixpoint.ledger.comm.by_kind)
        assert report["ok"]

    def test_quiescent_trigger_never_fires(self, graph):
        # A tolerance the one-sub-bucket placement already meets: nothing
        # is resized and nothing is charged to the balance phase.
        on = run_sssp(graph, [0], EngineConfig(n_ranks=8, auto_balance=1e9))
        off = run_sssp(graph, [0], EngineConfig(n_ranks=8))
        assert on.fixpoint.relations["edge"].schema.n_subbuckets == 1
        assert "balance" not in on.fixpoint.phase_breakdown()
        assert on.distances == off.distances


# --------------------------------------------------------------------------
# the equivalence matrix: queries × ranks × on/off


def _matrix_config(ranks, rebalance=False):
    if not rebalance:
        return EngineConfig(
            n_ranks=ranks,
            diagnostics=DiagnosticsOptions(delta_fingerprints=True),
        )
    return _forced(n_ranks=ranks, delta_fingerprints=True)


@pytest.mark.parametrize("ranks", (1, 2, 7, 64))
class TestEquivalenceMatrix:
    def test_sssp(self, graph, ranks):
        base, res = (
            run_sssp(graph, [0, 3], _matrix_config(ranks, reb))
            for reb in (False, True)
        )
        assert res.distances == base.distances
        assert res.iterations == base.iterations
        for counter in ("loaded", "emitted", "alltoall_tuples"):
            assert res.fixpoint.counters[counter] == base.fixpoint.counters[counter]
        assert [t.delta_fingerprints for t in res.fixpoint.trace] == [
            t.delta_fingerprints for t in base.fixpoint.trace
        ]

    def test_cc(self, graph, ranks):
        base, res = (
            run_cc(graph, _matrix_config(ranks, reb)) for reb in (False, True)
        )
        assert res.labels == base.labels
        assert res.iterations == base.iterations
        assert [t.delta_fingerprints for t in res.fixpoint.trace] == [
            t.delta_fingerprints for t in base.fixpoint.trace
        ]

    def test_pagerank(self, graph, ranks):
        ranks_vecs = [
            run_pagerank(graph, iterations=5, config=_matrix_config(ranks, reb))
            for reb in (False, True)
        ]
        for vec in ranks_vecs[1:]:
            assert np.array_equal(vec, ranks_vecs[0])


# --------------------------------------------------------------------------
# chaos: message faults and a crash aimed at the resize


def _chaos_config(**kw):
    return _forced(checkpoint_every=1, delta_fingerprints=True, **kw)


def _spied_run(graph, faults):
    """Run under ``faults``; return the result, the fault-plane supersteps
    of the resize's collectives and what the plane injected in them."""
    seen = {}

    def spy(rel, n_sub, cluster, **kw):
        plane = cluster.faults
        first, before = plane.superstep, plane.stats.as_dict()
        out = reshard_relation(rel, n_sub, cluster, **kw)
        seen["steps"] = list(range(first, plane.superstep))
        seen["injected"] = {
            key: n - before[key] for key, n in plane.stats.as_dict().items()
        }
        return out

    with mock.patch.object(engine_mod, "reshard_relation", spy):
        result = run_sssp(graph, [0, 1], _chaos_config(faults=faults))
    return result, seen["steps"], seen["injected"]


class TestChaos:
    def test_drop_faults_counter_for_counter(self, graph):
        clean = run_sssp(graph, [0, 1], _chaos_config())
        noisy, _steps, injected = _spied_run(
            graph, FaultConfig(seed=13, drop=0.08)
        )
        assert noisy.distances == clean.distances
        assert dict(noisy.fixpoint.counters) == dict(
            clean.fixpoint.counters
        )
        # Messages of the resize itself were dropped and resent.
        assert injected["drops"] and injected["retransmits"]
        assert noisy.fixpoint.relations["edge"].schema.n_subbuckets == (
            clean.fixpoint.relations["edge"].schema.n_subbuckets
        )

    def test_dup_and_corrupt_results_identical(self, graph):
        clean = run_sssp(graph, [0, 1], _chaos_config())
        noisy, _steps, injected = _spied_run(
            graph, FaultConfig(seed=13, dup=0.2, corrupt=0.1)
        )
        assert noisy.distances == clean.distances
        assert noisy.iterations == clean.iterations
        # duplicates re-absorb as lattice no-ops, and the reshard installs
        # the first copy of a box only: admitted and the chosen sub-bucket
        # count must still match exactly
        assert (
            noisy.fixpoint.counters["admitted"]
            == clean.fixpoint.counters["admitted"]
        )
        assert noisy.fixpoint.relations["edge"].schema.n_subbuckets == (
            clean.fixpoint.relations["edge"].schema.n_subbuckets
        )
        # The resize itself saw a duplicate and a detected corruption.
        assert injected["dups"] and injected["corruptions"]
        assert injected["detected_corruptions"] == injected["corruptions"]

    @pytest.mark.parametrize("which_event", (0, -1))
    def test_crash_mid_rebalance_replays(self, graph, which_event):
        """A crash at the resize's first collective (the heavy-key
        recount) or its last (the reshard exchange) restarts the rank and
        replays the resize: the run is the fault-free one."""
        clean = run_sssp(graph, [0, 1], _chaos_config())
        _probe, steps, _injected = _spied_run(graph, FaultConfig(seed=2))
        assert len(steps) == 2
        crashed = run_sssp(
            graph, [0, 1],
            _chaos_config(
                faults=FaultConfig(
                    seed=2, crash_rank=3, crash_superstep=steps[which_event]
                )
            ),
        )
        fp = crashed.fixpoint
        rec = fp.recovery
        assert rec.injected.crashes == 1
        assert rec.failures == 1 and rec.recoveries == 1
        assert rec.recovery_seconds > 0
        assert crashed.distances == clean.distances
        assert crashed.iterations == clean.iterations
        counters = dict(fp.counters)
        assert counters.pop("balance_retries") == 1
        assert counters == dict(clean.fixpoint.counters)
        assert fp.relations["edge"].schema == clean.fixpoint.relations["edge"].schema
        assert [t.delta_fingerprints for t in fp.trace] == [
            t.delta_fingerprints for t in clean.fixpoint.trace
        ]


# --------------------------------------------------------------------------
# Δ fingerprints


class TestDeltaFingerprints:
    def test_off_by_default(self, graph):
        res = run_sssp(graph, [0], EngineConfig(n_ranks=4))
        assert all(
            t.delta_fingerprints == {} for t in res.fixpoint.trace
        )

    def test_placement_invariant(self, graph):
        # A resized relation = different shard layout = different block
        # order; the fingerprint must not notice.
        a = run_sssp(
            graph, [0],
            EngineConfig(
                n_ranks=8, subbuckets={"edge": 1},
                diagnostics=DiagnosticsOptions(delta_fingerprints=True),
            ),
        )
        b = run_sssp(graph, [0], _forced(delta_fingerprints=True))
        assert b.fixpoint.relations["edge"].schema.n_subbuckets > 1
        assert [t.delta_fingerprints for t in a.fixpoint.trace] == [
            t.delta_fingerprints for t in b.fixpoint.trace
        ]

    def test_sensitive_to_trajectory_change(self, graph):
        config = EngineConfig(
            n_ranks=4, diagnostics=DiagnosticsOptions(delta_fingerprints=True)
        )
        a = run_sssp(graph, [0], config)
        b = run_sssp(graph, [1], config)
        assert [t.delta_fingerprints for t in a.fixpoint.trace] != [
            t.delta_fingerprints for t in b.fixpoint.trace
        ]


# --------------------------------------------------------------------------
# config default + CLI flag


class TestConfigValidation:
    def test_defaults_are_off_and_sane(self):
        cfg = EngineConfig()
        assert cfg.auto_balance is None
        assert cfg.diagnostics.delta_fingerprints is False


class TestCli:
    def test_run_accepts_rebalance_flags(self, capsys, tmp_path):
        from repro.cli import main

        rc = main([
            "run", "sssp", "--dataset", "twitter_like",
            "--scale-shift", "6", "--ranks", "8", "--subbuckets", "1",
            "--auto-balance", "1.0", "--json",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["phase_seconds"]["balance"] > 0
        assert "rebalance" not in report


# --------------------------------------------------------------------------
# the acceptance workload: one hot bucket, started at 1 sub-bucket


class TestHeavyKeyRecount:
    """A light key stays whole in its home cell at any sub-bucket count,
    so a resize recounts a relation's heavy-key set at the new count:
    the keys above m/(p·n) of its m rows."""

    N_RANKS = 16

    @classmethod
    def _edges(cls):
        """The hub-skewed graph's edges and a relation holding them at one
        sub-bucket, with the set such a load freezes (m/p: none heavy)."""
        g = skewed_hub_graph("twitter_like", ranks=cls.N_RANKS, seed=42, scale_shift=5)
        rows = np.asarray(g.edges, dtype=np.int64)
        schema = Schema(
            name="edge", arity=3, join_cols=(0,),
            heavy_keys=heavy_keys(rows, (0,), cls.N_RANKS),
        )
        rel = VersionedRelation(schema, cls.N_RANKS, seed=HashSeed().derive(42))
        rel.load(rows)
        rel.advance()
        return rel.table.version_block("full"), rel

    @pytest.mark.parametrize("wire", [False, True])
    def test_reshard_recounts_at_the_new_count(self, wire):
        """The key counts are one allgather before the exchange, wire on
        or off."""
        rows, rel = self._edges()
        assert rel.schema.heavy_keys == ()
        cluster = SimCluster(self.N_RANKS)
        reshard_relation(rel, 16, cluster, wire=wire)
        heavy = heavy_keys(rows, (0,), 16 * self.N_RANKS)
        assert len(heavy) > 10
        assert rel.schema.heavy_keys == rel.dist.schema.heavy_keys == heavy
        assert [ev.kind for ev in cluster.ledger.comm.events] == [
            "allgather", "rebalance",
        ]
        # Each light key whole in its home cell, each heavy key spread.
        _, subs = rel.table.version("full")
        is_heavy = rel.dist.heavy_rows(rel.table.version_block("full"), (0,))
        assert (subs[~is_heavy] % 16 == 0).all()
        assert np.unique(subs[is_heavy] % 16).shape[0] == 16

    def test_recount_words_per_rank(self):
        """Each rank reports a row count word and a (key, count) pair per
        key it holds that is heavy now or above m/(p·n) rows there."""
        rows = np.asarray(
            [(0, i, 1) for i in range(40)]  # a heavy hub, spread
            + [(k, i, 1) for k in range(1, 9) for i in range(k)],  # light keys
            dtype=np.int64,
        )
        schema = Schema(
            name="edge", arity=3, join_cols=(0,), n_subbuckets=4, heavy_keys=((0,),)
        )
        rel = VersionedRelation(schema, 4, seed=HashSeed().derive(3))
        rel.load(rows)
        m = rows.shape[0]
        held = {}
        for row, rank in zip(rows.tolist(), rel.dist.rank_of_rows(rows).tolist()):
            held.setdefault(rank, {}).setdefault(row[0], 0)
            held[rank][row[0]] += 1
        for n_cells in (4, 16, 64):
            want = [
                1 + 2 * sum(
                    1 for key, count in held.get(rank, {}).items()
                    if key == 0 or count * n_cells > m
                )
                for rank in range(4)
            ]
            assert recount_words(rel, n_cells).tolist() == want
        # The hub spreads, so several ranks report a partial count of it.
        assert sum(1 for keys in held.values() if 0 in keys) >= 3

    def test_recommend_projects_with_the_recounted_set(self):
        """From the set frozen at one sub-bucket (no key heavy at m/p),
        the projection recounts per trial count and picks 16; held at
        the frozen set, no count would spread a key."""
        rows, rel = self._edges()
        n_sub, report = recommend_subbuckets(
            rows, rel.schema, self.N_RANKS, seed=rel.dist.seed
        )
        assert n_sub == 16 and report.ratio_max_mean <= 2.0
        frozen = rel.dist.with_subbuckets(16)
        assert frozen.schema.heavy_keys == ()
        assert measure_imbalance(rows, frozen).ratio_max_mean > 2.0


def _hub_run(graph, subbuckets=1, **config):
    """SSSP from vertex 0 on 16 ranks, ``edge`` at ``subbuckets``."""
    return run_sssp(graph, [0], EngineConfig(
        n_ranks=16, subbuckets={"edge": subbuckets}, seed=42, **config
    ))


def _crash_config(spec):
    return dict(
        faults=FaultOptions(spec=spec),
        recovery=RecoveryOptions(checkpoint_every=2),
    )


class TestRebalanceBench:
    THRESHOLD = 0.10

    @pytest.fixture(scope="class")
    def hub_graph(self):
        return skewed_hub_graph("twitter_like", ranks=16, seed=42, scale_shift=5)

    def test_skewed_hub_graph_concentrates_one_bucket(self, hub_graph):
        # mirror the engine store's seed derivation
        rel = VersionedRelation(
            Schema(name="edge", arity=3, join_cols=(0,)), 16,
            seed=HashSeed().derive(42),
        )
        rel.load(hub_graph.edges)
        assert measure_bucket_skew(rel)["top_bucket_share"] > self.THRESHOLD

    def test_adaptive_within_ten_percent_of_tuned(self, hub_graph):
        """The documented acceptance bar: starting under-bucketed on a
        hub-skewed graph, ``auto_balance`` must beat the static run it
        started as and land within 10% (modeled) of the placement an
        offline oracle would have configured — with identical answers."""
        static_1 = _hub_run(hub_graph)
        edge = static_1.fixpoint.relations["edge"]
        tuned_subbuckets, _ = recommend_subbuckets(
            edge.table.version_block("full"), edge.schema, 16, seed=edge.dist.seed
        )
        tuned = _hub_run(hub_graph, tuned_subbuckets)
        adaptive = _hub_run(hub_graph, auto_balance=2.0)

        assert static_1.distances == tuned.distances == adaptive.distances
        assert static_1.iterations == tuned.iterations == adaptive.iterations
        fp = adaptive.fixpoint
        edge = fp.relations["edge"]
        assert edge.schema.n_subbuckets > 1
        # The resize recounted the set; ``start(x)`` has no non-join
        # column to spread by, so its load freezes none: one allgather.
        assert edge.schema.heavy_keys == heavy_keys(
            edge.table.version_block("full"), (0,), 16 * edge.schema.n_subbuckets
        )
        assert fp.relations["start"].schema.heavy_keys is None
        assert [
            ev.kind for ev in fp.ledger.comm.events if ev.phase == "load"
        ] == ["allgather"]
        # The resize is the recount's allgather and the reshard, once.
        assert [
            ev.kind for ev in fp.ledger.comm.events if ev.phase == "balance"
        ] == ["allgather", "rebalance"]
        s1, st, sa = (
            r.fixpoint.modeled_seconds() for r in (static_1, tuned, adaptive)
        )
        assert s1 > st
        assert sa < s1
        assert sa <= 1.10 * st

    def test_crash_inside_the_resize_replays(self, hub_graph):
        """Superstep 2 is the reshard's alltoallv, before any checkpoint
        exists: the rank restarts and the resize runs again."""
        clean = _hub_run(hub_graph, auto_balance=2.0)
        crashed = _hub_run(hub_graph, auto_balance=2.0, **_crash_config("crash=3@2"))
        fp = crashed.fixpoint
        rec = fp.recovery
        assert rec.injected.crashes == 1
        assert rec.failures == 1 and rec.recoveries == 1
        assert fp.counters["balance_retries"] == 1
        assert crashed.distances == clean.distances
        assert crashed.iterations == clean.iterations
        assert fp.relations["edge"].schema.n_subbuckets == (
            clean.fixpoint.relations["edge"].schema.n_subbuckets
        )

    def test_crash_inside_the_heavy_key_allgather_replays(self, hub_graph):
        """Superstep 0 is the load's heavy-key allgather: the rank
        restarts and the load shares the same set."""
        clean = _hub_run(hub_graph, 8)
        crashed = _hub_run(hub_graph, 8, **_crash_config("crash=3@0"))
        fp = crashed.fixpoint
        rec = fp.recovery
        assert rec.injected.crashes == 1
        assert rec.failures == 1 and rec.recoveries == 1
        assert fp.counters["load_retries"] == 1
        assert crashed.distances == clean.distances
        heavy = fp.relations["edge"].schema.heavy_keys
        assert heavy and heavy == clean.fixpoint.relations["edge"].schema.heavy_keys


# --------------------------------------------------------------------------
# CommMatrix rebalance channel


class TestCommMatrixChannel:
    def test_round_trips_rebalance_channel(self):
        m = CommMatrix(3, "rebalance", "rebalance", 4)
        m.add(0, 1, 64, 8, channel="rebalance")
        m.add(1, 2, 32, 4, channel="data")
        again = CommMatrix.from_dict(m.to_dict())
        assert again.bytes_total("rebalance") == 64
        assert again.bytes_total("data") == 32
        assert again.kind == "rebalance"

    def test_unknown_channel_rejected(self):
        m = CommMatrix(0, "alltoallv", "comm", 2)
        with pytest.raises(ValueError):
            m.add(0, 1, 8, 1, channel="sideband")

    def test_recorder_reports_rebalance_bytes(self):
        rec = CommMatrixRecorder(2)
        m = rec.begin("rebalance", "rebalance")
        m.add(0, 1, 128, 16, channel="rebalance")
        assert rec.to_dict()["rebalance_bytes"] == 128
