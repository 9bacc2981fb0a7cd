"""Tests for the fault plane: config parsing, deterministic injection,
checksums, conservation, and the SimCluster substrate integration."""

import itertools
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.boxes import BoxTable
from repro.comm.costmodel import CostModel
from repro.comm.simcluster import SimCluster
from repro.kernels.route import encode_wire_sends
from repro.faults import (
    ConservationError,
    FaultConfig,
    FaultPlane,
    MessageLossError,
    PermanentRankFailure,
    RankFailure,
    check_conservation,
    parse_fault_spec,
)
from repro.core.aggregators import make_aggregator
from repro.faults.invariants import monotonicity_audit
from repro.faults.plane import CorruptionError, classify_loss
from repro.relational.schema import Schema
from repro.relational.storage import VersionedRelation
from repro.util.hashing import HashSeed


class TestFaultConfig:
    def test_defaults_are_inert(self):
        fc = FaultConfig()
        assert not fc.has_crash
        assert not fc.has_message_faults

    def test_probability_ranges_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(drop=1.5)
        with pytest.raises(ValueError):
            FaultConfig(dup=-0.1)

    def test_crash_fields_must_pair(self):
        with pytest.raises(ValueError):
            FaultConfig(crash_rank=1)
        with pytest.raises(ValueError):
            FaultConfig(crash_superstep=3)

    def test_straggler_factor_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(stragglers={0: 0.5})

    def test_per_edge_rates(self):
        fc = FaultConfig(drop=0.1, per_edge={(0, 1): (0.5, 0.0, 0.0)})
        rates = fc.rates_for(np.array([0, 1]), np.array([1, 0]))
        assert rates.tolist() == [[0.5, 0.0, 0.0], [0.1, 0.0, 0.0]]
        assert fc.has_message_faults


class TestParseFaultSpec:
    def test_full_spec(self):
        fc = parse_fault_spec(
            "crash=1@12,drop=0.02,dup=0.01,corrupt=0.005,"
            "straggle=2:3.5,seed=7,retries=5"
        )
        assert fc.crash_rank == 1 and fc.crash_superstep == 12
        assert fc.drop == 0.02 and fc.dup == 0.01 and fc.corrupt == 0.005
        assert fc.stragglers == {2: 3.5}
        assert fc.seed == 7 and fc.max_retries == 5

    def test_edge_spec(self):
        fc = parse_fault_spec("edge=0>1:0.5:0:0/2>3:0:0:0.25")
        rates = fc.rates_for(np.array([0, 2]), np.array([1, 3]))
        assert rates.tolist() == [[0.5, 0.0, 0.0], [0.0, 0.0, 0.25]]

    def test_bad_specs_rejected(self):
        for bad in ("drop", "crash=1", "frobnicate=1", "drop=notanumber"):
            with pytest.raises(ValueError):
                parse_fault_spec(bad)

    def test_crash_perm_parsed(self):
        fc = parse_fault_spec("crash_perm=2@9,seed=3")
        assert fc.crash_perm_rank == 2 and fc.crash_perm_superstep == 9
        assert fc.has_crash and fc.has_permanent_crash
        assert parse_fault_spec("crash=1@5").has_permanent_crash is False

    def test_crash_perm_needs_superstep(self):
        with pytest.raises(ValueError, match="RANK@SUPERSTEP"):
            parse_fault_spec("crash_perm=2")

    def test_duplicate_keys_rejected(self):
        for bad in (
            "drop=0.1,drop=0.2",
            "seed=1,seed=2",
            "crash=1@5,crash=2@6",
            "edge=0>1:0.5:0:0,edge=1>0:0.5:0:0",
        ):
            with pytest.raises(ValueError, match="duplicate"):
                parse_fault_spec(bad)

    def test_probabilities_outside_unit_interval_rejected(self):
        for bad in ("drop=1.5", "dup=-0.1", "corrupt=1.0",
                    "edge=0>1:2.0:0:0"):
            with pytest.raises(ValueError, match=r"probability must be in"):
                parse_fault_spec(bad)

    def test_transient_and_permanent_crash_mutually_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            parse_fault_spec("crash=1@5,crash_perm=2@9")

    def test_duplicate_edge_and_straggler_rejected(self):
        with pytest.raises(ValueError, match="duplicate --faults edge"):
            parse_fault_spec("edge=0>1:0.5:0:0/0>1:0.2:0:0")
        with pytest.raises(ValueError, match="duplicate --faults straggler"):
            parse_fault_spec("straggle=2:3.0/2:4.0")


class TestRetryBudget:
    def test_exhausted_respects_budget(self):
        """``retries=N`` allows exactly N retransmission rounds."""
        for retries in (0, 2, 5):
            fc = parse_fault_spec(f"edge=0>1:0.999999:0:0,retries={retries}")
            assert fc.max_retries == retries
            plane = FaultPlane(fc, 2)
            cluster = SimCluster(2, fault_plane=plane)
            with pytest.raises(MessageLossError) as exc:
                cluster.alltoallv({0: {1: [(1,)]}}, arity=1)
            assert exc.value.attempts == retries + 1
            assert plane.stats.retransmits == retries

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            FaultConfig(max_retries=-1)


class TestFailureDetector:
    def test_classify_loss_escalates_toward_dead_endpoint(self):
        plane = FaultPlane(
            FaultConfig(crash_perm_rank=1, crash_perm_superstep=0), 4
        )
        plane.permanent.add(1)
        err = classify_loss(plane, 0, 1, attempt=4)
        assert isinstance(err, PermanentRankFailure)
        assert err.rank == 1
        # Dead *sender* detected too (its acks never come).
        assert isinstance(classify_loss(plane, 1, 2, 4), PermanentRankFailure)
        # A flaky link between live peers stays a message loss.
        err3 = classify_loss(plane, 0, 2, attempt=4)
        assert isinstance(err3, MessageLossError)
        assert not isinstance(err3, RankFailure)

    def test_permanent_crash_fires_and_counts(self):
        plane = FaultPlane(
            FaultConfig(crash_perm_rank=1, crash_perm_superstep=2), 4
        )
        assert plane.crash_due(0) is None
        assert plane.crash_due(2) == 1
        assert plane.is_permanent(1)
        assert plane.stats.crashes == 1
        assert plane.stats.permanent_crashes == 1
        with pytest.raises(PermanentRankFailure):
            plane.check_alive(3, "allreduce")

    def test_mark_restarted_refuses_permanent_loss(self):
        plane = FaultPlane(
            FaultConfig(crash_perm_rank=1, crash_perm_superstep=0), 4
        )
        plane.crash_due(0)
        with pytest.raises(ValueError, match="mark_excluded"):
            plane.mark_restarted(1)

    def test_mark_excluded_silences_rendezvous_but_stays_dead(self):
        plane = FaultPlane(
            FaultConfig(crash_perm_rank=1, crash_perm_superstep=0), 4
        )
        plane.crash_due(0)
        plane.mark_excluded(1)
        plane.check_alive(5, "allreduce")  # survivors proceed
        assert plane.is_permanent(1)
        assert 1 in plane.excluded

    def test_simcluster_escalates_exhaustion_toward_dead_rank(self):
        """Timeout-based detection: retry-budget exhaustion toward a
        permanently dead endpoint surfaces as PermanentRankFailure, not a
        plain message loss."""
        plane = FaultPlane(
            FaultConfig(
                seed=0,
                per_edge={(0, 1): (1.0 - 1e-12, 0.0, 0.0)},
                max_retries=2,
            ),
            2,
        )
        plane.permanent.add(1)  # detector state: peer is known-dead
        plane.excluded.add(1)
        cluster = SimCluster(2, fault_plane=plane)
        with pytest.raises(PermanentRankFailure):
            cluster.alltoallv({0: {1: [(1,)]}}, arity=1)


@st.composite
def _sent_messages(draw):
    """A table of 1–6 boxes, encoded (framed ``delta`` payloads, each
    box's frame carrying a header word) or raw (an int64 row block), and
    one message of it: some of its boxes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = rng.integers(1, 5, int(rng.integers(1, 7)))
    src = np.zeros(n_rows.shape[0], dtype=np.int64)
    rows = rng.integers(-2**40, 2**40, (int(n_rows.sum()), 3))
    table = BoxTable(src, src + 1, n_rows, rows=rows)
    if draw(st.booleans()):
        table.header = rng.integers(0, 2**20, (n_rows.shape[0], 1))
        table = encode_wire_sends(table, codec="delta")
    boxes = np.flatnonzero(rng.random(n_rows.shape[0]) < 0.7)
    return table, boxes if boxes.shape[0] else np.arange(1)


class TestChecksumAndCorruption:
    @given(_sent_messages(), st.data())
    def test_any_flip_is_rejected_and_the_sender_keeps_its_bytes(self, sent, data):
        """The substrate counts every corrupted copy as detected without
        computing a checksum: a corrupted copy has one bit of its bytes
        flipped, and CRC-32 over a message's bytes — its payload slices
        with the wire on, its row-block slices with it off — rejects any
        such copy, the sender's buffers untouched."""
        table, boxes = sent
        buffers = [table.rows.copy()] + (
            [] if table.payload is None else [table.payload.copy()]
        )
        if table.payload is None:
            message = table.rows_of(boxes)
        else:
            message = table.payload_of(boxes)
        data_bytes = message.tobytes()
        bit = data.draw(st.integers(0, 8 * len(data_bytes) - 1))
        copy = bytearray(data_bytes)
        copy[bit >> 3] ^= 1 << (bit & 7)
        assert zlib.crc32(copy) != zlib.crc32(message.tobytes())
        assert np.array_equal(table.rows, buffers[0])
        if table.payload is not None:
            assert np.array_equal(table.payload, buffers[1])

    @pytest.mark.parametrize("seed", range(4))
    def test_faulted_order_is_the_fault_free_order_with_dups_in_place(self, seed):
        """Drops are retransmitted and every duplicated message's boxes
        follow themselves, receivers in the fault-free order — also when
        a receiver's first message was dropped."""
        rng = np.random.default_rng(seed)
        n_ranks = 6
        pairs = [(s, d) for s in range(n_ranks) for d in range(n_ranks)]
        n_boxes = rng.integers(1, 4, len(pairs))
        src = np.repeat([s for s, _ in pairs], n_boxes)
        dst = np.repeat([d for _, d in pairs], n_boxes)
        perm = rng.permutation(src.shape[0])  # messages' boxes interleaved
        n_rows = rng.integers(1, 4, src.shape[0])
        table = BoxTable(src[perm], dst[perm], n_rows,
                         rows=rng.integers(0, 99, (int(n_rows.sum()), 2)))
        clean = SimCluster(n_ranks).alltoallv(table, arity=2)
        plane = FaultPlane(
            FaultConfig(seed=seed, drop=0.3, dup=0.3, max_retries=20), n_ranks
        )
        faulty = SimCluster(n_ranks, fault_plane=plane).alltoallv(table, arity=2)
        assert plane.stats.drops and plane.stats.dups
        expect, doubled = [], 0
        got = faulty.order.tolist()
        for _dst, boxes in clean.boxes():
            ends = np.flatnonzero(np.diff(table.src[boxes], append=-1))
            for message in np.split(boxes, ends[:-1] + 1):
                block = message.tolist()
                lo = len(expect)
                twice = got[lo + len(block) : lo + 2 * len(block)] == block
                expect += block * (2 if twice else 1)
                doubled += twice
        assert got == expect
        assert doubled == plane.stats.dups
        assert faulty.dsts.tolist() == clean.dsts.tolist()


class TestFaultPlaneDeterminism:
    def test_same_key_same_fate(self):
        """Two planes of one config draw the same fates, and a message's
        fate is the same drawn alone or beside the whole superstep's."""
        config = FaultConfig(seed=3, drop=0.3, dup=0.3, corrupt=0.3)
        src, dst = (a.ravel() for a in np.indices((4, 4)))
        src, dst = src[src != dst], dst[src != dst]
        rows = np.arange(src.shape[0]) % 6  # some messages without rows
        plane_a, plane_b = FaultPlane(config, 4), FaultPlane(config, 4)
        for step in range(8):
            a = plane_a.fates(step, src, dst, rows)
            b = plane_b.fates(step, src, dst, rows)
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
            copies, corrupted = a
            assert (corrupted <= copies).all()
            assert not corrupted[rows == 0].any()  # no bit to flip
            for i in range(src.shape[0]):
                one = plane_b.fates(step, src[i:i + 1], dst[i:i + 1], rows[i:i + 1])
                assert one[0][0] == copies[i] and one[1][0] == corrupted[i]
        assert plane_a.stats.drops and plane_a.stats.dups and plane_a.stats.corruptions

    def test_attempt_decouples_draws(self):
        plane = FaultPlane(FaultConfig(seed=0, drop=0.99), 2)
        # With p=0.99 nearly every first attempt drops; some retry
        # attempt must eventually get through (independent draws).
        one = np.ones(1, dtype=np.int64)
        fates = [plane.fates(0, one * 0, one, one, attempt=a)[0][0] for a in range(64)]
        assert any(fates)

    def test_crash_fires_once(self):
        plane = FaultPlane(FaultConfig(crash_rank=1, crash_superstep=2), 4)
        assert plane.crash_due(0) is None
        assert plane.crash_due(2) == 1
        with pytest.raises(RankFailure):
            plane.check_alive(3, "allreduce")
        plane.mark_restarted(1)
        assert plane.crash_due(5) is None  # replay does not re-kill
        plane.check_alive(5, "allreduce")  # healthy again

    def test_straggler_scale(self):
        plane = FaultPlane(FaultConfig(stragglers={2: 4.0}), 4)
        scale = plane.straggler_scale()
        assert scale.tolist() == [1.0, 1.0, 4.0, 1.0]
        assert FaultPlane(FaultConfig(), 4).straggler_scale() is None

    def test_out_of_range_ranks_rejected(self):
        with pytest.raises(ValueError):
            FaultPlane(FaultConfig(crash_rank=9, crash_superstep=1), 4)
        with pytest.raises(ValueError):
            FaultPlane(FaultConfig(stragglers={9: 2.0}), 4)

    @pytest.mark.parametrize(
        "edge, message",
        [
            ((9, 1), "edge rank 9 out of range for 4 ranks"),
            ((1, 4), "edge rank 4 out of range for 4 ranks"),
            ((-1, 1), "edge rank -1 out of range for 4 ranks"),
            ((1, 1), "edge 1>1 is a self-edge"),
        ],
        ids=["src-too-high", "dst-too-high", "negative", "self-edge"],
    )
    def test_edge_ranks_checked(self, edge, message):
        """An edge override that can never fire is refused, not ignored."""
        with pytest.raises(ValueError, match=message):
            FaultPlane(FaultConfig(per_edge={edge: (0.5, 0.0, 0.0)}), 4)


def _min_relation(rows):
    schema = Schema(name="a", arity=3, join_cols=(0,), n_dep=1,
                    aggregator=make_aggregator("min"))
    rel = VersionedRelation(schema, 4, seed=HashSeed().derive(7))
    rel.load(rows)
    return rel


class TestMonotonicityAudit:
    def test_improvements_and_new_groups_pass(self):
        rel = _min_relation([(1, 2, 9), (3, 4, 5)])
        before = rel.table.stored()[0].copy()
        rel.load([(1, 2, 4), (5, 6, 1), (3, 4, 8)])
        monotonicity_audit(before, rel)

    def test_regressed_accumulator_raises(self):
        rel = _min_relation([(1, 2, 9), (3, 4, 5)])
        before = rel.table.stored()[0].copy()
        rows = rel.table.stored()[0]  # the store's own rows
        rows[rows[:, 0] == 3, 2] = 7
        with pytest.raises(CorruptionError, match=r"\(3, 4\) regressed \(5,\) -> \(7,\)"):
            monotonicity_audit(before, rel)

    def test_vanished_group_raises(self):
        rel = _min_relation([(1, 2, 9)])
        before = np.asarray([[1, 2, 9], [3, 4, 5]])
        with pytest.raises(CorruptionError, match=r"group \(3, 4\) vanished"):
            monotonicity_audit(before, rel)


class TestConservation:
    def test_balanced_ok(self):
        check_conservation(10, 10)
        check_conservation(10, 13, 3)

    def test_violation_raises(self):
        with pytest.raises(ConservationError):
            check_conservation(10, 9)
        with pytest.raises(ConservationError):
            check_conservation(10, 12, 1)


def _exchange(cluster, n=4):
    """All-pairs exchange of distinct tuples; returns recv dict."""
    sends = {
        src: {dst: [(src, dst, k) for k in range(3)] for dst in range(n)}
        for src in range(n)
    }
    return cluster.alltoallv(sends, arity=3, phase="comm")


class TestSimClusterFaults:
    def test_fault_free_recv_unchanged(self):
        clean = _exchange(SimCluster(4))
        plane = FaultPlane(FaultConfig(seed=6, drop=0.3, dup=0.2, corrupt=0.2), 4)
        faulty = _exchange(SimCluster(4, fault_plane=plane))
        # Retransmission + source-order reassembly: the delivered
        # sequences match a fault-free exchange except for duplicates,
        # which appear adjacent to their original.  A message is three
        # boxes (one per tuple), so a duplicated one repeats as a block.
        for dst in clean:
            dedup = []
            for src, run in itertools.groupby(faulty[dst], key=lambda t: t[0]):
                run = list(run)
                message = [t for t in clean[dst] if t[0] == src]
                copies, rest = divmod(len(run), len(message))
                assert not rest and run == message * copies
                dedup += message
            assert dedup == clean[dst]
        assert plane.stats.drops + plane.stats.dups + plane.stats.corruptions > 0

    def test_drop_only_recv_identical(self):
        clean = _exchange(SimCluster(4))
        plane = FaultPlane(FaultConfig(seed=1, drop=0.3, max_retries=8), 4)
        faulty = _exchange(SimCluster(4, fault_plane=plane))
        assert faulty == clean
        assert plane.stats.drops > 0
        assert plane.stats.retransmits == plane.stats.drops

    def test_corrupt_only_recv_identical_and_detected(self):
        clean = _exchange(SimCluster(4))
        plane = FaultPlane(FaultConfig(seed=2, corrupt=0.4), 4)
        faulty = _exchange(SimCluster(4, fault_plane=plane))
        assert faulty == clean
        assert plane.stats.corruptions > 0
        assert plane.stats.detected_corruptions == plane.stats.corruptions

    def test_retransmits_charged_to_ledger(self):
        plane = FaultPlane(FaultConfig(seed=1, drop=0.3, max_retries=8), 4)
        cluster = SimCluster(4, fault_plane=plane)
        _exchange(cluster)
        kinds = [e.kind for e in cluster.ledger.comm.events]
        assert "retransmit" in kinds
        assert cluster.ledger.comm.by_kind.get("retransmit", 0) > 0  # bytes

    def test_loss_budget_exhaustion(self):
        plane = FaultPlane(
            FaultConfig(seed=0, per_edge={(0, 1): (1.0 - 1e-12, 0.0, 0.0)},
                        max_retries=2),
            2,
        )
        cluster = SimCluster(2, fault_plane=plane)
        with pytest.raises(MessageLossError):
            cluster.alltoallv({0: {1: [(1,)]}}, arity=1)

    def test_crash_detected_at_collective(self):
        plane = FaultPlane(FaultConfig(crash_rank=1, crash_superstep=1), 4)
        cluster = SimCluster(4, fault_plane=plane)
        cluster.allgather([0, 0, 0, 0])  # superstep 0: before the crash
        with pytest.raises(RankFailure) as exc:
            cluster.allreduce([1, 1, 1, 1])
        assert exc.value.rank == 1
        assert any(e.kind == "fault_detect" for e in cluster.ledger.comm.events)

    def test_straggler_stretches_compute(self):
        plane = FaultPlane(FaultConfig(stragglers={1: 5.0}), 4)
        slow = SimCluster(4, fault_plane=plane)
        fast = SimCluster(4)
        work = np.array([1.0, 1.0, 1.0, 1.0])
        slow.ledger.add_compute_step("join", work)
        fast.ledger.add_compute_step("join", work)
        assert slow.ledger.phase("join") == 5.0 * fast.ledger.phase("join")

    def test_inert_plane_costs_nothing(self):
        clean = SimCluster(4)
        planed = SimCluster(4, fault_plane=FaultPlane(FaultConfig(), 4))
        _exchange(clean)
        _exchange(planed)
        assert planed.ledger.comm.bytes_total == clean.ledger.comm.bytes_total
        assert planed.ledger.total_seconds() == clean.ledger.total_seconds()
