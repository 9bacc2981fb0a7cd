"""Tests for the fault plane: config parsing, deterministic injection,
checksums, conservation, and the SimCluster substrate integration."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.costmodel import CostModel
from repro.comm.simcluster import SimCluster
from repro.faults import (
    ConservationError,
    FaultConfig,
    FaultPlane,
    MessageLossError,
    PermanentRankFailure,
    RankFailure,
    check_conservation,
    corrupt_payload,
    parse_fault_spec,
    payload_checksum,
)
from repro.faults.plane import classify_loss


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
        assert fc.rates_for(0, 1) == (0.5, 0.0, 0.0)
        assert fc.rates_for(1, 0) == (0.1, 0.0, 0.0)
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
        assert fc.rates_for(0, 1) == (0.5, 0.0, 0.0)
        assert fc.rates_for(2, 3) == (0.0, 0.0, 0.25)

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


class TestChecksumAndCorruption:
    def test_checksum_stable_and_sensitive(self):
        payload = [(1, 2, 3), (4, 5, 6)]
        assert payload_checksum(payload) == payload_checksum([(1, 2, 3), (4, 5, 6)])
        assert payload_checksum(payload) != payload_checksum([(1, 2, 3), (4, 5, 7)])

    @given(st.integers(0, 2**32 - 1))
    def test_corruption_always_detected(self, seed):
        import random

        payload = [(3, 1, 4), (1, 5, 9), (2, 6, 5)]
        mutated = corrupt_payload(payload, random.Random(seed))
        assert payload_checksum(mutated) != payload_checksum(payload)

    def test_ndarray_corruption_flips_one_element(self):
        import random

        rows = np.arange(12, dtype=np.int64).reshape(4, 3)
        out = corrupt_payload([("box", rows)], random.Random(0))
        tag, mutated = out[0]
        assert tag == "box"
        assert (mutated != rows).sum() == 1
        assert rows.sum() == np.arange(12).sum()  # original untouched


class TestFaultPlaneDeterminism:
    def test_same_key_same_fate(self):
        plane_a = FaultPlane(FaultConfig(seed=3, drop=0.3, dup=0.3, corrupt=0.3), 4)
        plane_b = FaultPlane(FaultConfig(seed=3, drop=0.3, dup=0.3, corrupt=0.3), 4)
        payload = [(1, 2)]
        for step in range(8):
            for src in range(4):
                for dst in range(4):
                    a = plane_a.deliveries(step, src, dst, payload)
                    b = plane_b.deliveries(step, src, dst, payload)
                    assert [i for _, i in a] == [i for _, i in b]

    def test_attempt_decouples_draws(self):
        plane = FaultPlane(FaultConfig(seed=0, drop=0.99), 2)
        # With p=0.99 nearly every first attempt drops; some retry
        # attempt must eventually get through (independent draws).
        fates = [bool(plane.deliveries(0, 0, 1, "x", attempt=a)) for a in range(64)]
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
        plane = FaultPlane(FaultConfig(seed=5, drop=0.3, dup=0.2, corrupt=0.2), 4)
        faulty = _exchange(SimCluster(4, fault_plane=plane))
        # Retransmission + source-order reassembly: the delivered
        # sequences match a fault-free exchange except for duplicates,
        # which appear adjacent to their original.
        for dst in clean:
            dedup = []
            for t in faulty[dst]:
                if not dedup or dedup[-1] != t or clean[dst].count(t) > dedup.count(t):
                    dedup.append(t)
            assert set(faulty[dst]) == set(clean[dst])
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
