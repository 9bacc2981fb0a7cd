"""Tests for the BSP simulated cluster — the honesty of the substrate."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.boxes import BoxTable
from repro.comm.costmodel import CostModel
from repro.comm.ledger import PhaseLedger
from repro.comm.simcluster import SimCluster


class TestConstruction:
    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError):
            SimCluster(0)

    def test_default_cost_model(self):
        assert isinstance(SimCluster(2).cost, CostModel)


class TestAllreduce:
    def test_sum(self):
        c = SimCluster(4)
        assert c.allreduce([1, 2, 3, 4]) == 10

    def test_custom_op(self):
        c = SimCluster(3)
        assert c.allreduce([5, 1, 9], op=max) == 9

    def test_sparse_mapping(self):
        c = SimCluster(100)
        assert c.allreduce({3: 7, 50: 5}, sum) == 12

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            SimCluster(4).allreduce([1, 2])

    def test_charges_ledger(self):
        c = SimCluster(8)
        c.allreduce([0] * 8, phase="vote", nbytes=1)
        assert c.ledger.phase("vote") > 0
        assert c.ledger.comm.by_kind["allreduce"] == 8


class TestAllgatherBcastBarrier:
    def test_allgather_returns_all(self):
        c = SimCluster(3)
        assert c.allgather(["a", "b", "c"]) == ["a", "b", "c"]

    def test_allgather_length_check(self):
        with pytest.raises(ValueError):
            SimCluster(3).allgather([1])


class TestAlltoallv:
    def test_routing(self):
        c = SimCluster(3)
        sends = {
            0: {1: [(1, 1)], 2: [(2, 2)]},
            1: {0: [(0, 0)]},
        }
        recv = c.alltoallv(sends, arity=2)
        assert recv == {1: [(1, 1)], 2: [(2, 2)], 0: [(0, 0)]}

    def test_conservation(self):
        """Every sent tuple is received exactly once."""
        rng = np.random.default_rng(1)
        c = SimCluster(8)
        sends = {}
        sent = []
        for src in range(8):
            row = {}
            for dst in rng.choice(8, size=3, replace=False):
                payload = [(src, int(dst), i) for i in range(int(rng.integers(1, 5)))]
                row[int(dst)] = payload
                sent.extend(payload)
            sends[src] = row
        recv = c.alltoallv(sends, arity=3)
        received = [t for msgs in recv.values() for t in msgs]
        assert sorted(received) == sorted(sent)

    def test_destination_grouping_correct(self):
        c = SimCluster(4)
        sends = {0: {2: [(2, 9)]}, 3: {2: [(2, 7)]}}
        recv = c.alltoallv(sends, arity=2)
        assert sorted(recv[2]) == [(2, 7), (2, 9)]

    def test_deterministic_order_by_source(self):
        c = SimCluster(4)
        sends = {2: {0: ["from2"]}, 1: {0: ["from1"]}}
        recv = c.alltoallv(sends, arity=1)
        assert recv[0] == ["from1", "from2"]  # ordered by source rank

    def test_self_send_free(self):
        c = SimCluster(4)
        c.alltoallv({1: {1: [(1, 1)]}}, arity=2)
        assert c.ledger.comm.bytes_total == 0

    def test_remote_send_costs_bytes(self):
        c = SimCluster(4)
        c.alltoallv({0: {1: [(1, 2), (3, 4)]}}, arity=2)
        assert c.ledger.comm.bytes_total == 2 * 2 * 8

    def test_count_of_batched_payload(self):
        """A box of several tuples is charged all of them (``n_rows``)."""
        c = SimCluster(4)
        rows = np.asarray([[1], [2], [3]], dtype=np.int64)
        c.alltoallv(
            BoxTable(np.asarray([0]), np.asarray([1]), np.asarray([3]), rows=rows),
            arity=1,
        )
        assert c.ledger.comm.bytes_total == 3 * 1 * 8

    def test_out_of_range_destination(self):
        with pytest.raises(ValueError):
            SimCluster(2).alltoallv({0: {5: [(1,)]}}, arity=1)

    def test_empty_payload_skipped(self):
        c = SimCluster(2)
        recv = c.alltoallv({0: {1: []}}, arity=1)
        assert recv == {}
        assert c.ledger.comm.messages == 0

    @given(st.integers(min_value=2, max_value=16), st.data())
    def test_conservation_property(self, n_ranks, data):
        c = SimCluster(n_ranks)
        sends = {}
        expected = {}
        for src in range(n_ranks):
            n_msgs = data.draw(st.integers(min_value=0, max_value=3))
            row = {}
            for _ in range(n_msgs):
                dst = data.draw(st.integers(min_value=0, max_value=n_ranks - 1))
                payload = [(src, dst)]
                row.setdefault(dst, []).extend(payload)
                expected.setdefault(dst, []).extend(payload)
            if row:
                sends[src] = row
        recv = c.alltoallv(sends, arity=2)
        for dst in expected:
            assert sorted(recv[dst]) == sorted(expected[dst])


class TestLedger:
    def test_compute_step_takes_max(self):
        ledger = PhaseLedger(n_ranks=4)
        step = ledger.add_compute_step("join", np.array([1.0, 3.0, 2.0, 0.0]))
        assert step == 3.0
        assert ledger.phase("join") == 3.0

    def test_compute_step_shape_check(self):
        with pytest.raises(ValueError):
            PhaseLedger(n_ranks=4).add_compute_step("x", np.zeros(3))

    def test_imbalance_ratio(self):
        ledger = PhaseLedger(n_ranks=4)
        ledger.add_compute_step("x", np.array([4.0, 0.0, 0.0, 0.0]))
        assert ledger.imbalance_ratio() == pytest.approx(4.0)

    def test_imbalance_ratio_empty(self):
        assert PhaseLedger(n_ranks=4).imbalance_ratio() == 1.0

    def test_snapshot_deltas(self):
        ledger = PhaseLedger(n_ranks=2)
        ledger.add_compute_step("a", np.array([1.0, 0.0]))
        first = ledger.snapshot()
        assert first["a"] == 1.0
        ledger.add_compute_step("a", np.array([0.5, 0.0]))
        second = ledger.snapshot()
        assert second["a"] == pytest.approx(0.5)
