"""Tests for the α–β cost model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comm.costmodel import BYTES_PER_WORD, CommEvent, CommStats, CostModel
from repro.graphs.generators import rmat
from repro.queries.sssp import run_sssp
from repro.runtime.config import EngineConfig


class TestValidation:
    def test_defaults_valid(self):
        CostModel()

    @pytest.mark.parametrize(
        "field", ["alpha", "beta", "tuple_probe", "tuple_insert", "compute_scale"]
    )
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError, match=field):
            CostModel(**{field: 0.0})


class TestCollectiveCosts:
    def setup_method(self):
        self.cm = CostModel()

    def test_p2p_latency_floor(self):
        assert self.cm.p2p(0) == pytest.approx(self.cm.alpha)

    def test_p2p_bandwidth_term(self):
        big = self.cm.p2p(10**9)
        assert big == pytest.approx(self.cm.alpha + 10**9 / self.cm.beta)

    @given(st.integers(min_value=2, max_value=1 << 20))
    def test_allreduce_grows_logarithmically(self, p):
        t = self.cm.allreduce(p, 8)
        t2 = self.cm.allreduce(p * 2, 8)
        assert t2 >= t
        # doubling P adds at most one round
        assert t2 - t <= self.cm.alpha + 8 / self.cm.beta + 1e-12

    def test_allreduce_single_rank_cheap(self):
        assert self.cm.allreduce(1, 8) <= self.cm.alpha + 8 / self.cm.beta

    def test_allgather_zero_for_one_rank(self):
        assert self.cm.allgather(1, 100) == 0.0

    def test_allgather_payload_doubles(self):
        # total moved bytes ≈ (P-1) * nbytes; recursive doubling sums 2^k
        t = self.cm.allgather(8, 1000)
        assert t > 3 * self.cm.alpha

    def test_alltoallv_zero_for_one_rank(self):
        assert self.cm.alltoallv(1, 10**6, 5) == 0.0

    def test_alltoallv_components(self):
        t = self.cm.alltoallv(1024, 10**6, 100)
        assert t >= 100 * self.cm.alpha  # per-peer injection
        assert t >= 10**6 / self.cm.beta  # busiest-rank bandwidth

    def test_alltoallv_count_exchange_grows_with_ranks(self):
        empty_small = self.cm.alltoallv(64, 0, 0)
        empty_big = self.cm.alltoallv(16384, 0, 0)
        assert empty_big > empty_small  # the paper's sync-overhead growth

    def test_barrier_positive(self):
        assert self.cm.barrier(16) > 0


class TestComputeCosts:
    def test_compute_scale_multiplies(self):
        """On one small run, every compute charge the engine makes grows
        64x under ``compute_scale=64`` and no comm charge moves."""
        graph = rmat(6, 4, seed=3).with_weights(np.random.default_rng(5), 8)
        base, scaled = (
            run_sssp(graph, [0, 1], EngineConfig(
                n_ranks=4, cost_model=CostModel(compute_scale=k)
            )).fixpoint.ledger
            for k in (1.0, 64.0)
        )
        assert scaled.comm.events == base.comm.events

        def compute_by_phase(ledger):
            out = dict(ledger.phase_seconds)
            for event in ledger.comm.events:
                out[event.phase] -= event.seconds
            return out

        want = {p: 64 * s for p, s in compute_by_phase(base).items()}
        assert want["local_join"] > 0 and want["dedup_agg"] > 0
        assert compute_by_phase(scaled) == pytest.approx(want, rel=1e-9, abs=1e-15)
        assert scaled.rank_compute == pytest.approx(64 * base.rank_compute)

    def test_compute_scale_does_not_touch_comm(self):
        base = CostModel()
        scaled = CostModel(compute_scale=64.0)
        assert scaled.allreduce(64, 8) == base.allreduce(64, 8)
        assert scaled.alltoallv(64, 1000, 3) == base.alltoallv(64, 1000, 3)

    def test_tuple_bytes(self):
        assert CostModel.tuple_bytes(10, 3) == 10 * 3 * BYTES_PER_WORD


class TestCommStats:
    def test_record_accumulates(self):
        stats = CommStats()
        stats.record(CommEvent("alltoallv", "comm", 100, 2, 0.1))
        stats.record(CommEvent("allreduce", "vote", 8, 4, 0.01))
        stats.record(CommEvent("alltoallv", "comm", 50, 1, 0.05))
        assert stats.bytes_total == 158
        assert stats.messages == 7
        assert stats.by_kind == {"alltoallv": 150, "allreduce": 8}
        assert len(stats.events) == 3
