"""Diagnostics plane: comm matrices, critical path, skew doctor.

The load-bearing invariants (ISSUE 6 acceptance criteria):

* diagnostics capture is *observation only* — results and ledgers are
  bit-identical with the flag on or off;
* per-run comm-matrix byte totals reconcile exactly with the ledger's
  comm counters (data and retransmit channels separately);
* critical-path phase attributions sum to the ledger's total modeled
  time within 1e-6 relative tolerance, online and offline;
* chaos runs traced with diagnostics pass the trace validator, contain
  recovery spans, and show retransmit bytes only in the fault channel.
"""

import json
import math

import pytest

from repro import Engine, EngineConfig
from repro.api import (
    DiagnosticsOptions,
    FaultOptions,
    RecoveryOptions,
)
from repro.faults import FaultConfig
from repro.obs import Tracer
from repro.obs.analysis import (
    CommMatrix,
    collapsed_stacks,
    comm_bytes_from_spans,
    comm_profile_from_spans,
    critical_path,
    diagnose,
    diagnose_skew,
    gini,
    render_comm_heatmap,
    render_compute_heatmap,
    write_flamegraph,
)
from repro.obs.export import load_trace, validate_trace_file
from repro.queries.reachability import tc_program
from repro.queries.sssp import sssp_program

RING = [(i, (i + 1) % 24) for i in range(24)] + [(0, 7), (3, 15), (9, 2)]


def _run_tc(*, diagnostics=False, tracer=None, n_ranks=4, faults=None,
            checkpoint_every=None, **kw):
    engine = Engine(
        tc_program(),
        EngineConfig(
            n_ranks=n_ranks,
            diagnostics=DiagnosticsOptions(enabled=diagnostics, tracer=tracer),
            faults=FaultOptions(config=faults),
            recovery=RecoveryOptions(checkpoint_every=checkpoint_every),
            **kw,
        ),
    )
    engine.load("edge", RING)
    return engine.run()


# ------------------------------------------------------------- comm matrices


class TestCommMatrix:
    def test_sparse_accumulation_and_totals(self):
        m = CommMatrix(0, "alltoallv", "comm", 4)
        m.add(0, 1, 100, 5)
        m.add(0, 1, 50, 2)
        m.add(2, 3, 10, 1)
        m.add(1, 0, 7, 1, retransmit=True)
        assert m.data[(0, 1)] == [150, 7]
        assert m.bytes_total() == 160
        assert m.tuples_total() == 8
        assert m.bytes_total("retransmit") == 7
        assert m.row_bytes() == [150, 0, 10, 0]
        assert m.col_bytes() == [0, 150, 0, 10]

    def test_dense_view(self):
        m = CommMatrix(0, "alltoallv", "comm", 3)
        m.add(0, 2, 64, 1)
        dense = m.as_dense()
        assert dense.shape == (3, 3)
        assert dense[0, 2] == 64 and dense.sum() == 64

    def test_dict_round_trip(self):
        m = CommMatrix(3, "p2p", "comm", 4)
        m.add(1, 2, 99, 4)
        m.add(2, 1, 11, 1, retransmit=True)
        back = CommMatrix.from_dict(m.to_dict())
        assert back.seq == 3 and back.kind == "p2p"
        assert back.data == m.data and back.retransmit == m.retransmit

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="unknown channel"):
            CommMatrix(0, "p2p", "comm", 2).bytes_total("bogus")


class TestRecorderReconciliation:
    def test_reconciles_with_ledger(self):
        fp = _run_tc(diagnostics=True)
        report = fp.comm_profile.reconcile(fp.ledger.comm.by_kind)
        assert report["ok"], report
        # Every wire byte the ledger charged appears in some matrix.
        assert (
            report["bytes_by_kind"]["alltoallv"]
            == fp.ledger.comm.by_kind["alltoallv"][1]
            if isinstance(fp.ledger.comm.by_kind["alltoallv"], tuple)
            else True
        )

    def test_mismatch_detected(self):
        fp = _run_tc(diagnostics=True)
        fp.comm_profile.matrices[0].add(0, 1, 1, 1)  # corrupt one cell
        with pytest.raises(ValueError, match="do not reconcile"):
            fp.comm_profile.reconcile(fp.ledger.comm.by_kind)

    def test_self_sends_carry_tuples_but_no_bytes(self):
        fp = _run_tc(diagnostics=True, n_ranks=1)
        prof = fp.comm_profile
        assert prof.bytes_total() == 0  # single rank: nothing on the wire
        assert prof.tuples_total() > 0  # but tuples still moved locally
        assert prof.reconcile(fp.ledger.comm.by_kind)["ok"]

    def test_rank_superstep_grid_shape(self):
        fp = _run_tc(diagnostics=True)
        grid = fp.comm_profile.rank_superstep_bytes()
        assert grid.shape == (len(fp.comm_profile), 4)
        assert grid.sum() == fp.comm_profile.bytes_total()


class TestDiagnosticsAreObservationOnly:
    def test_results_and_ledger_bit_identical(self):
        base = _run_tc()
        diag = _run_tc(diagnostics=True, tracer=Tracer())
        assert diag.summary() == base.summary()
        assert diag.query("path") == base.query("path")

    def test_off_by_default(self):
        fp = _run_tc()
        assert fp.comm_profile is None


# ------------------------------------------------------------- critical path


class TestCriticalPath:
    def test_phase_shares_sum_to_ledger_total(self):
        fp = _run_tc(diagnostics=True, tracer=Tracer())
        cp = critical_path(fp.spans)
        cp.validate(fp.ledger.total_seconds(), rel_tol=1e-6)
        assert math.isclose(
            sum(cp.phase_shares.values()), 1.0, rel_tol=1e-6
        )
        assert cp.n_ranks == 4

    def test_phase_seconds_match_ledger_phases(self):
        fp = _run_tc(diagnostics=True, tracer=Tracer())
        cp = critical_path(fp.spans)
        for phase, seconds in fp.ledger.phase_seconds.items():
            assert math.isclose(
                cp.phase_seconds.get(phase, 0.0), seconds,
                rel_tol=1e-9, abs_tol=1e-12,
            ), phase

    def test_bounding_rank_is_argmax(self):
        fp = _run_tc(diagnostics=True, tracer=Tracer())
        cp = critical_path(fp.spans)
        for step in cp.steps:
            if step.cat != "compute" or step.seconds <= 0:
                continue
            lane = [
                sp for sp in fp.spans
                if sp.cat == "compute"
                and sp.modeled_start == step.modeled_start
                and sp.name == step.name
            ]
            best = max(sp.modeled_end - sp.modeled_start for sp in lane)
            winners = {
                sp.rank for sp in lane
                if sp.modeled_end - sp.modeled_start == best
            }
            assert step.bounding_rank in winners

    def test_straggler_shifts_bounding_rank(self):
        slow = _run_tc(
            diagnostics=True,
            tracer=Tracer(),
            faults=FaultConfig(stragglers={2: 50.0}),
        )
        cp = critical_path(slow.spans)
        join_bound = cp.bounding_rank_of("local_join")
        assert join_bound == 2

    def test_validation_rejects_wrong_total(self):
        fp = _run_tc(diagnostics=True, tracer=Tracer())
        cp = critical_path(fp.spans)
        with pytest.raises(ValueError, match="critical path sums"):
            cp.validate(fp.ledger.total_seconds() * 2)

    def test_empty_spans(self):
        cp = critical_path([])
        assert cp.total_seconds == 0.0
        assert cp.phase_shares == {}
        assert cp.dominant_phase() is None


# ---------------------------------------------------------------- skew doctor


class TestSkewDoctor:
    def test_gini(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0)
        assert gini([]) == 0.0
        assert gini([0, 0, 0, 100]) == pytest.approx(0.75)
        assert 0.0 < gini([1, 2, 3, 4]) < 0.5

    def test_healthy_run_on_even_load(self):
        fp = _run_tc(
            diagnostics=True, tracer=Tracer(), subbuckets={"edge": 8}
        )
        report = diagnose_skew(
            fp.spans, relations=fp.relations, comm_profile=fp.comm_profile
        )
        assert report.step_imbalance  # factors always computed
        for entry in report.step_imbalance:
            assert entry["imbalance"] >= 1.0
            assert 0.0 <= entry["idle_fraction"] <= 1.0

    def test_bucket_skew_flagged_on_hot_bucket(self):
        # A star graph concentrates one endpoint in a single hash bucket.
        star = [(0, i) for i in range(1, 40)]
        engine = Engine(
            tc_program(),
            EngineConfig(
                n_ranks=4,
                diagnostics=DiagnosticsOptions(enabled=True, tracer=Tracer()),
            ),
        )
        engine.load("edge", star)
        fp = engine.run()
        report = diagnose_skew(
            fp.spans, relations=fp.relations, comm_profile=fp.comm_profile
        )
        assert any(d.code == "bucket-skew" for d in report.diagnoses)
        skewed = [d for d in report.diagnoses if d.code == "bucket-skew"]
        assert all(d.recommendation for d in skewed)
        assert all(0 < d.data["top_bucket_share"] <= 1 for d in skewed)

    def test_straggler_flagged_as_compute_imbalance(self):
        fp = _run_tc(
            diagnostics=True,
            tracer=Tracer(),
            faults=FaultConfig(stragglers={1: 40.0}),
        )
        report = diagnose_skew(fp.spans, relations=fp.relations)
        hits = [d for d in report.diagnoses if d.code == "compute-imbalance"]
        assert hits  # uneven per-step load is flagged
        # The straggler dominates the critical path: rank 1 bounds most
        # compute steps (the flagged worst-imbalance steps may be early
        # ones where a single rank held all tuples).
        cp = critical_path(fp.spans)
        bound_by_1 = sum(
            1 for s in cp.steps if s.cat == "compute" and s.bounding_rank == 1
        )
        compute_steps = sum(1 for s in cp.steps if s.cat == "compute")
        assert bound_by_1 > compute_steps / 2

    def test_report_is_json_serializable(self):
        fp = _run_tc(diagnostics=True, tracer=Tracer())
        report = fp.diagnose()
        json.dumps(report.to_dict())  # must not raise
        assert "critical path" in report.render()


# -------------------------------------------------------------------- exports


class TestExports:
    def test_collapsed_stacks_weights_sum_to_total(self):
        fp = _run_tc(diagnostics=True, tracer=Tracer())
        stacks = collapsed_stacks(fp.spans)
        assert stacks
        total_us = sum(int(line.rsplit(" ", 1)[1]) for line in stacks)
        expected_us = fp.ledger.total_seconds() * 1e6
        # Per-stack rounding to integer microseconds: ±0.5us per stack.
        assert abs(total_us - expected_us) <= len(stacks)
        for line in stacks:
            stack, _weight = line.rsplit(" ", 1)
            assert stack.startswith("stratum ")

    def test_write_flamegraph(self, tmp_path):
        fp = _run_tc(diagnostics=True, tracer=Tracer())
        path = tmp_path / "fg.txt"
        n = write_flamegraph(str(path), fp.spans)
        assert n == len(path.read_text().splitlines()) and n > 0

    def test_heatmaps_render(self):
        fp = _run_tc(diagnostics=True, tracer=Tracer())
        comm = render_comm_heatmap(fp.comm_profile, width=32)
        compute = render_compute_heatmap(fp.spans, width=32)
        assert "bytes sent" in comm and "scale:" in comm
        assert "compute seconds" in compute
        # One labelled row per rank.
        assert sum(1 for ln in comm.splitlines() if "│" in ln) >= 4


class TestAsciiHeatmap:
    def test_grid_and_scale(self):
        from repro.metrics.asciiplot import ascii_heatmap

        out = ascii_heatmap(
            [[0, 1], [2, 4]], title="t", x_label="x", y_label="y"
        )
        lines = out.splitlines()
        assert lines[0] == "t"
        assert "@" in lines[2]  # max cell gets the hottest mark
        assert "scale:" in lines[-1]

    def test_downsampling_preserves_totals_visibly(self):
        import numpy as np

        from repro.metrics.asciiplot import ascii_heatmap

        grid = np.zeros((100, 500))
        grid[50, 250] = 1000.0
        out = ascii_heatmap(grid, width=40, max_rows=20)
        assert "@" in out  # the hot cell survives binning

    def test_empty_and_zero(self):
        import numpy as np

        from repro.metrics.asciiplot import ascii_heatmap

        assert ascii_heatmap(np.zeros((0, 0))) == "(no data)"
        out = ascii_heatmap(np.zeros((2, 2)))
        assert "scale:" in out


# ------------------------------------------------------------ offline traces


class TestOfflineDiagnostics:
    def test_offline_matches_online(self, tmp_path):
        fp = _run_tc(diagnostics=True, tracer=Tracer())
        online = fp.diagnose()
        path = tmp_path / "trace.json"
        fp.write_trace(str(path))
        validate_trace_file(str(path))
        spans, _meta = load_trace(str(path))
        offline = diagnose(spans)
        assert offline.comm_profile is not None
        assert (
            offline.comm_profile.bytes_total()
            == fp.comm_profile.bytes_total()
        )
        assert math.isclose(
            offline.critical_path.total_seconds,
            online.critical_path.total_seconds,
            rel_tol=1e-9,
        )
        assert offline.reconciliation is not None
        assert offline.reconciliation["ok"]
        assert offline.reconciliation == online.reconciliation

    def test_comm_spans_carry_the_ledger_bytes(self):
        fp = _run_tc(tracer=Tracer(), faults=FaultConfig(seed=7, drop=0.08))
        assert comm_bytes_from_spans(fp.spans) == fp.ledger.comm.by_kind
        assert fp.ledger.comm.by_kind["retransmit"] > 0

    def test_untraced_matrices_absent(self, tmp_path):
        fp = _run_tc(tracer=Tracer())  # tracing without diagnostics
        path = tmp_path / "t.json"
        fp.write_trace(str(path))
        spans, _meta = load_trace(str(path))
        assert comm_profile_from_spans(spans) is None

    def test_untraced_run_diagnoses_without_critical_path(self):
        """The skew doctor and the reconciliation need no spans; only the
        critical path does, and the report says so instead of raising."""
        engine = Engine(sssp_program(), EngineConfig(
            n_ranks=4, diagnostics=DiagnosticsOptions(enabled=True)
        ))
        engine.load("edge", [(i, (i + 1) % 12, 1) for i in range(12)])
        engine.load("start", [(0,)])
        report = engine.run().diagnose()
        assert report.critical_path.steps == []
        assert report.reconciliation["ok"]
        assert report.skew.relation_skew
        assert "needs a tracer" in report.render()


class TestChaosTracing:
    """Satellite: tracing under fault injection stays valid end to end."""

    def _chaos_run(self, **faults):
        return _run_tc(
            diagnostics=True,
            tracer=Tracer(),
            faults=FaultConfig(seed=7, **faults),
            checkpoint_every=2,
            n_ranks=4,
        )

    def test_drop_corrupt_trace_validates(self, tmp_path):
        fp = self._chaos_run(drop=0.05, corrupt=0.03)
        clean = _run_tc()
        assert fp.query("path") == clean.query("path")
        path = tmp_path / "chaos.json"
        fp.write_trace(str(path))
        validate_trace_file(str(path))

    def test_retransmits_only_in_fault_channel(self):
        fp = self._chaos_run(drop=0.08, corrupt=0.04)
        prof = fp.comm_profile
        assert fp.recovery.injected.retransmits > 0
        assert prof.bytes_total("retransmit") > 0
        # The fault channel reconciles against the ledger's retransmit
        # counter; the data channel matches the algorithmic traffic of a
        # fault-free run exactly (fault recovery never leaks into it).
        report = prof.reconcile(fp.ledger.comm.by_kind)
        assert report["ok"]
        clean = _run_tc(diagnostics=True)
        assert prof.bytes_total("data") == clean.comm_profile.bytes_total(
            "data"
        )
        assert clean.comm_profile.bytes_total("retransmit") == 0

    def test_crash_recovery_spans_present(self, tmp_path):
        fp = self._chaos_run(crash_rank=1, crash_superstep=6)
        assert fp.recovery.recoveries >= 1
        recovery_spans = [
            sp for sp in fp.spans
            if sp.cat == "comm" and sp.name in ("recovery", "checkpoint")
        ]
        assert any(sp.name == "recovery" for sp in recovery_spans)
        assert any(sp.name == "checkpoint" for sp in recovery_spans)
        path = tmp_path / "crash.json"
        fp.write_trace(str(path))
        stats = validate_trace_file(str(path))
        assert "recovery" in stats["names"]
        # Critical path still tiles the (now longer) modeled timeline.
        fp.diagnose()

    def test_straggler_trace_validates(self, tmp_path):
        fp = self._chaos_run(stragglers={3: 10.0})
        path = tmp_path / "straggle.json"
        fp.write_trace(str(path))
        validate_trace_file(str(path))
        spans, _meta = load_trace(str(path))
        offline = diagnose(spans)
        assert offline.reconciliation["ok"]


# --------------------------------------------------------------------- sssp


class TestSsspDiagnostics:
    def test_aggregating_program_reconciles(self):
        engine = Engine(
            sssp_program(4),
            EngineConfig(
                n_ranks=4,
                diagnostics=DiagnosticsOptions(enabled=True, tracer=Tracer()),
            ),
        )
        engine.load(
            "edge", [(i, (i + 1) % 12, 1) for i in range(12)] + [(0, 6, 9)]
        )
        engine.load("start", [(0,)])
        fp = engine.run()
        assert fp.comm_profile.reconcile(fp.ledger.comm.by_kind)["ok"]
        fp.diagnose()  # validates critical path against ledger total
