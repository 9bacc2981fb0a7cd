"""Observability tests: tracer, metrics view, ledger spans, export, CLI."""

import json

import numpy as np
import pytest

from repro import Engine, EngineConfig, Tracer
from repro.comm.costmodel import CommEvent
from repro.comm.ledger import PhaseLedger
from repro.api import DiagnosticsOptions, Options, Session
from repro.obs import NULL_TRACER, NullTracer
from repro.obs.export import chrome_trace, validate_chrome_trace, validate_trace_file
from repro.queries.sssp import sssp_program
from repro.runtime.result import _summary

EDGES = [(0, 1, 4), (0, 2, 9), (1, 2, 1), (2, 3, 2), (3, 1, 1), (3, 4, 3)]
PIPELINE_PHASES = ("vote", "intra_bucket", "local_join", "comm", "dedup_agg")


def run_traced(n_ranks=4, **config_kwargs):
    tracer = Tracer()
    engine = Engine(
        sssp_program(),
        EngineConfig(
            n_ranks=n_ranks, diagnostics=DiagnosticsOptions(tracer=tracer),
            **config_kwargs,
        ),
    )
    engine.load("edge", EDGES)
    engine.load("start", [(0,)])
    return engine.run(), tracer


@pytest.fixture(scope="module")
def traced():
    return run_traced()


class TestTracer:
    def test_span_nesting_parent_ids(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # children close (and are appended) before parents
        assert [s.name for s in tr.spans] == ["inner", "outer"]

    def test_wall_clock_monotone(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        (sp,) = tr.spans
        assert sp.wall_end >= sp.wall_start >= 0.0

    def test_modeled_clock_advances_only_by_charge(self):
        tr = Tracer()
        with tr.span("a") as sp:
            start, end = tr.advance_modeled(2.5)
        assert (start, end) == (0.0, 2.5)
        assert sp.modeled_start == 0.0 and sp.modeled_end == 2.5
        assert sp.modeled_seconds == 2.5
        with tr.span("b") as sp2:
            pass
        assert sp2.modeled_seconds == 0.0  # no charge, no modeled time

    def test_record_inherits_iteration_and_stratum(self):
        tr = Tracer()
        with tr.span("iteration", cat="iteration", iteration=3, stratum=1):
            sp = tr.record("local_join", rank=2, modeled_start=0.0, modeled_end=1.0)
        assert sp.iteration == 3 and sp.stratum == 1 and sp.rank == 2

    def test_span_closed_on_exception(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("broken"):
                raise ValueError("boom")
        assert len(tr.spans) == 1
        assert tr.spans[0].wall_end >= tr.spans[0].wall_start
        # the stack unwound: a new span is top-level again
        with tr.span("next") as sp:
            pass
        assert sp.parent_id is None

    def test_instant_zero_duration(self):
        tr = Tracer()
        tr.advance_modeled(1.0)
        sp = tr.instant("mark", attrs={"k": 1})
        assert sp.modeled_start == sp.modeled_end == 1.0
        assert sp.wall_seconds == 0.0
        assert sp.attrs == {"k": 1}


class TestNullTracer:
    def test_disabled_and_inert(self):
        tr = NullTracer()
        assert tr.enabled is False
        with tr.span("anything", rank=3) as sp:
            assert sp is None
        assert tr.spans == []
        assert tr.record("x") is None
        assert tr.advance_modeled(5.0) == (0.0, 0.0)

    def test_shared_singleton_never_accumulates(self):
        engine = Engine(sssp_program(), EngineConfig(n_ranks=2))
        engine.load("edge", EDGES)
        engine.load("start", [(0,)])
        result = engine.run()
        assert engine.tracer is NULL_TRACER
        assert result.spans == []
        assert NULL_TRACER.spans == []


class TestMetricsView:
    def test_summary_nearest_rank(self):
        s = _summary([4.0, 1.0, 3.0, 2.0])
        assert s == {
            "count": 4, "sum": 10.0, "min": 1.0, "max": 4.0, "mean": 2.5,
            "p50": 2.0, "p90": 4.0, "p99": 4.0,
        }

    def test_untraced_run_has_empty_sections(self):
        engine = Engine(sssp_program(), EngineConfig(n_ranks=2))
        engine.load("edge", EDGES)
        engine.load("start", [(0,)])
        assert engine.run().metrics_dict() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_view_is_json_serializable(self, traced):
        result, _ = traced
        json.dumps(result.metrics_dict())

    def test_sources(self, traced):
        """Each section reads the one record of its number."""
        result, _ = traced
        md = result.metrics_dict()
        counters, gauges, hists = md["counters"], md["gauges"], md["histograms"]
        assert counters["comm_bytes"] == result.ledger.comm.bytes_total
        assert counters["comm_messages"] == result.ledger.comm.messages
        for kind, nbytes in result.ledger.comm.by_kind.items():
            assert hists[f"comm_bytes/{kind}"]["sum"] == nbytes
        assert gauges["modeled_seconds"] == result.ledger.total_seconds()
        assert gauges["wall_seconds"] == result.timer.total()
        assert gauges["wire_bytes_saved"] == (
            result.counters["wire_precombine_bytes"]
            - result.counters["wire_on_wire_bytes"]
        )
        choices = result.spans_named("collective_choice")
        assert choices
        assert gauges["wire_collective_saved_seconds"] == sum(
            sp.attrs["saved_seconds"] for sp in choices
        )
        # compute_seconds: every rank, every step — zeros included — and
        # over all phases the spans add up to the ledger's per-rank vector.
        n_steps = len({
            sp.modeled_start for sp in result.spans
            if sp.cat == "compute" and sp.name == "local_join"
        })
        assert hists["compute_seconds/local_join"]["count"] == 4 * n_steps
        assert sum(
            h["sum"] for name, h in hists.items()
            if name.startswith("compute_seconds/")
        ) == pytest.approx(float(result.ledger.rank_compute.sum()), rel=1e-9)
        assert hists["rank_compute_seconds"]["count"] == 4
        assert hists["admitted_per_iteration"]["sum"] == sum(
            t.admitted for t in result.trace
        )

    def test_no_drift_across_session_updates(self):
        """Two updates rebuild the result twice: the view still holds one
        sample per rank and one per stored tuple (a registry that folded
        every rebuild held three of each)."""
        session = Session(Options(
            n_ranks=4, diagnostics=DiagnosticsOptions(tracer=Tracer())
        ))
        edges = [(i, (i + 1) % 9, 1 + i % 3) for i in range(9)]
        session.query(sssp_program(), {"edge": edges[:5], "start": [(0,)]})
        session.update({"edge": edges[5:7]})
        result = session.update({"edge": edges[7:]})
        hists = result.metrics_dict()["histograms"]
        assert hists["rank_compute_seconds"]["count"] == 4
        assert hists["relation_tuples_by_rank"]["sum"] == sum(
            rel.full_size() for rel in result.relations.values()
        )


class TestLedgerSpans:
    def test_compute_step_emits_per_rank_spans(self):
        tr = Tracer()
        ledger = PhaseLedger(n_ranks=3, tracer=tr)
        ledger.add_compute_step("local_join", np.array([1.0, 0.5, 0.0]))
        spans = [s for s in tr.spans if s.cat == "compute"]
        # rank 2 did no work -> no span; others sized to their own seconds
        assert {(s.rank, s.modeled_seconds) for s in spans} == {(0, 1.0), (1, 0.5)}
        # the clock advanced by the superstep max
        assert tr.modeled_now == 1.0
        assert ledger.total_seconds() == 1.0

    def test_comm_emits_span_on_every_rank(self):
        tr = Tracer()
        ledger = PhaseLedger(n_ranks=4, tracer=tr)
        ledger.add_comm(CommEvent(
            kind="alltoallv", phase="comm", nbytes=640, messages=12, seconds=0.25,
        ))
        spans = [s for s in tr.spans if s.cat == "comm"]
        assert sorted(s.rank for s in spans) == [0, 1, 2, 3]
        assert all(s.name == "alltoallv" for s in spans)
        assert all(s.attrs["nbytes"] == 640 for s in spans)
        assert all((s.modeled_start, s.modeled_end) == (0.0, 0.25) for s in spans)

    def test_modeled_clock_matches_ledger_total(self):
        tr = Tracer()
        ledger = PhaseLedger(n_ranks=2, tracer=tr)
        ledger.add_compute_step("a", np.array([1.0, 2.0]))
        ledger.add_compute_scalar("b", 0.5)
        ledger.add_comm(CommEvent("allreduce", "vote", 8, 2, 0.125))
        assert tr.modeled_now == pytest.approx(ledger.total_seconds())

    def test_scalar_compute_charges_every_rank(self):
        """Regression: scalar compute must charge rank_compute (it used to
        vanish, silently skewing imbalance_ratio downward)."""
        ledger = PhaseLedger(n_ranks=4)
        ledger.add_compute_step("a", np.array([4.0, 0.0, 0.0, 0.0]))
        assert ledger.imbalance_ratio() == pytest.approx(4.0)
        ledger.add_compute_scalar("a", 1.0)
        # replicated work: every rank +1 -> max 5, mean 2
        assert np.allclose(ledger.rank_compute, [5.0, 1.0, 1.0, 1.0])
        assert ledger.imbalance_ratio() == pytest.approx(2.5)
        # phase charge is the step time, not n_ranks * step
        assert ledger.phase("a") == pytest.approx(5.0)

    def test_scalar_only_ledger_is_balanced(self):
        ledger = PhaseLedger(n_ranks=8)
        ledger.add_compute_scalar("setup", 2.0)
        assert ledger.imbalance_ratio() == pytest.approx(1.0)
        assert float(ledger.rank_compute.sum()) == pytest.approx(16.0)


class TestEngineIntegration:
    def test_all_pipeline_phases_have_spans(self, traced):
        result, _ = traced
        names = {s.name for s in result.spans if s.cat == "phase"}
        for phase in PIPELINE_PHASES:
            assert phase in names

    def test_rank_lanes_present(self, traced):
        result, _ = traced
        assert {s.rank for s in result.spans if s.rank is not None} == {0, 1, 2, 3}
        lane = result.rank_spans(0)
        assert lane and all(s.rank == 0 for s in lane)
        starts = [s.modeled_start for s in lane]
        assert starts == sorted(starts)

    def test_iteration_and_stratum_spans(self, traced):
        result, _ = traced
        iters = [s for s in result.spans if s.cat == "iteration"]
        assert len(iters) >= result.iterations
        assert {s.cat for s in result.spans} >= {"run", "stratum", "iteration"}

    def test_span_stream_matches_ledger_and_timer_deltas(self, traced):
        """Acceptance: the span stream's per-iteration deltas are the
        trace's (the one history), and the trace's deltas add up to the
        ledger's and the timer's totals."""
        result, _ = traced
        summaries = [s for s in result.spans if s.name == "iteration_summary"]
        assert summaries
        assert [s.attrs["modeled_phase_seconds"] for s in summaries] == [
            t.phase_seconds for t in result.trace
        ]
        assert [s.attrs["wall_phase_seconds"] for s in summaries] == [
            t.wall_phase_seconds for t in result.trace
        ]
        for phase, seconds in result.ledger.phase_seconds.items():
            assert sum(
                t.phase_seconds.get(phase, 0.0) for t in result.trace
            ) == pytest.approx(seconds, rel=1e-9), phase

    def test_modeled_clock_equals_modeled_seconds(self, traced):
        result, tracer = traced
        assert tracer.modeled_now == pytest.approx(result.modeled_seconds())

    def test_metrics_populated(self, traced):
        result, _ = traced
        md = result.metrics_dict()
        assert md["counters"]["tuples/admitted"] == result.counters["admitted"]
        assert md["gauges"]["iterations"] == result.iterations
        assert md["histograms"]["rank_compute_seconds"]["count"] == 4
        assert md["histograms"]["admitted_per_iteration"]["count"] == len(result.trace)

    def test_traced_run_result_unchanged(self, traced):
        """Tracing is observation only: results match an untraced run."""
        result, _ = traced
        engine = Engine(sssp_program(), EngineConfig(n_ranks=4))
        engine.load("edge", EDGES)
        engine.load("start", [(0,)])
        untraced = engine.run()
        assert untraced.query("spath") == result.query("spath")
        assert untraced.modeled_seconds() == pytest.approx(result.modeled_seconds())
        assert untraced.ledger.comm.bytes_total == result.ledger.comm.bytes_total


class TestChromeExport:
    def test_valid_and_loadable(self, traced, tmp_path):
        result, _ = traced
        path = str(tmp_path / "trace.json")
        n = result.write_trace(path)
        with open(path) as fh:
            obj = json.load(fh)
        stats = validate_chrome_trace(obj)
        assert stats["events"] == n
        assert stats["rank_lanes"] == [0, 1, 2, 3]
        for phase in PIPELINE_PHASES:
            assert phase in stats["names"]

    def test_process_metadata_names_ranks(self, traced):
        result, _ = traced
        obj = chrome_trace(result.spans)
        meta = {
            ev["pid"]: ev["args"]["name"]
            for ev in obj["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert meta[0] == "driver (wall clock)"
        assert meta[1] == "rank 0 (modeled)"
        assert len(meta) == 5  # driver + 4 ranks

    def test_timestamps_non_negative_and_nested(self, traced):
        result, _ = traced
        stats = validate_chrome_trace(chrome_trace(result.spans))
        assert stats["events"] > 0  # validator enforces ts/dur/nesting

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"foo": 1})
        with pytest.raises(ValueError, match="missing"):
            validate_chrome_trace({"traceEvents": [{"ph": "X", "name": "x"}]})
        with pytest.raises(ValueError, match="negative"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": -1, "dur": 1}
            ]})

    def test_rejects_overlapping_lane(self):
        events = [
            {"ph": "X", "name": "a", "pid": 1, "tid": 0, "ts": 0, "dur": 10},
            {"ph": "X", "name": "b", "pid": 1, "tid": 0, "ts": 5, "dur": 10},
        ]
        with pytest.raises(ValueError, match="overlaps"):
            validate_chrome_trace({"traceEvents": events})


class TestCli:
    def test_run_with_trace_and_json(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "trace.json")
        rc = main([
            "run", "sssp", "--dataset", "topcats", "--ranks", "4",
            "--scale-shift", "4", "--trace", path, "--json",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["iterations"] > 0
        assert set(PIPELINE_PHASES) <= set(report["phase_seconds"])
        assert report["trace"]["format"] == "chrome"
        assert validate_trace_file(path)["rank_lanes"] == [0, 1, 2, 3]

    def test_query_json_report(self, capsys):
        from repro.cli import main

        rc = main(["query", "examples/programs/sssp.dl", "--ranks", "2", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outputs"]["spath"] > 0
        assert "phase_seconds" in report

    def test_spmd_rejects_trace(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="BSP"):
            main([
                "query", "examples/programs/sssp.dl", "--spmd",
                "--trace", str(tmp_path / "t.json"),
            ])
