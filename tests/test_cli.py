"""CLI tests (argument parsing and end-to-end command paths)."""

import re

import pytest

from repro.cli import main


class TestDatasets:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "twitter_like" in out and "stokes" in out


class TestRun:
    def test_sssp(self, capsys):
        rc = main([
            "run", "sssp", "--dataset", "topcats", "--ranks", "8",
            "--scale-shift", "3", "--sources", "0,1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shortest paths" in out
        assert "modeled cluster time" in out

    def test_cc(self, capsys):
        rc = main([
            "run", "cc", "--dataset", "flickr", "--ranks", "8",
            "--scale-shift", "4",
        ])
        assert rc == 0
        assert "components" in capsys.readouterr().out

    def test_no_dynamic_join_flag(self, capsys):
        rc = main([
            "run", "sssp", "--dataset", "topcats", "--ranks", "4",
            "--scale-shift", "4", "--no-dynamic-join",
        ])
        assert rc == 0

    def test_unknown_dataset_raises(self):
        with pytest.raises(SystemExit, match="bad --dataset: unknown dataset 'missing'"):
            main(["run", "sssp", "--dataset", "missing"])

    def test_unknown_query_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "pagerank"])

    @pytest.mark.parametrize("command", ["run", "update", "query"])
    @pytest.mark.parametrize(
        "flags",
        [["--wire-codec", "delta"], ["--alltoallv", "auto"], ["--no-sender-combine"]],
        ids=["wire-codec", "alltoallv", "no-sender-combine"],
    )
    def test_removed_wire_flags_are_usage_errors(self, capsys, command, flags):
        """The wire layer has one switch, ``--no-wire``: a script still
        passing a removed knob fails loudly instead of running another
        configuration."""
        with pytest.raises(SystemExit) as exc:
            main([command, "sssp", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"unrecognized arguments: {' '.join(flags)}" in err


class TestOptionErrorsNameTheirFlag:
    """A bad option value exits with one line naming *its* flag, on every
    subcommand that takes it; only a fault-spec error says ``--faults``."""

    SMALL = ["--dataset", "topcats", "--scale-shift", "4"]

    @pytest.mark.parametrize("command", ["run", "update"])
    @pytest.mark.parametrize(
        "flags,flag",
        [
            (["--ranks", "0"], "--ranks"),
            (["--ranks", "4", "--subbuckets", "0"], "--subbuckets"),
            (["--ranks", "4", "--checkpoint-every", "0"], "--checkpoint-every"),
            (["--ranks", "4", "--replicas", "-1"], "--replicas"),
            (["--ranks", "4", "--auto-balance", "0.5"], "--auto-balance"),
            (["--ranks", "4", "--replicas", "4"], "--replicas"),
            (["--ranks", "4", "--sources", "abc"], "--sources"),
            (["--ranks", "4", "--sources", ""], "--sources"),
            (["--ranks", "4", "--sources", " , "], "--sources"),
            (["--ranks", "4", "--dataset", "nope"], "--dataset"),
        ],
    )
    def test_run_and_update(self, command, flags, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "sssp", *self.SMALL, *flags])
        message = str(exc.value)
        assert message.startswith(f"bad {flag}") and "\n" not in message
        assert "--faults" not in message

    @pytest.mark.parametrize(
        "flags,flag",
        [
            (["--ranks", "0"], "--ranks"),
            (["--auto-balance", "0.5"], "--auto-balance"),
        ],
    )
    def test_query(self, tmp_path, flags, flag):
        program = tmp_path / "p.dl"
        program.write_text("p(X, Y) :- e(X, Y).\n")
        with pytest.raises(SystemExit, match=f"^bad {flag}: ") as exc:
            main(["query", str(program), *flags])
        assert "--faults" not in str(exc.value)

    @pytest.mark.parametrize("command", ["run", "update"])
    @pytest.mark.parametrize("spec", ["bogus", "drop=1.5", "crash=x@y"])
    def test_only_a_fault_spec_error_says_faults(self, command, spec):
        with pytest.raises(SystemExit, match="^bad --faults spec: "):
            main([command, "sssp", *self.SMALL, "--ranks", "4", "--faults", spec])

    @pytest.mark.parametrize("command", ["run", "update"])
    @pytest.mark.parametrize(
        "spec",
        [
            "crash=9@3",
            "crash_perm=4@3",
            "straggle=9:2",
            "edge=9>1:0.5:0:0",
            "edge=-1>1:0.5:0:0",
            "edge=1>1:0.5:0:0",
        ],
    )
    def test_fault_ranks_checked_against_ranks(self, command, spec):
        """A rank the schedule names must exist, and an edge must be able
        to fire: one line, before anything runs."""
        with pytest.raises(SystemExit, match="^bad --faults spec: ") as exc:
            main([command, "sssp", *self.SMALL, "--ranks", "4", "--faults", spec])
        assert "\n" not in str(exc.value)

    def test_cc_ignores_sources(self, capsys):
        assert main(["run", "cc", *self.SMALL, "--ranks", "4", "--sources", ""]) == 0


class TestExperiment:
    def test_fig3(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE_SHIFT", "4")
        rc = main(["experiment", "fig3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out and "regenerated" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_scale_shift_flag(self, capsys):
        rc = main(["experiment", "fig3", "--scale-shift", "4"])
        assert rc == 0


class TestQueryInputErrors:
    """Bad outside input exits with one line, not a traceback."""

    PROG = ".decl e(x, y) keys(x)\nr(x, y) :- e(x, y).\n"

    def test_syntax_error_names_file_line_and_column(self, tmp_path):
        src = tmp_path / "bad.dl"
        src.write_text(".decl e(x, y) keys(x)\nr(x) :- e(x, @).\n")
        with pytest.raises(
            SystemExit, match=r"bad\.dl: line 2, column 14: unexpected character"
        ):
            main(["query", str(src)])

    def test_missing_program_file(self, tmp_path):
        with pytest.raises(SystemExit, match=r"cannot read program .*nope\.dl"):
            main(["query", str(tmp_path / "nope.dl")])

    @pytest.mark.parametrize("content", [None, "0\tzz\n"], ids=["missing", "garbled"])
    def test_unreadable_facts_file(self, tmp_path, content):
        src = tmp_path / "ok.dl"
        src.write_text(self.PROG)
        facts = tmp_path / "edges.tsv"
        if content is not None:
            facts.write_text(content)
        with pytest.raises(
            SystemExit, match=r"cannot read facts for 'e' from .*edges\.tsv"
        ):
            main(["query", str(src), "--facts", f"e={facts}"])


class TestQuerySpmd:
    def test_spmd_flag_matches_bsp(self, capsys, tmp_path):
        from repro.cli import main

        src = tmp_path / "prog.dl"
        src.write_text(
            ".decl e(x, y, w) keys(x)\n"
            "start(0).\n"
            ".decl start(n) keys(n)\n"
            "e(0, 1, 2). e(1, 2, 3).\n"
            "spath(n, n, 0) :- start(n).\n"
            "spath(f, t, $min(l + w)) :- spath(f, m, l), e(m, t, w).\n"
            ".output spath\n"
        )
        assert main(["query", str(src), "--ranks", "3"]) == 0
        bsp_out = capsys.readouterr().out
        assert main(["query", str(src), "--ranks", "3", "--spmd"]) == 0
        spmd_out = capsys.readouterr().out
        bsp_tuples = [l for l in bsp_out.splitlines() if l.startswith("  spath")]
        spmd_tuples = [l for l in spmd_out.splitlines() if l.startswith("  spath")]
        assert bsp_tuples == spmd_tuples
        assert "SPMD engine" in spmd_out
        # Same iterations and modeled seconds: one engine under both drivers.
        cost = re.compile(r"(\d+) iterations, modeled ([\d.]+)s")
        assert cost.search(spmd_out).groups() == cost.search(bsp_out).groups()

class TestDiagnosticsFlags:
    def test_run_diagnostics_text_report(self, capsys):
        rc = main([
            "run", "cc", "--dataset", "flickr", "--ranks", "4",
            "--scale-shift", "5", "--diagnostics",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "bytes sent" in out  # comm heatmap
        assert "compute seconds" in out  # rank x superstep heatmap

    def test_run_flamegraph_implies_diagnostics(self, capsys, tmp_path):
        fg = tmp_path / "fg.collapsed"
        rc = main([
            "run", "cc", "--dataset", "flickr", "--ranks", "4",
            "--scale-shift", "5", "--flamegraph", str(fg),
        ])
        assert rc == 0
        lines = fg.read_text().splitlines()
        assert lines and all(";" in line for line in lines)

    def test_query_json_carries_diagnostics(self, capsys, tmp_path):
        import json

        src = tmp_path / "prog.dl"
        src.write_text(
            ".decl e(x, y) keys(x)\n"
            "e(0, 1). e(1, 2). e(2, 0).\n"
            "tc(x, y) :- e(x, y).\n"
            "tc(x, z) :- tc(x, y), e(y, z).\n"
            ".output tc\n"
        )
        rc = main([
            "query", str(src), "--ranks", "3", "--diagnostics", "--json",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        diag = report["diagnostics"]
        assert diag["critical_path"]["total_seconds"] > 0
        assert diag["reconciliation"]["ok"]

    def test_diagnostics_rejected_under_spmd(self, tmp_path):
        src = tmp_path / "prog.dl"
        src.write_text(
            ".decl e(x, y) keys(x)\ne(0, 1).\n"
            "tc(x, y) :- e(x, y).\n.output tc\n"
        )
        with pytest.raises(SystemExit):
            main(["query", str(src), "--spmd", "--diagnostics"])

    def test_every_unhonoured_flag_rejected_under_spmd_in_one_message(
        self, tmp_path
    ):
        src = tmp_path / "prog.dl"
        src.write_text(
            ".decl e(x, y) keys(x)\ne(0, 1).\n"
            "tc(x, y) :- e(x, y).\n.output tc\n"
        )
        # The driver's refused config fields, then the output flags that
        # read a BSP result — one message, nothing refused twice.
        for flags, named in (
            (["--auto-balance", "1.5"], "auto_balance"),
            (["--json"], "--json"),
            (["--trace", str(tmp_path / "t.json")], "tracer"),
            (["--diagnostics"], "tracer, diagnostics"),
            (["--flamegraph", str(tmp_path / "fg.collapsed")],
             "tracer, diagnostics, --flamegraph"),
        ):
            with pytest.raises(SystemExit, match="require the BSP driver") as exc:
                main(["query", str(src), "--spmd", *flags])
            assert str(exc.value).startswith(f"{named} require")
        with pytest.raises(SystemExit) as exc:
            main(["query", str(src), "--spmd", "--auto-balance", "1.5", "--json"])
        assert str(exc.value).startswith("auto_balance, --json require")

    def test_spmd_builds_no_bsp_engine(self, capsys, tmp_path, monkeypatch):
        """Every engine --spmd runs is a slice of the per-rank driver, on
        the validated config (wire flags included); --explain plans on
        one more engine that is never loaded or run."""
        import repro.runtime.engine as engine_mod
        from repro.runtime.spmd import SliceComm

        src = tmp_path / "prog.dl"
        src.write_text(
            ".decl e(x, y) keys(x)\ne(0, 1). e(1, 2).\n"
            "tc(x, y) :- e(x, y).\ntc(x, z) :- tc(x, y), e(y, z).\n"
            ".output tc\n"
        )
        built, loaded, ran = [], [], []
        real = {n: getattr(engine_mod.Engine, n) for n in ("__init__", "load", "run")}

        def init(self, program, config=None, **kw):
            real["__init__"](self, program, config, **kw)
            built.append(self)

        monkeypatch.setattr(engine_mod.Engine, "__init__", init)
        monkeypatch.setattr(
            engine_mod.Engine, "load",
            lambda self, *a: loaded.append(self) or real["load"](self, *a),
        )
        monkeypatch.setattr(
            engine_mod.Engine, "run",
            lambda self: ran.append(self) or real["run"](self),
        )
        argv = ["query", str(src), "--ranks", "3", "--spmd", "--no-wire"]
        assert main(argv) == 0
        assert len(built) == 3
        assert all(isinstance(e.cluster, SliceComm) for e in built)
        assert [e.cluster.rank for e in built] == [0, 1, 2]
        assert all(
            e.config.n_ranks == 3 and e.config.wire is False
            and e.config.auto_balance is None
            for e in built
        )
        assert set(map(id, loaded)) == set(map(id, ran)) == set(map(id, built))
        built.clear()
        assert main(argv + ["--explain"]) == 0
        planner = [e for e in built if not isinstance(e.cluster, SliceComm)]
        assert len(built) == 4 and len(planner) == 1
        assert planner[0] not in loaded and planner[0] not in ran
        out = capsys.readouterr().out
        assert "plan for 2 rule(s)" in out and out.count("tc: 3 tuple(s)") == 2


class TestTraceReport:
    def _trace(self, tmp_path, diagnostics=True):
        path = tmp_path / "trace.json"
        argv = [
            "run", "cc", "--dataset", "flickr", "--ranks", "4",
            "--scale-shift", "5", "--trace", str(path),
        ]
        if diagnostics:
            argv.append("--diagnostics")
        assert main(argv) == 0
        return path

    def test_offline_report(self, capsys, tmp_path):
        path = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid trace" in out
        assert "critical path" in out
        assert "bytes sent" in out  # matrices travelled inside the trace

    def test_json_output(self, capsys, tmp_path):
        import json

        path = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["trace-report", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["diagnostics"]["critical_path"]["phase_shares"]
        assert report["diagnostics"]["reconciliation"]["ok"]

    def test_reconciles_against_the_comm_spans(self, capsys, tmp_path):
        """Offline reconciliation reads the bytes rank 0's comm spans
        carry: raising one of them is a mismatch."""
        import json

        path = self._trace(tmp_path)
        trace = json.loads(path.read_text())
        event = next(
            ev for ev in trace["traceEvents"]
            if ev.get("pid") == 1 and ev.get("cat") == "comm"
            and ev["name"] == "alltoallv" and ev["args"]["nbytes"] > 0
        )
        event["args"]["nbytes"] += 1
        path.write_text(json.dumps(trace))
        capsys.readouterr()
        assert main(["trace-report", str(path), "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)["diagnostics"]["reconciliation"]
        assert rec["ok"] is False
        assert set(rec["mismatches"]) == {"alltoallv"}

    def test_trace_without_matrices_still_reports(self, capsys, tmp_path):
        path = self._trace(tmp_path, diagnostics=False)
        capsys.readouterr()
        assert main(["trace-report", str(path)]) == 0
        assert "no comm matrices" in capsys.readouterr().out

    def test_flamegraph_export(self, capsys, tmp_path):
        path = self._trace(tmp_path)
        fg = tmp_path / "fg.collapsed"
        capsys.readouterr()
        assert main(["trace-report", str(path), "--flamegraph", str(fg)]) == 0
        assert fg.read_text().splitlines()

    def test_invalid_trace_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="invalid trace"):
            main(["trace-report", str(bad)])

    def test_empty_trace_rejected(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"traceEvents": []}')
        with pytest.raises(SystemExit, match="invalid trace .*no complete"):
            main(["trace-report", str(empty)])


class TestUpdate:
    def test_sssp_identity_and_speedup(self, capsys):
        rc = main([
            "update", "sssp", "--dataset", "topcats", "--ranks", "8",
            "--scale-shift", "3", "--batch-frac", "0.02", "--batches", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "update 0:" in out and "update 1:" in out
        assert "answers MATCH" in out and "full multisets MATCH" in out
        assert "x cheaper" in out

    def test_json_report_carries_incremental_schema(self, capsys):
        import json

        rc = main([
            "update", "sssp", "--dataset", "topcats", "--ranks", "4",
            "--scale-shift", "4", "--json",
        ])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 3
        assert report["incremental"]["updates"] == 1
        assert report["identical_answers"] is True
        assert report["identical_multisets"] is True
        assert report["speedup_vs_cold"] > 1

    def test_validation_rerouted_through_options(self, capsys):
        with pytest.raises(SystemExit, match="--checkpoint-every"):
            main([
                "update", "sssp", "--dataset", "topcats", "--ranks", "4",
                "--scale-shift", "4", "--faults", "crash=1@5",
            ])
        with pytest.raises(SystemExit, match="--replicas"):
            main([
                "run", "sssp", "--dataset", "topcats", "--ranks", "4",
                "--scale-shift", "4", "--faults", "crash_perm=1@5",
                "--checkpoint-every", "2",
            ])
        with pytest.raises(SystemExit, match="^bad --auto-balance: "):
            main([
                "run", "sssp", "--dataset", "topcats", "--ranks", "4",
                "--scale-shift", "4", "--auto-balance", "0.9",
            ])

    def test_bad_fault_spec_rejected(self):
        with pytest.raises(SystemExit, match="bad --faults spec"):
            main([
                "update", "sssp", "--dataset", "topcats", "--ranks", "4",
                "--scale-shift", "4", "--faults", "nonsense=1",
            ])

    def test_batch_frac_outside_unit_interval_rejected(self):
        for frac in ("1.5", "-0.5", "0", "1"):
            with pytest.raises(
                SystemExit, match=r"--batch-frac must be in \(0, 1\)"
            ):
                main([
                    "update", "sssp", "--dataset", "topcats", "--ranks", "4",
                    "--scale-shift", "4", "--batch-frac", frac,
                ])
