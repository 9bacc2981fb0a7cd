"""repro.api tests: the one config, its validation, Session lifecycle.

Every CLI flag of ``run``/``update``/``query`` must land on its config
field; every cross-field rule must name the fields involved and be
applied by every driver; and ``FixpointResult.to_dict`` must expose one
stable schema regardless of which subsystems ran.
"""

import importlib
import os
import sys
from pathlib import Path

import pytest

from repro import Engine, EngineConfig, MIN, Program, Rel, vars_
from repro.api import (
    DiagnosticsOptions,
    FaultOptions,
    Options,
    OptionsError,
    RecoveryOptions,
    Session,
)
from repro.cli import _build_parser, _options_from_args
from repro.faults.config import FaultConfig
from repro.runtime.spmd import run_slices

#: The one data plane.  The axis has a single value: it keeps the
#: ``columnar`` case ids from when a tuple-at-a-time plane ran beside it.
ON_PLANE = pytest.mark.parametrize("plane", ["columnar"])

f, t, m, l, w, n = vars_("f t m l w n")


def sssp_dsl():
    edge, start, spath = Rel("edge"), Rel("start"), Rel("spath")
    return Program(
        rules=[
            spath(n, n, 0) <= start(n),
            spath(f, t, MIN(l + w)) <= (spath(f, m, l), edge(m, t, w)),
        ],
        edb={"edge": (3, (0,)), "start": (1, (0,))},
    )


EDGES = [(0, 1, 4), (0, 2, 9), (1, 2, 1), (2, 3, 2), (3, 4, 3)]


class TestOptionsRoundTrip:
    """``Options`` is the engine config itself; what is left to check is
    the fault spec, parsed once at construction."""

    def test_fault_spec_parses(self):
        options = Options(
            faults=FaultOptions(spec="drop=0.02,seed=7"),
        )
        assert options.faults.config.drop == pytest.approx(0.02)
        assert options.faults.config.seed == 7

    def test_fault_spec_and_config_conflict(self):
        with pytest.raises(OptionsError, match="alternatives"):
            Options(
                faults=FaultOptions(config=FaultConfig(), spec="drop=0.1"),
            )


def _crash_without_checkpoints(config):
    config.faults.config = FaultConfig(crash_rank=1, crash_superstep=3)


def _crash_perm_without_replicas(config):
    config.recovery.checkpoint_every = 2
    config.faults.config = FaultConfig(crash_perm_rank=1,
                                       crash_perm_superstep=3)


def _replicas_without_checkpoints(config):
    config.recovery.replicas = 1


def _fault_rank_out_of_range(config):
    config.faults.config = FaultConfig(stragglers={9: 2.0})


#: Each cross-field rule as a mutation that breaks a valid config, with
#: fragments of the message it must raise.
RULES = {
    "crash-needs-checkpoints": (
        _crash_without_checkpoints,
        ("RecoveryOptions.checkpoint_every", "--checkpoint-every"),
    ),
    "crash_perm-needs-replicas": (
        _crash_perm_without_replicas,
        ("RecoveryOptions.replicas", "--replicas"),
    ),
    "replicas-need-checkpoints": (
        _replicas_without_checkpoints,
        ("RecoveryOptions.checkpoint_every is unset",),
    ),
    "fault-rank-out-of-range": (
        _fault_rank_out_of_range,
        ("bad --faults spec: straggle rank 9",),
    ),
}

#: Every driver that takes a config, each handed the same program.
ENTRY_POINTS = {
    "Engine": lambda config: Engine(sssp_dsl(), config),
    "Session": lambda config: Session(config),
    "run_slices": lambda config: run_slices(
        sssp_dsl(), {"edge": EDGES, "start": [(0,)]}, config=config
    ),
}


class TestValidation:
    def test_crash_requires_checkpoints(self):
        with pytest.raises(OptionsError) as exc:
            Options(
                faults=FaultOptions(config=FaultConfig(crash_rank=1,
                                                       crash_superstep=5)),
            )
        assert "RecoveryOptions.checkpoint_every" in str(exc.value)
        assert "--checkpoint-every" in str(exc.value)

    def test_crash_perm_requires_replicas(self):
        with pytest.raises(OptionsError) as exc:
            Options(
                faults=FaultOptions(config=FaultConfig(crash_perm_rank=1,
                                                       crash_perm_superstep=5)),
                recovery=RecoveryOptions(checkpoint_every=2),
            )
        assert "RecoveryOptions.replicas" in str(exc.value)
        assert "--replicas" in str(exc.value)

    def test_replicas_require_checkpoints(self):
        with pytest.raises(OptionsError) as exc:
            Options(recovery=RecoveryOptions(replicas=2))
        assert "checkpoint_every" in str(exc.value)

    def test_valid_combinations_pass(self):
        Options(
            faults=FaultOptions(config=FaultConfig(crash_rank=0,
                                                   crash_superstep=3)),
            recovery=RecoveryOptions(checkpoint_every=2),
        ).validate()
        Options(
            faults=FaultOptions(config=FaultConfig(crash_perm_rank=0,
                                                   crash_perm_superstep=3)),
            recovery=RecoveryOptions(checkpoint_every=2, replicas=1),
        ).validate()
        Options(subbuckets={"edge": 16}, auto_balance=1.5).validate()

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_every_driver_rejects_up_front(self, entry, rule, monkeypatch):
        """A config broken after it was built is refused by each driver
        before any work, with the same message construction gives."""
        import repro.runtime.engine as engine_mod

        mutate, fragments = RULES[rule]
        config = Options()
        mutate(config)
        # Nothing may be evaluated: loading or running a fact is work.
        monkeypatch.setattr(engine_mod.Engine, "load", _no_work)
        monkeypatch.setattr(engine_mod.Engine, "run", _no_work)
        with pytest.raises(OptionsError) as exc:
            ENTRY_POINTS[entry](config)
        for fragment in fragments:
            assert fragment in str(exc.value)


def _no_work(*_args, **_kwargs):
    raise AssertionError("a driver started work on an invalid config")


class TestCliFlagRoundTrip:
    """Every run/update/query flag must land on the right config field."""

    def parse(self, argv):
        return _build_parser().parse_args(argv)

    def test_run_flags(self):
        args = self.parse([
            "run", "sssp", "--ranks", "32", "--subbuckets", "16",
            "--seed", "5", "--no-dynamic-join",
            "--faults", "crash=1@12,seed=7", "--checkpoint-every", "3",
            "--replicas", "1", "--auto-balance", "1.5",
            "--no-wire", "--diagnostics",
        ])
        config = _options_from_args(args)
        assert config.n_ranks == 32
        assert config.subbuckets == {"edge": 16}
        assert config.seed == 5
        assert config.dynamic_join is False
        assert config.faults.config.crash_rank == 1
        assert config.faults.config.crash_superstep == 12
        assert config.recovery.checkpoint_every == 3
        assert config.recovery.replicas == 1
        assert config.auto_balance == pytest.approx(1.5)
        assert config.wire is False
        assert config.diagnostics.enabled is True

    def test_run_no_wire(self):
        args = self.parse(["run", "cc", "--no-wire"])
        assert _options_from_args(args).wire is False

    def test_update_flags(self):
        args = self.parse([
            "update", "sssp", "--ranks", "12", "--subbuckets", "2",
            "--seed", "9", "--batch-frac", "0.05", "--batches", "3",
            "--no-wire",
        ])
        assert args.batch_frac == pytest.approx(0.05)
        assert args.batches == 3
        config = _options_from_args(args)
        assert config.n_ranks == 12
        assert config.subbuckets == {"edge": 2}
        assert config.seed == 9
        assert config.wire is False

    def test_query_flags_use_defaults_for_missing(self):
        args = self.parse(["query", "prog.dl", "--ranks", "6"])
        config = _options_from_args(args)
        assert config.n_ranks == 6
        # query has no workload flags: the config's defaults apply, and
        # the --auto-balance default is the config's own.
        default = EngineConfig()
        assert config.seed == default.seed
        assert config.subbuckets == {}
        assert config.faults == default.faults
        assert config.recovery == default.recovery
        assert config.auto_balance == default.auto_balance

    def test_invalid_cli_combo_exits_with_flag_hint(self):
        args = self.parse([
            "run", "sssp", "--faults", "crash_perm=1@5",
            "--checkpoint-every", "2",
        ])
        with pytest.raises(SystemExit) as exc:
            _options_from_args(args)
        assert "--replicas" in str(exc.value)


class TestSession:
    def test_query_then_update_matches_cold(self):
        session = Session(Options(n_ranks=4))
        session.query(sssp_dsl(), {"edge": EDGES[:3], "start": [(0,)]})
        session.update({"edge": EDGES[3:]})
        cold = Engine(sssp_dsl(), EngineConfig(n_ranks=4))
        cold.load("edge", EDGES)
        cold.load("start", [(0,)])
        cold_result = cold.run()
        assert session.relation("spath") == cold_result.query("spath")
        names = sorted(cold.store.relations)
        assert {
            name: sorted(session.engine.store[name].iter_full())
            for name in names
        } == {
            name: sorted(cold.store[name].iter_full()) for name in names
        }
        assert session.result().counters["updates"] == 1

    def test_update_before_query_raises(self):
        session = Session(Options(n_ranks=2))
        with pytest.raises(RuntimeError, match="query"):
            session.update({"edge": [(0, 1, 1)]})
        with pytest.raises(RuntimeError):
            session.result()
        with pytest.raises(RuntimeError):
            session.relation("spath")

    def test_new_query_resets_incremental_state(self):
        session = Session(Options(n_ranks=2))
        session.query(sssp_dsl(), {"edge": EDGES[:2], "start": [(0,)]})
        session.update({"edge": EDGES[2:3]})
        assert session.handle is not None
        session.query(sssp_dsl(), {"edge": EDGES, "start": [(0,)]})
        assert session.handle is None
        assert session.result().counters.get("updates", 0) == 0

    def test_invalid_options_fail_eagerly(self):
        with pytest.raises(OptionsError):
            Session(Options(recovery=RecoveryOptions(replicas=1)))

    @ON_PLANE
    def test_traced_diagnosed_update(self, plane):
        """The seed exchange records into the CommMatrix ``update`` channel
        (it used to raise ``unknown channel 'update'``), and the recorder
        still ties out against the ledger, online and from the trace."""
        from repro.obs import Tracer
        from repro.obs.analysis import comm_profile_from_spans

        session = Session(Options(
            n_ranks=4,
            diagnostics=DiagnosticsOptions(enabled=True, tracer=Tracer()),
        ))
        session.query(sssp_dsl(), {"edge": EDGES[:3], "start": [(0,)]})
        result = session.update({"edge": EDGES[3:]})
        profile = result.comm_profile
        seed = [m for m in profile.matrices if m.kind == "incremental_seed"]
        assert len(seed) == 1
        assert seed[0].tuples_total("update") == len(EDGES[3:])
        assert seed[0].tuples_total("data") == 0
        report = profile.reconcile(result.ledger.comm.by_kind)
        assert report["ok"] and "incremental_seed" in report["kinds"]
        assert report["bytes_by_kind"]["incremental_seed"] == (
            profile.bytes_total("update")
        )
        offline = comm_profile_from_spans(result.spans)
        assert offline.bytes_total("update") == profile.bytes_total("update")
        assert offline.reconcile(result.ledger.comm.by_kind)["ok"]


class TestResultSchema:
    def test_to_dict_stable_keys(self):
        session = Session(Options(n_ranks=2))
        session.query(sssp_dsl(), {"edge": EDGES, "start": [(0,)]})
        d = session.result().to_dict()
        for key in (
            "schema_version", "iterations", "modeled_seconds",
            "wall_seconds", "phase_seconds", "imbalance_ratio", "counters",
            "relation_sizes", "comm", "wire", "recovery", "degraded",
            "incremental",
        ):
            assert key in d, key
        assert d["schema_version"] == 3
        assert "executor" not in d and "rebalance" not in d
        assert d["incremental"]["updates"] == 0
        assert d["degraded"]["excluded_ranks"] == []
        import json

        json.dumps(d)  # the whole schema must be JSON-serializable

    def test_to_dict_reflects_updates(self):
        session = Session(Options(n_ranks=2))
        session.query(sssp_dsl(), {"edge": EDGES[:3], "start": [(0,)]})
        session.update({"edge": EDGES[3:]})
        d = session.result().to_dict()
        assert d["incremental"]["updates"] == 1
        assert d["incremental"]["update_batch_tuples"] == len(EDGES[3:])
        assert "incremental_seed" in d["phase_seconds"]

    def test_repr_mentions_updates(self):
        session = Session(Options(n_ranks=2))
        session.query(sssp_dsl(), {"edge": EDGES[:3], "start": [(0,)]})
        r = repr(session.result())
        assert r.startswith("FixpointResult(iterations=")
        assert "updates" not in r  # cold run: no update clutter
        session.update({"edge": EDGES[3:]})
        assert "updates=1" in repr(session.result())


BENCH = Path(__file__).resolve().parent.parent / "bench"
_BENCH_SIBLINGS = ("driver", "oracle", "report", "trace", "workloads")


@pytest.fixture(scope="module")
def bench_driver():
    """``bench/driver.py`` imported as its own scripts import it (its
    siblings on the path, ``bench/trace.py`` shadowing the standard
    library's ``trace`` while the import runs), unedited.  Its import
    pins thread counts in the environment and puts ``src/`` on the path;
    both are put back."""
    saved_path, saved_env = list(sys.path), os.environ.copy()
    saved = {n: sys.modules.pop(n) for n in _BENCH_SIBLINGS if n in sys.modules}
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("driver")
    finally:
        sys.path[:] = saved_path
        os.environ.clear()
        os.environ.update(saved_env)
        for name in _BENCH_SIBLINGS:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


class TestBenchAdapter:
    """The benchmark's adapter builds its options through ``repro.api``
    and hands them to both drivers; the one config must keep taking them."""

    def test_options_is_the_engine_config(self):
        assert Options is EngineConfig

    @pytest.mark.parametrize("observe", [False, True], ids=["plain", "observe"])
    @pytest.mark.parametrize("workload", [
        "sssp-skew-p64", "sssp-dense-p4", "cc-mesh-ckpt-p16", "sssp-update-p16",
    ])
    def test_build_options_constructs_both_drivers(
        self, bench_driver, workload, observe
    ):
        spec = bench_driver.WORKLOADS[workload]
        program, _answer = bench_driver.build_program(spec)
        options = bench_driver.build_options(spec, observe=observe)
        assert isinstance(options, EngineConfig)
        assert Engine(program, options.to_engine_config()).config is options
        assert Session(options).config is options
        assert options.diagnostics.enabled is observe
