"""repro.api tests: Options groups, validation, Session lifecycle.

Satellite coverage for PR 10: every CLI flag of ``run``/``update``/
``query``/``bench`` must round-trip flag → grouped Options →
EngineConfig; cross-field validation must name the Options
fields involved; and ``FixpointResult.to_dict`` must expose one stable
schema regardless of which subsystems ran.
"""

import pytest

from repro import Engine, EngineConfig, MIN, Program, Rel, vars_
from repro.api import (
    DiagnosticsOptions,
    FaultOptions,
    Options,
    OptionsError,
    RebalanceOptions,
    RecoveryOptions,
    Session,
)
from repro.cli import _build_parser, _options_from_args
from repro.faults.config import FaultConfig

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
    def test_defaults_equal_engine_defaults(self):
        assert Options().to_engine_config() == EngineConfig()

    def test_lossless_round_trip(self):
        options = Options(
            n_ranks=16,
            seed=7,
            max_iterations=500,
            dynamic_join=False,
            vote_abstain_empty=False,
            static_outer="right",
            subbuckets={"edge": 4},
            default_subbuckets=2,
            auto_balance=1.5,
            reorder_messages_seed=3,
            wire=False,
            faults=FaultOptions(config=FaultConfig(seed=9, drop=0.01)),
            recovery=RecoveryOptions(checkpoint_every=3, replicas=1),
            rebalance=RebalanceOptions(enabled=True, every=2, threshold=0.1,
                                       factor=1.5, max_subbuckets=32,
                                       min_tuples=8),
            diagnostics=DiagnosticsOptions(enabled=True,
                                           delta_fingerprints=True),
        )
        lifted = Options.from_engine_config(options.to_engine_config())
        assert lifted == options
        assert lifted.to_engine_config() == options.to_engine_config()

    def test_wire_disabled_round_trip(self):
        options = Options(wire=False)
        config = options.to_engine_config()
        assert config.wire is False
        assert Options.from_engine_config(config).wire is False

    def test_fault_spec_parses(self):
        options = Options(
            faults=FaultOptions(spec="drop=0.02,seed=7"),
        )
        config = options.to_engine_config()
        assert config.faults.drop == pytest.approx(0.02)
        assert config.faults.seed == 7

    def test_fault_spec_and_config_conflict(self):
        options = Options(
            faults=FaultOptions(config=FaultConfig(), spec="drop=0.1"),
        )
        with pytest.raises(OptionsError, match="alternatives"):
            options.to_engine_config()


class TestValidation:
    def test_crash_requires_checkpoints(self):
        options = Options(
            faults=FaultOptions(config=FaultConfig(crash_rank=1,
                                                   crash_superstep=5)),
        )
        with pytest.raises(OptionsError) as exc:
            options.validate()
        assert "RecoveryOptions.checkpoint_every" in str(exc.value)
        assert "--checkpoint-every" in str(exc.value)

    def test_crash_perm_requires_replicas(self):
        options = Options(
            faults=FaultOptions(config=FaultConfig(crash_perm_rank=1,
                                                   crash_perm_superstep=5)),
            recovery=RecoveryOptions(checkpoint_every=2),
        )
        with pytest.raises(OptionsError) as exc:
            options.validate()
        assert "RecoveryOptions.replicas" in str(exc.value)
        assert "--replicas" in str(exc.value)

    def test_replicas_require_checkpoints(self):
        options = Options(recovery=RecoveryOptions(replicas=2))
        with pytest.raises(OptionsError) as exc:
            options.validate()
        assert "checkpoint_every" in str(exc.value)

    def test_rebalance_cap_below_static_fanout(self):
        options = Options(
            subbuckets={"edge": 16},
            rebalance=RebalanceOptions(enabled=True, max_subbuckets=16),
        )
        with pytest.raises(OptionsError) as exc:
            options.validate()
        assert "RebalanceOptions.max_subbuckets" in str(exc.value)
        assert "--subbuckets" in str(exc.value)
        # A disabled group does not trip the cross-field rule.
        Options(
            subbuckets={"edge": 16},
            rebalance=RebalanceOptions(enabled=False, max_subbuckets=16),
        ).validate()
        # A sub-1 growth gate is legal — it forces aggressive doubling and
        # the max_subbuckets cap still self-extinguishes (the seed's CLI
        # rebalance smoke test drives factor=0.5 on purpose).
        Options(rebalance=RebalanceOptions(enabled=True, factor=0.5)).validate()

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
        Options(rebalance=RebalanceOptions(enabled=True, factor=1.0)).validate()


class TestCliFlagRoundTrip:
    """Every run/update/query/bench flag must land on the right
    EngineConfig field after the flag → Options → EngineConfig trip."""

    def parse(self, argv):
        return _build_parser().parse_args(argv)

    def test_run_flags(self):
        args = self.parse([
            "run", "sssp", "--ranks", "32", "--subbuckets", "16",
            "--seed", "5", "--no-dynamic-join",
            "--faults", "crash=1@12,seed=7", "--checkpoint-every", "3",
            "--replicas", "1", "--rebalance", "--rebalance-every", "2",
            "--rebalance-threshold", "0.5", "--rebalance-factor", "1.5",
            "--no-wire", "--diagnostics",
        ])
        config = _options_from_args(args).to_engine_config()
        assert config.n_ranks == 32
        assert config.subbuckets == {"edge": 16}
        assert config.seed == 5
        assert config.dynamic_join is False
        assert config.faults.crash_rank == 1
        assert config.faults.crash_superstep == 12
        assert config.checkpoint_every == 3
        assert config.replicas == 1
        assert config.rebalance is True
        assert config.rebalance_every == 2
        assert config.rebalance_threshold == pytest.approx(0.5)
        assert config.rebalance_factor == pytest.approx(1.5)
        assert config.wire is False
        assert config.diagnostics is True

    def test_run_no_wire(self):
        args = self.parse(["run", "cc", "--no-wire"])
        config = _options_from_args(args).to_engine_config()
        assert config.wire is False

    def test_update_flags(self):
        args = self.parse([
            "update", "sssp", "--ranks", "12", "--subbuckets", "2",
            "--seed", "9", "--batch-frac", "0.05", "--batches", "3",
            "--no-wire",
        ])
        assert args.batch_frac == pytest.approx(0.05)
        assert args.batches == 3
        config = _options_from_args(args).to_engine_config()
        assert config.n_ranks == 12
        assert config.subbuckets == {"edge": 2}
        assert config.seed == 9
        assert config.wire is False

    def test_query_flags_use_defaults_for_missing(self):
        args = self.parse(["query", "prog.dl", "--ranks", "6"])
        config = _options_from_args(args).to_engine_config()
        assert config.n_ranks == 6
        # query has no --seed/--subbuckets: Options defaults apply.
        assert config.seed == EngineConfig().seed
        assert config.subbuckets == {}

    def test_invalid_cli_combo_exits_with_flag_hint(self):
        args = self.parse([
            "run", "sssp", "--faults", "crash_perm=1@5",
            "--checkpoint-every", "2",
        ])
        from repro.cli import _engine_config

        with pytest.raises(SystemExit) as exc:
            _engine_config(args)
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
            "relation_sizes", "comm", "wire", "rebalance", "recovery",
            "degraded", "incremental",
        ):
            assert key in d, key
        assert d["schema_version"] == 2
        assert "executor" not in d
        assert d["rebalance"] == {"enabled": False, "events": []}
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
