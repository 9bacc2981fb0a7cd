"""Cross-validation: per-rank driver ≡ BSP engine ≡ oracle.

The BSP :class:`~repro.runtime.engine.Engine` is a simulation shortcut
(one driver loop executes every rank's phases).  These tests justify it:
:mod:`repro.runtime.spmd` runs the same engine once per rank, each seeing
only its own shards, in lockstep over one cluster — and produces the
same answers *and* the same ledger, charge for charge.
"""

import sys
import threading
from unittest import mock

import numpy as np
import pytest

from repro import Engine, EngineConfig, MIN, Program, Rel, vars_
from repro.api import (
    DiagnosticsOptions,
    FaultOptions,
    RecoveryOptions,
)
from repro.comm.costmodel import CostModel
from repro.faults.config import FaultConfig
from repro.faults.plane import RankFailure
from repro.graphs.generators import chain, rmat, star
from repro.obs.tracer import Tracer
from repro.planner.interpreter import interpret
from repro.queries.cc import cc_program
from repro.queries.reachability import tc_program
from repro.queries.sssp import sssp_program
from repro.runtime import executor as executor_mod
from repro.runtime.incremental import FixpointHandle
from repro.runtime.spmd import (
    LockstepError,
    run_ranks,
    run_slices,
    run_spmd_engine,
    spmd_rank_stores,
)

#: The one data plane.  The axis has a single value: it keeps the
#: ``columnar`` case ids from when a tuple-at-a-time plane ran beside it.
ON_PLANE = pytest.mark.parametrize("plane", ["columnar"])

x, y, z = vars_("x y z")


def bsp_eval(program, facts, config):
    eng = Engine(program, config)
    for name, rows in facts.items():
        eng.load(name, rows)
    result = eng.run()
    return {name: result.query(name) for name in result.relations}


@pytest.fixture(scope="module")
def weighted_graph():
    return rmat(5, 3, seed=3).with_weights(np.random.default_rng(2), 9)


class TestAgainstBsp:
    def test_sssp(self, weighted_graph):
        facts = {"edge": weighted_graph.tuples(), "start": [(0,), (3,)]}
        config = EngineConfig(n_ranks=6, subbuckets={"edge": 2})
        spmd = run_spmd_engine(sssp_program(), facts, config)
        bsp = bsp_eval(sssp_program(), facts, config)
        assert spmd["spath"] == bsp["spath"]

    def test_cc(self):
        g = rmat(5, 3, seed=9).symmetrized()
        facts = {"edge": g.tuples()}
        config = EngineConfig(n_ranks=4)
        spmd = run_spmd_engine(cc_program(), facts, config)
        bsp = bsp_eval(cc_program(), facts, config)
        assert spmd["cc"] == bsp["cc"]
        assert spmd["cc_rep"] == bsp["cc_rep"]

    def test_tc(self):
        facts = {"edge": [(0, 1), (1, 2), (2, 0), (3, 0)]}
        config = EngineConfig(n_ranks=3)
        spmd = run_spmd_engine(tc_program(), facts, config)
        bsp = bsp_eval(tc_program(), facts, config)
        assert spmd["path"] == bsp["path"]

    @pytest.mark.parametrize("n_ranks", [1, 2, 5])
    def test_rank_counts(self, n_ranks):
        g = chain(12).with_unit_weights()
        facts = {"edge": g.tuples(), "start": [(0,)]}
        config = EngineConfig(n_ranks=n_ranks)
        spmd = run_spmd_engine(sssp_program(), facts, config)
        assert (0, 11, 11) in spmd["spath"]

    def test_static_join_order(self, weighted_graph):
        facts = {"edge": weighted_graph.tuples(), "start": [(0,)]}
        config = EngineConfig(n_ranks=4, dynamic_join=False, static_outer="right")
        spmd = run_spmd_engine(sssp_program(), facts, config)
        bsp = bsp_eval(sssp_program(), facts, config)
        assert spmd["spath"] == bsp["spath"]

    def test_skewed_graph_with_subbuckets(self):
        g = star(200).with_unit_weights()
        facts = {"edge": g.tuples(), "start": [(0,)]}
        config = EngineConfig(n_ranks=8, subbuckets={"edge": 4})
        spmd = run_spmd_engine(sssp_program(), facts, config)
        bsp = bsp_eval(sssp_program(), facts, config)
        assert spmd["spath"] == bsp["spath"]


class TestRankPrivateStores:
    """What makes the per-rank driver a reference for the BSP one: a rank
    only ever holds shards it owns, at load and after every exchange."""

    @pytest.mark.parametrize("wire", [True, False], ids=["wire-on", "wire-off"])
    def test_every_shard_is_owned_by_its_rank(self, weighted_graph, wire):
        facts = {"edge": weighted_graph.tuples(), "start": [(0,), (3,)]}
        config = EngineConfig(n_ranks=6, subbuckets={"edge": 2}, wire=wire)
        stores = spmd_rank_stores(sssp_program(), facts, config=config)
        assert len(stores) == 6
        n_shards = 0
        for rank, store in enumerate(stores):
            for rel in store:
                for (b, s), _owner, _rows in rel.shard_blocks("full"):
                    assert rel.dist.owner(b, s) == rank
                    n_shards += 1
        assert n_shards > 6
        # ...and together they are the BSP engine's relation.
        bsp = bsp_eval(sssp_program(), facts, config)
        for name in ("edge", "start", "spath"):
            assert sum(s[name].full_size() for s in stores) == len(bsp[name])

    def test_ownership_survives_an_update(self):
        edges = [(i, (i * 7 + 3) % 40, 1 + i % 5) for i in range(120)]
        config = EngineConfig(n_ranks=4, subbuckets={"edge": 2})
        stores = spmd_rank_stores(
            sssp_program(),
            {"edge": edges[:100], "start": [(0,)]},
            [{"edge": edges[100:]}],
            config,
        )
        for rank, store in enumerate(stores):
            for rel in store:
                assert all(
                    rel.dist.owner(b, s) == rank
                    for (b, s), _owner, _rows in rel.shard_blocks("full")
                )
            # the update left no Δ behind on what it touched
            assert store["edge"].delta_size() == store["spath"].delta_size() == 0


class TestAgainstOracle:
    def test_sssp_oracle(self, weighted_graph):
        facts = {"edge": weighted_graph.tuples(), "start": [(0,)]}
        oracle = interpret(sssp_program(), facts)
        spmd = run_spmd_engine(
            sssp_program(), facts, EngineConfig(n_ranks=5)
        )
        assert spmd["spath"] == oracle["spath"]

    def test_multi_rule_program(self):
        even, odd, succ, zero = Rel("even"), Rel("odd"), Rel("succ"), Rel("zero")
        prog = Program(
            rules=[
                even(0) <= zero(0),
                odd(y) <= (even(x), succ(x, y)),
                even(y) <= (odd(x), succ(x, y)),
            ],
            edb={"succ": (2, (0,)), "zero": (1, (0,))},
        )
        facts = {"succ": [(i, i + 1) for i in range(8)], "zero": [(0,)]}
        oracle = interpret(prog, facts)
        spmd = run_spmd_engine(prog, facts, EngineConfig(n_ranks=3))
        assert spmd["even"] == oracle["even"]
        assert spmd["odd"] == oracle["odd"]


class TestValidation:
    def test_unknown_relation(self):
        with pytest.raises(KeyError, match="unknown relation"):
            run_spmd_engine(sssp_program(), {"nope": [(1,)]}, EngineConfig(n_ranks=2))


# ------------------------------------------------------------ ledger identity

#: Counters each slice tallies for its own rank: they sum to the BSP run's.
SUMMED = ("emitted", "admitted", "suppressed", "intra_bucket_tuples",
          "intra_remote_tuples", "alltoall_tuples", "loaded")


def _query_facts(query):
    if query == "sssp":
        g = rmat(5, 3, seed=3).with_weights(np.random.default_rng(2), 9)
        return sssp_program(), {"edge": g.tuples(), "start": [(0,), (3,)]}
    if query == "cc":
        return cc_program(), {"edge": rmat(5, 2, seed=9).symmetrized().tuples()}
    return tc_program(), {"edge": rmat(4, 2, seed=5).tuples()}


def _bsp(program, facts, updates, config):
    if updates:
        handle = FixpointHandle.converge(program, facts, config)
        for batch in updates:
            handle.update(batch)
        return handle.result()
    engine = Engine(program, config)
    for name, rows in facts.items():
        engine.load(name, rows)
    return engine.run()


def assert_ledger_identity(program, facts, config, updates=()):
    """The per-rank run equals the BSP run bit for bit: answers, every
    ledger charge and event, per-iteration snapshots and Δ fingerprints,
    summed tuple counters, and the global counters on every slice."""
    bsp = _bsp(program, facts, updates, config)
    _engines, slices = run_slices(program, facts, updates, config)
    assert len(slices) == config.n_ranks
    for name in bsp.relations:
        assert set().union(*(s.query(name) for s in slices)) == bsp.query(name)
    ledger, expected = slices[0].ledger, bsp.ledger
    assert ledger.phase_seconds == expected.phase_seconds
    assert ledger.rank_compute.tolist() == expected.rank_compute.tolist()
    assert ledger.comm.events == expected.comm.events
    for key in SUMMED:
        assert sum(s.counters.get(key, 0) for s in slices) == bsp.counters.get(key, 0), key
    for key in set(bsp.counters) - set(SUMMED):
        assert all(s.counters.get(key, 0) == bsp.counters[key] for s in slices), key
    for s in slices:
        assert s.iterations == bsp.iterations
        assert [t.phase_seconds for t in s.trace] == [t.phase_seconds for t in bsp.trace]
        assert [t.outer_choices for t in s.trace] == [t.outer_choices for t in bsp.trace]
        assert [t.delta_fingerprints for t in s.trace] == [
            t.delta_fingerprints for t in bsp.trace
        ]
    return bsp, slices


def _cfg(faults=None, **kw):
    return EngineConfig(
        faults=FaultOptions(config=faults),
        diagnostics=DiagnosticsOptions(delta_fingerprints=True),
        **kw,
    )


class TestLedgerIdentity:
    @pytest.mark.parametrize("wire", [True, False], ids=["wire-on", "wire-off"])
    @ON_PLANE
    @pytest.mark.parametrize("n_ranks", [1, 3, 6, 8])
    @pytest.mark.parametrize("query", ["sssp", "cc", "tc"])
    def test_cold(self, plane, query, n_ranks, wire):
        program, facts = _query_facts(query)
        config = _cfg(n_ranks=n_ranks, wire=wire)
        assert_ledger_identity(program, facts, config)

    @pytest.mark.parametrize(
        "variant",
        [
            {"vote_abstain_empty": False},
            {"dynamic_join": False, "static_outer": "right"},
            {"subbuckets": {"edge": 4}},
            # A slow interconnect: the autotune charges direct for the
            # bandwidth-bound exchanges and Bruck for the rest.
            {"cost_model": CostModel(beta=1e7)},
        ],
        ids=["strict-vote", "static-outer", "subbuckets-4", "slow-net"],
    )
    @pytest.mark.parametrize("query", ["sssp", "cc"])
    def test_variants(self, query, variant):
        program, facts = _query_facts(query)
        assert_ledger_identity(program, facts, _cfg(n_ranks=6, **variant))

    @pytest.mark.parametrize("wire", [True, False], ids=["wire-on", "wire-off"])
    @ON_PLANE
    @pytest.mark.parametrize("query", ["sssp", "cc", "tc"])
    def test_two_batch_update(self, plane, query, wire):
        program, facts = _query_facts(query)
        edges = sorted(facts["edge"])
        base = {**facts, "edge": edges[:-12]}
        updates = [{"edge": edges[-12:-5]}, {"edge": edges[-5:]}]
        config = _cfg(n_ranks=4, wire=wire)
        bsp, slices = assert_ledger_identity(program, base, config, updates)
        assert all(s.counters["updates"] == 2 for s in slices)

    def test_heavy_set_same_on_every_slice(self):
        """Every slice reads every edge at its first load, so every slice
        freezes the same heavy-key set as the BSP engine (a star's hub,
        here) and they meet at the same allgather; an update batch places
        its rows by that set on every slice alike."""
        program, facts = _query_facts("sssp")
        hub = 1
        star = [(hub, v, w) for v in range(32) for w in (1, 5)]
        facts = {**facts, "edge": facts["edge"] + star}
        config = _cfg(n_ranks=4, subbuckets={"edge": 4})
        engines, _results = run_slices(program, facts, (), config)
        (heavy,) = {e.store["edge"].schema.heavy_keys for e in engines}
        assert (hub,) in heavy
        assert_ledger_identity(program, facts, config, [{"edge": [(0, 31, 1)]}])

    @pytest.mark.parametrize("query", ["sssp", "tc"])
    def test_folding_join(self, query, monkeypatch):
        """With a pair budget of a few pairs every probe folds as it
        emits, on the BSP engine and on each slice alike."""
        monkeypatch.setattr(executor_mod, "_PAIR_BUDGET", 3)
        program, facts = _query_facts(query)
        with mock.patch.object(
            executor_mod, "_pair_chunks", wraps=executor_mod._pair_chunks
        ) as chunks:
            assert_ledger_identity(program, facts, _cfg(n_ranks=3))
        assert chunks.call_count


class TestConfigHonouredOrRefused:
    """Every EngineConfig field is either honoured by the per-rank driver
    (and then bit-identical to BSP) or refused — never silently dropped."""

    @pytest.mark.parametrize(
        "faults",
        [
            FaultConfig(drop=0.3, max_retries=12, seed=5),
            FaultConfig(dup=0.3, seed=6),
            FaultConfig(corrupt=0.3, max_retries=12, seed=7),
        ],
        ids=["drop", "dup", "corrupt"],
    )
    def test_message_faults(self, faults):
        program, facts = _query_facts("sssp")
        bsp, slices = assert_ledger_identity(
            program, facts, _cfg(n_ranks=4, faults=faults)
        )
        injected = bsp.recovery.injected
        assert injected.drops + injected.dups + injected.corruptions > 0
        assert all(s.recovery.injected == injected for s in slices)

    def test_stragglers(self):
        program, facts = _query_facts("cc")
        faults = FaultConfig(stragglers={1: 3.0})
        bsp, _slices = assert_ledger_identity(
            program, facts, _cfg(n_ranks=4, faults=faults)
        )
        plain = _bsp(program, facts, (), _cfg(n_ranks=4))
        assert bsp.modeled_seconds() > plain.modeled_seconds()

    def test_reordered_delivery(self):
        program, facts = _query_facts("sssp")
        assert_ledger_identity(
            program, facts, _cfg(n_ranks=6, reorder_messages_seed=11)
        )

    @pytest.mark.parametrize(
        "field, config",
        [
            ("faults.crash", EngineConfig(
                n_ranks=4, faults=FaultOptions(spec="crash=1@3"),
                recovery=RecoveryOptions(checkpoint_every=2))),
            ("faults.crash_perm", EngineConfig(
                n_ranks=4, faults=FaultOptions(spec="crash_perm=1@3"),
                recovery=RecoveryOptions(checkpoint_every=2, replicas=1))),
            ("checkpoint_every", EngineConfig(
                n_ranks=4, recovery=RecoveryOptions(checkpoint_every=2))),
            ("replicas", EngineConfig(
                n_ranks=4, recovery=RecoveryOptions(checkpoint_every=2, replicas=1))),
            ("auto_balance", EngineConfig(n_ranks=4, auto_balance=1.5)),
            ("tracer", EngineConfig(
                n_ranks=4, diagnostics=DiagnosticsOptions(tracer=Tracer()))),
            ("diagnostics", EngineConfig(
                n_ranks=4, diagnostics=DiagnosticsOptions(enabled=True))),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_refused(self, field, config):
        # A crash schedule is valid only with checkpoints (and a permanent
        # loss only with replicas), so the message may name those too.
        program, facts = _query_facts("sssp")
        with pytest.raises(ValueError, match=rf"does not run (.*, )?{field}[,;]"):
            run_spmd_engine(program, facts, config)

    def test_one_check_names_every_refused_field(self):
        config = EngineConfig(
            n_ranks=4,
            recovery=RecoveryOptions(checkpoint_every=2),
            auto_balance=1.5,
            diagnostics=DiagnosticsOptions(enabled=True),
            faults=FaultOptions(config=FaultConfig(crash_rank=1, crash_superstep=3)),
        )
        program, facts = _query_facts("sssp")
        with pytest.raises(ValueError) as exc:
            run_spmd_engine(program, facts, config)
        assert "faults.crash, checkpoint_every, auto_balance, diagnostics" in str(
            exc.value
        )


def _within(seconds, fn, *args):
    """``fn(*args)`` on a helper thread that must finish within
    ``seconds``; returns its result or re-raises its exception."""
    out = {}

    def target():
        try:
            out["result"] = fn(*args)
        except BaseException as exc:  # handed back to the caller
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"per-rank run still waiting after {seconds}s"
    if "error" in out:
        raise out["error"]
    return out["result"]


class TestLockstep:
    def test_asymmetric_slice_raises_naming_both_calls(self, monkeypatch):
        real = Engine._advance_and_count

        def skewed(self, stratum):
            if self.cluster.rank == 1:
                self.cluster.allgather([0] * self.config.n_ranks, phase="other")
            return real(self, stratum)

        monkeypatch.setattr(Engine, "_advance_and_count", skewed)
        program, facts = _query_facts("sssp")
        with pytest.raises(LockstepError) as exc:
            _within(5, run_spmd_engine, program, facts, EngineConfig(n_ranks=3))
        msg = str(exc.value)
        assert "rank 0 called allreduce(" in msg
        assert "rank 1 called allgather(" in msg

    def test_exception_in_one_slice_is_reraised(self, monkeypatch):
        real = Engine.load

        def load(self, name, rows):
            if self.cluster.rank == 2:
                raise RuntimeError("rank 2 lost its input")
            return real(self, name, rows)

        monkeypatch.setattr(Engine, "load", load)
        program, facts = _query_facts("sssp")
        with pytest.raises(RuntimeError, match="rank 2 lost its input"):
            _within(5, run_spmd_engine, program, facts, EngineConfig(n_ranks=4))

    def test_ledger_identity_under_rapid_thread_switching(self):
        """More slices than cores, switching every microsecond: a lost
        or reordered compute step would move the ledger."""
        program, facts = _query_facts("cc")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _within(
                30, assert_ledger_identity, program, facts,
                _cfg(n_ranks=8),
            )
        finally:
            sys.setswitchinterval(interval)


ROWS = [(i * i % 97, i) for i in range(200)]


def route_and_sum(comm, rows):
    """A hand-written rank program: ship this rank's stripe of ``rows`` to
    the owners of their first column, then sum the second columns."""
    rank, size = comm.rank, comm.n_ranks
    boxes = {}
    for row in rows[rank::size]:
        boxes.setdefault(row[0] % size, []).append(row)
    # A duplicated message is delivered twice; the set keeps each row once.
    mine = sorted(set(comm.alltoallv({rank: boxes}, arity=2).get(rank, [])))
    return mine, comm.allreduce({rank: sum(b for _a, b in mine)})


class TestRankPrograms:
    """``run_ranks`` runs any rank function on the slice comm, with the
    cluster's fault plane under every collective it calls."""

    def test_message_faults_return_the_fault_free_answer(self):
        clean, _cluster = run_ranks(EngineConfig(n_ranks=4), route_and_sum, ROWS)
        for rank, (mine, total) in enumerate(clean):
            assert mine == sorted(row for row in ROWS if row[0] % 4 == rank)
            assert total == sum(b for _a, b in ROWS)
        faults = FaultConfig(drop=0.3, dup=0.1, corrupt=0.1, max_retries=12, seed=2)
        faulty, cluster = _within(
            30, run_ranks, EngineConfig(n_ranks=4, faults=FaultOptions(config=faults)),
            route_and_sum, ROWS,
        )
        assert faulty == clean
        stats = cluster.faults.stats
        assert stats.drops and stats.dups and stats.corruptions
        assert stats.retransmits > 0

    def test_crash_raises_rank_failure_in_every_slice(self):
        raised = {}

        def program(comm, rows):
            try:
                return route_and_sum(comm, rows)
            except BaseException as exc:
                raised[comm.rank] = exc
                raise

        # Superstep 0 is the all-to-all, 1 the allreduce.  A crash schedule
        # is valid only with checkpoints; a hand-written rank program takes
        # none, so the crash reaches every slice.
        config = EngineConfig(
            n_ranks=4, faults=FaultOptions(spec="crash=2@1"),
            recovery=RecoveryOptions(checkpoint_every=1),
        )
        with pytest.raises(RankFailure) as exc:
            _within(5, run_ranks, config, program, ROWS)
        assert exc.value.rank == 2 and exc.value.where == "allreduce"
        assert sorted(raised) == [0, 1, 2, 3]
        assert all(isinstance(e, RankFailure) for e in raised.values())
