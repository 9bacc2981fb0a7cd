"""Chaos-schedule tests: every faulty run must be bit-for-bit the
fault-free run — results, counters and per-rank relation contents — and
injected corruption must always be detected, never silently absorbed."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultConfig,
    UnrecoverableRankLoss,
)
from repro.queries.cc import run_cc
from repro.queries.pagerank import run_pagerank
from repro.queries.sssp import run_sssp
from repro.runtime.config import (
    DiagnosticsOptions,
    EngineConfig,
    FaultOptions,
    OptionsError,
    RecoveryOptions,
)

#: The one data plane.  The axis has a single value: it keeps the
#: ``columnar`` case ids from when a tuple-at-a-time plane ran beside it.
ON_PLANE = pytest.mark.parametrize("plane", ["columnar"])

#: Seeded fault schedules for the chaos matrix (message faults only).
CHAOS = {
    "drop": FaultConfig(seed=11, drop=0.05),
    "dup": FaultConfig(seed=12, dup=0.08),
    "corrupt": FaultConfig(seed=13, corrupt=0.05),
    "mixed": FaultConfig(seed=14, drop=0.03, dup=0.04, corrupt=0.03),
    "flaky-link": FaultConfig(seed=15, per_edge={(0, 1): (0.6, 0.2, 0.4)}),
}

CRASH = FaultConfig(seed=21, crash_rank=1, crash_superstep=12)

#: Permanent loss of rank 1 mid-run: no restart, the run must finish
#: elastically on the surviving ranks.
PERM = FaultConfig(seed=31, crash_perm_rank=1, crash_perm_superstep=12)


def _cfg(faults=None, checkpoint_every=None, n_ranks=4,
         replicas=0, delta_fingerprints=False):
    return EngineConfig(
        n_ranks=n_ranks,
        faults=FaultOptions(config=faults),
        recovery=RecoveryOptions(
            checkpoint_every=checkpoint_every, replicas=replicas
        ),
        diagnostics=DiagnosticsOptions(delta_fingerprints=delta_fingerprints),
    )


def _invariant_fingerprint(fp, rel):
    """What degraded-mode recovery must preserve: the answers, the exact
    per-iteration Δ content, and the iteration count.  Deliberately NOT
    counters or per-rank sizes — the shrunken world legitimately places
    (and votes on) tuples differently; the *outputs* may not differ."""
    return (
        fp.query(rel),
        [t.delta_fingerprints for t in fp.trace],
        fp.iterations,
    )


def _fingerprint(fp, rel):
    return (
        fp.query(rel),
        dict(sorted(fp.counters.items())),
        {
            name: r.sizes_by_rank().tolist()
            for name, r in sorted(fp.relations.items())
        },
        fp.iterations,
    )


class TestChaosMatrix:
    @ON_PLANE
    @pytest.mark.parametrize("fault", sorted(CHAOS))
    def test_sssp_identical_under_message_faults(
        self, plane, medium_weighted_graph, fault
    ):
        sources = list(range(10))
        base = run_sssp(
            medium_weighted_graph, sources, _cfg()
        ).fixpoint
        faulty = run_sssp(
            medium_weighted_graph, sources, _cfg(CHAOS[fault])
        ).fixpoint
        assert faulty.query("spath") == base.query("spath")
        assert faulty.iterations == base.iterations
        edge_dup = CHAOS[fault].rates_for(np.array([0]), np.array([1]))[0, 1]
        if CHAOS[fault].dup == 0 and edge_dup == 0:
            # Without duplicates even the suppression counters match;
            # duplicates legitimately inflate received/suppressed.
            assert dict(faulty.counters) == dict(base.counters)
        else:
            assert faulty.counters["admitted"] == base.counters["admitted"]
        inj = faulty.recovery.injected
        assert inj.drops or inj.dups or inj.corruptions, (
            "chaos schedule injected nothing — rates or seed too weak"
        )
        # Every injected corruption was caught by the CRC envelope.
        assert inj.detected_corruptions == inj.corruptions

    @ON_PLANE
    @pytest.mark.parametrize("fault", ["drop", "mixed"])
    def test_cc_identical_under_message_faults(
        self, plane, medium_graph, fault
    ):
        base = run_cc(medium_graph, _cfg()).fixpoint
        faulty = run_cc(medium_graph, _cfg(CHAOS[fault])).fixpoint
        assert faulty.query("cc") == base.query("cc")
        assert faulty.counters["admitted"] == base.counters["admitted"]


class TestChaosWireMatrix:
    """PR 7 extension of the chaos matrix: the combined/encoded wire path
    under injected faults must still produce results bit-identical to a
    fault-free run with the wire layer *off* — faults, retransmission and
    the wire optimizations compose without touching semantics."""

    # The faulty run's payload encoding: ``raw`` is the wire off,
    # ``delta`` the wire on.
    @pytest.mark.parametrize("codec", ("raw", "delta"))
    @pytest.mark.parametrize("fault", ["drop", "dup", "corrupt", "mixed"])
    def test_sssp_wire_on_faulty_vs_wire_off_clean(
        self, medium_weighted_graph, fault, codec
    ):
        sources = list(range(10))
        clean_off = run_sssp(
            medium_weighted_graph, sources,
            EngineConfig(n_ranks=4, wire=False),
        ).fixpoint
        faulty_on = run_sssp(
            medium_weighted_graph, sources,
            EngineConfig(n_ranks=4, faults=FaultOptions(config=CHAOS[fault]),
                         wire=codec == "delta"),
        ).fixpoint
        assert faulty_on.query("spath") == clean_off.query("spath")
        assert faulty_on.iterations == clean_off.iterations
        assert {
            name: r.sizes_by_rank().tolist()
            for name, r in sorted(faulty_on.relations.items())
        } == {
            name: r.sizes_by_rank().tolist()
            for name, r in sorted(clean_off.relations.items())
        }
        inj = faulty_on.recovery.injected
        assert inj.drops or inj.dups or inj.corruptions
        assert inj.detected_corruptions == inj.corruptions

    @ON_PLANE
    def test_crash_replay_over_combined_wire(
        self, plane, medium_weighted_graph
    ):
        """Checkpoint/rollback/replay must be oblivious to the wire layer:
        a crash recovery over combined+encoded exchanges ends bit-identical
        to the fault-free wire-on run, including the wire byte tallies."""
        sources = list(range(10))
        base = run_sssp(
            medium_weighted_graph, sources, _cfg()
        ).fixpoint
        faulty = run_sssp(
            medium_weighted_graph, sources,
            _cfg(CRASH, checkpoint_every=2),
        ).fixpoint
        assert _fingerprint(faulty, "spath") == _fingerprint(base, "spath")
        assert (
            faulty.counters["wire_on_wire_bytes"]
            == base.counters["wire_on_wire_bytes"]
        )
        assert (
            faulty.counters["wire_precombine_bytes"]
            == base.counters["wire_precombine_bytes"]
        )


class TestCrashRecovery:
    @ON_PLANE
    def test_sssp_recovers_bit_for_bit(self, plane, medium_weighted_graph):
        sources = list(range(10))
        base = run_sssp(
            medium_weighted_graph, sources, _cfg()
        ).fixpoint
        faulty = run_sssp(
            medium_weighted_graph, sources,
            _cfg(CRASH, checkpoint_every=2),
        ).fixpoint
        assert _fingerprint(faulty, "spath") == _fingerprint(base, "spath")
        rec = faulty.recovery
        assert rec.injected.crashes == 1
        assert rec.failures == 1 and rec.recoveries == 1
        assert rec.checkpoints >= 1
        assert rec.rolled_back_iterations >= 0
        # Recovery work is charged to the modeled ledger, not free.
        assert faulty.ledger.phase_seconds.get("recovery", 0) > 0
        assert faulty.ledger.phase_seconds.get("checkpoint", 0) > 0
        assert faulty.modeled_seconds() > base.modeled_seconds()

    @ON_PLANE
    def test_cc_recovers_bit_for_bit(self, plane, medium_graph):
        base = run_cc(medium_graph, _cfg()).fixpoint
        faulty = run_cc(
            medium_graph, _cfg(CRASH, checkpoint_every=2)
        ).fixpoint
        assert _fingerprint(faulty, "cc") == _fingerprint(base, "cc")
        assert faulty.recovery.recoveries == 1

    def test_pagerank_recovers_identically(self, medium_graph):
        base = run_pagerank(medium_graph, iterations=3, config=_cfg())
        faulty = run_pagerank(
            medium_graph, iterations=3,
            config=_cfg(FaultConfig(seed=22, crash_rank=1, crash_superstep=4),
                        checkpoint_every=1),
        )
        assert np.array_equal(base, faulty)

    def test_crash_without_checkpoint_raises(self):
        """Up front, not as a RankFailure mid-run."""
        with pytest.raises(OptionsError, match="--checkpoint-every"):
            _cfg(CRASH)

    def test_crash_with_message_faults_combined(self, medium_weighted_graph):
        sources = list(range(10))
        base = run_sssp(
            medium_weighted_graph, sources, _cfg()
        ).fixpoint
        combined = FaultConfig(
            seed=23, drop=0.02, corrupt=0.02, crash_rank=2, crash_superstep=10
        )
        faulty = run_sssp(
            medium_weighted_graph, sources,
            _cfg(combined, checkpoint_every=2),
        ).fixpoint
        assert faulty.query("spath") == base.query("spath")
        assert faulty.recovery.recoveries == 1


class TestIdempotence:
    @given(seed=st.integers(0, 2**16), dup=st.floats(0.01, 0.4))
    @settings(max_examples=15)
    def test_duplicated_deliveries_never_change_aggregates(self, seed, dup):
        """Replayed/duplicated messages are lattice no-ops (the property
        the recovery protocol rests on)."""
        from repro.graphs.types import Graph

        edges = np.array(
            [(0, 1, 4), (0, 2, 9), (1, 2, 1), (2, 3, 2),
             (3, 1, 1), (1, 4, 7), (3, 4, 3), (5, 6, 1)],
            dtype=np.int64,
        )
        graph = Graph(edges=edges, n_nodes=7, name="fixture")
        base = run_sssp(graph, [0, 5], _cfg()).fixpoint
        faulty = run_sssp(
            graph, [0, 5],
            _cfg(FaultConfig(seed=seed, dup=dup)),
        ).fixpoint
        assert faulty.query("spath") == base.query("spath")
        assert faulty.counters["admitted"] == base.counters["admitted"]


#: What the fault plane did to SSSP (sources 0-9) and CC on the medium
#: graphs at 16 ranks, four sub-buckets a relation, under
#: ``drop=0.05,dup=0.05,corrupt=0.05,seed=7``: the injected drops, dups
#: and corruptions, the retransmissions they cost, and the modeled
#: seconds and comm bytes of the run.  Each message's fate hashes its
#: superstep, ranks and attempt, so these pin which supersteps carry
#: which messages.  Refereed by the fault-free run: equal answers, every
#: corruption detected, and equal admissions with dups injected (each
#: duplicated copy dropped once at absorb).
FAULT_GOLDEN = {
    "sssp": ((47, 50, 55, 97, 3625), 0.000379084, 38118),
    "cc": ((42, 40, 39, 76, 669), 0.0002174892, 8747),
}


@pytest.mark.parametrize("query", sorted(FAULT_GOLDEN))
def test_fault_plane_outcomes_are_pinned(query, medium_graph, medium_weighted_graph):
    def run(spec):
        config = EngineConfig(
            n_ranks=16, default_subbuckets=4, faults=FaultOptions(spec=spec)
        )
        if query == "sssp":
            return run_sssp(medium_weighted_graph, list(range(10)), config).fixpoint
        return run_cc(medium_graph, config).fixpoint

    fp = run("drop=0.05,dup=0.05,corrupt=0.05,seed=7")
    clean = run(None)
    for name in clean.relations:
        assert fp.query(name) == clean.query(name), name
    inj = fp.recovery.injected
    assert inj.dups and fp.counters["admitted"] == clean.counters["admitted"]
    assert inj.detected_corruptions == inj.corruptions
    injected, modeled, comm_bytes = FAULT_GOLDEN[query]
    assert (
        inj.drops, inj.dups, inj.corruptions, inj.retransmits,
        inj.retransmitted_bytes,
    ) == injected
    assert fp.modeled_seconds() == pytest.approx(modeled, rel=1e-12)
    assert fp.ledger.comm.bytes_total == comm_bytes


class TestFaultFreeInvariance:
    def test_plane_absent_ledger_untouched(self, medium_weighted_graph):
        sources = list(range(5))
        a = run_sssp(medium_weighted_graph, sources, _cfg()).fixpoint
        b = run_sssp(medium_weighted_graph, sources, _cfg()).fixpoint
        assert a.summary() == b.summary()
        assert a.recovery is None

    def test_inert_plane_ledger_untouched(self, medium_weighted_graph):
        """An all-zero fault config must not perturb modeled totals."""
        sources = list(range(5))
        base = run_sssp(medium_weighted_graph, sources, _cfg()).fixpoint
        inert = run_sssp(
            medium_weighted_graph, sources,
            _cfg(FaultConfig()),
        ).fixpoint
        assert inert.summary() == base.summary()

    def test_straggler_changes_time_not_results(self, medium_weighted_graph):
        sources = list(range(5))
        base = run_sssp(medium_weighted_graph, sources, _cfg()).fixpoint
        slow = run_sssp(
            medium_weighted_graph, sources,
            _cfg(FaultConfig(stragglers={1: 4.0})),
        ).fixpoint
        assert slow.query("spath") == base.query("spath")
        assert dict(slow.counters) == dict(base.counters)
        assert slow.modeled_seconds() > base.modeled_seconds()


class TestCheckpointAccounting:
    def test_checkpoints_without_faults(self, medium_weighted_graph):
        """Checkpointing alone (no plane) works and charges the ledger."""
        sources = list(range(5))
        base = run_sssp(medium_weighted_graph, sources, _cfg()).fixpoint
        ck = run_sssp(
            medium_weighted_graph, sources,
            _cfg(checkpoint_every=2),
        ).fixpoint
        assert ck.query("spath") == base.query("spath")
        assert ck.recovery is not None
        assert ck.recovery.checkpoints >= 2
        assert ck.recovery.failures == 0
        assert ck.ledger.phase_seconds.get("checkpoint", 0) > 0

    def test_interval_controls_checkpoint_count(self, medium_weighted_graph):
        sources = list(range(5))
        every_1 = run_sssp(
            medium_weighted_graph, sources,
            _cfg(checkpoint_every=1),
        ).fixpoint
        every_4 = run_sssp(
            medium_weighted_graph, sources,
            _cfg(checkpoint_every=4),
        ).fixpoint
        assert every_1.recovery.checkpoints > every_4.recovery.checkpoints

    def test_recovery_stats_in_report(self, medium_weighted_graph):
        faulty = run_sssp(
            medium_weighted_graph, list(range(10)),
            _cfg(CRASH, checkpoint_every=2),
        ).fixpoint
        d = faulty.recovery.as_dict()
        assert d["failures"] == 1
        assert d["injected"]["crashes"] == 1
        assert faulty.metrics_dict()


class TestReplication:
    """Checkpoint replication without any fault: pure overhead, zero
    semantic effect."""

    def test_replication_is_invariant_and_charged(self, medium_weighted_graph):
        sources = list(range(5))
        plain = run_sssp(
            medium_weighted_graph, sources,
            _cfg(checkpoint_every=2),
        ).fixpoint
        mirrored = run_sssp(
            medium_weighted_graph, sources,
            _cfg(checkpoint_every=2, replicas=2),
        ).fixpoint
        assert mirrored.query("spath") == plain.query("spath")
        assert dict(mirrored.counters) == dict(plain.counters)
        assert mirrored.iterations == plain.iterations
        rec = mirrored.recovery
        assert rec.replica_bytes > 0 and rec.replica_seconds > 0
        assert plain.recovery.replica_bytes == 0
        assert mirrored.ledger.comm.by_kind.get("replica", 0) > 0
        assert mirrored.modeled_seconds() > plain.modeled_seconds()

    def test_replica_bytes_scale_with_factor(self, medium_weighted_graph):
        sources = list(range(5))
        runs = {
            r: run_sssp(
                medium_weighted_graph, sources,
                _cfg(checkpoint_every=2, replicas=r),
            ).fixpoint.recovery.replica_bytes
            for r in (1, 2, 3)
        }
        assert runs[1] > 0
        assert runs[2] == 2 * runs[1]
        assert runs[3] == 3 * runs[1]

    def test_replicas_validated_against_world(self):
        with pytest.raises(ValueError, match="replicas"):
            _cfg(checkpoint_every=2, replicas=4)
        with pytest.raises(ValueError, match="replicas"):
            _cfg(checkpoint_every=2, replicas=-1)


class TestPermanentLoss:
    """Permanent rank loss: the run finishes on the shrunken world with
    answers, per-iteration Δ fingerprints and iteration counts identical
    to the fault-free run."""

    @ON_PLANE
    @pytest.mark.parametrize("replicas", (1, 2))
    def test_sssp_degraded_equivalence(
        self, plane, medium_weighted_graph, replicas
    ):
        sources = list(range(10))
        base = run_sssp(
            medium_weighted_graph, sources,
            _cfg(delta_fingerprints=True),
        ).fixpoint
        faulty = run_sssp(
            medium_weighted_graph, sources,
            _cfg(PERM, checkpoint_every=2,
                 replicas=replicas, delta_fingerprints=True),
        ).fixpoint
        assert faulty.recovery.injected.permanent_crashes == 1
        assert _invariant_fingerprint(faulty, "spath") == _invariant_fingerprint(
            base, "spath"
        )
        deg = faulty.degraded
        assert deg is not None
        assert deg.excluded_ranks == [1] and deg.epoch == 1
        assert deg.reowned_shards > 0
        assert deg.restored_tuples > 0 and deg.restored_bytes > 0
        assert len(deg.replica_sources) == 1
        dead, buddy = deg.replica_sources[0]
        assert dead == 1 and buddy not in (1,)
        # The dead rank owns nothing after re-owning.
        for _name, rel in sorted(faulty.relations.items()):
            assert rel.sizes_by_rank()[1] == 0
        # Restore + re-owning are charged to the modeled ledger.
        assert faulty.ledger.comm.by_kind.get("replica", 0) > 0
        assert faulty.ledger.comm.by_kind.get("reown", 0) > 0
        assert faulty.ledger.phase_seconds.get("recovery", 0) > 0
        rec = faulty.recovery
        assert rec.failures == 1 and rec.recoveries == 1

    @ON_PLANE
    def test_cc_degraded_equivalence(self, plane, medium_graph):
        base = run_cc(
            medium_graph, _cfg(delta_fingerprints=True)
        ).fixpoint
        faulty = run_cc(
            medium_graph,
            _cfg(PERM, checkpoint_every=2, replicas=1,
                 delta_fingerprints=True),
        ).fixpoint
        assert _invariant_fingerprint(faulty, "cc") == _invariant_fingerprint(
            base, "cc"
        )
        assert faulty.degraded is not None
        assert faulty.degraded.excluded_ranks == [1]

    def test_ring_wraparound_buddy(self, medium_weighted_graph):
        """Losing the last rank in the ring restores from rank 0."""
        perm_last = FaultConfig(seed=33, crash_perm_rank=3,
                                crash_perm_superstep=12)
        sources = list(range(10))
        base = run_sssp(
            medium_weighted_graph, sources,
            _cfg(delta_fingerprints=True),
        ).fixpoint
        faulty = run_sssp(
            medium_weighted_graph, sources,
            _cfg(perm_last, checkpoint_every=2, replicas=1,
                 delta_fingerprints=True),
        ).fixpoint
        assert _invariant_fingerprint(faulty, "spath") == _invariant_fingerprint(
            base, "spath"
        )
        assert faulty.degraded.replica_sources == [(3, 0)]

    def test_unreplicated_loss_is_unrecoverable(self):
        """replicas=0 + permanent loss must fail loudly, with a message
        that says how to fix it — never a silent wrong answer.  The config
        refuses it before anything runs."""
        with pytest.raises(OptionsError, match="--replicas"):
            _cfg(PERM, checkpoint_every=2)

    def test_permanent_loss_without_checkpoint_raises(self):
        with pytest.raises(OptionsError, match="--checkpoint-every"):
            _cfg(PERM, replicas=1)

    def test_degraded_report_fields(self, medium_weighted_graph):
        faulty = run_sssp(
            medium_weighted_graph, list(range(10)),
            _cfg(PERM, checkpoint_every=2, replicas=2),
        ).fixpoint
        d = faulty.degraded.as_dict()
        assert d["excluded_ranks"] == [1]
        assert d["epoch"] == 1
        assert d["reowned_shards"] > 0
        assert d["restored_bytes"] > 0
        assert d["reown_seconds"] > 0
        assert faulty.recovery.as_dict()["injected"]["permanent_crashes"] == 1


class TestOneRollback:
    """Restart and permanent loss share one rollback and one booking
    tail (``RecoveryManager.recover``): the same crash point books the
    same recovery.  Final ``counters`` are deliberately not compared —
    on the degraded world the vote sees other per-rank sizes."""

    @ON_PLANE
    @pytest.mark.parametrize(
        "faults", (CRASH, PERM), ids=("restart", "permanent")
    )
    def test_same_crash_point_books_same_recovery(
        self, plane, medium_weighted_graph, faults
    ):
        sources = list(range(10))
        base = run_sssp(medium_weighted_graph, sources, _cfg()).fixpoint
        faulty = run_sssp(
            medium_weighted_graph, sources,
            _cfg(faults, checkpoint_every=2, replicas=1),
        ).fixpoint
        assert faulty.query("spath") == base.query("spath")
        assert faulty.iterations == base.iterations
        rec = faulty.recovery
        assert (rec.failures, rec.recoveries) == (1, 1)
        # Crash in flight at iteration 3, last checkpoint after the
        # first pass: three iterations replayed, whichever path ran.
        assert rec.events == [(0, 3, 0)]
        assert rec.rolled_back_iterations == 3
        assert rec.recovery_seconds > 0
        assert (faulty.degraded is not None) == faults.has_permanent_crash

    def test_unrecoverable_loss_mutates_nothing(self, medium_weighted_graph):
        """Buddy lookup precedes the rollback: with no replica to restore
        from, the failure surfaces before any state is rewound.  The config
        refuses replicas=0 up front, so the replicas are dropped after the
        engine is built to reach the recovery plane's own guard."""
        from repro.queries.sssp import sssp_program
        from repro.runtime.engine import Engine

        eng = Engine(sssp_program(), _cfg(PERM, checkpoint_every=2, replicas=1))
        eng.config.recovery.replicas = 0
        eng.load("edge", medium_weighted_graph.tuples())
        eng.load("start", [(s,) for s in range(10)])
        with pytest.raises(UnrecoverableRankLoss):
            eng.run()
        # Iteration 2 was in flight; a rollback would have rewound all
        # three to the post-first-pass checkpoint.
        assert eng._iterations == 2 and len(eng.trace) == 2
        assert eng.counters["admitted"] > 0
        assert eng.recovery.stats.recoveries == 0
        assert eng.recovery.dead_ranks == set() and eng.recovery.degraded is None


class TestCheckpointRoundTrip:
    """Property: capture → arbitrary mutation → restore is an exact
    round-trip of every observable the fixpoint loop reads — tuple sets,
    both version generations, and the sub-bucket schema."""

    @staticmethod
    def _observe(rel):
        return (
            rel.as_set(),
            set(rel.iter_delta()),
            rel.full_gen,
            rel.delta_gen,
            rel.schema,
        )

    @given(
        first=st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 63)),
            min_size=1, max_size=40,
        ),
        second=st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 63)),
            max_size=40,
        ),
        sub0=st.integers(1, 8),
        sub1=st.integers(1, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_capture_restore_exact(self, first, second, sub0, sub1):
        import dataclasses

        from repro.faults import checkpoint as ckpt_mod
        from repro.relational.schema import Schema
        from repro.relational.storage import RelationStore

        store = RelationStore(4)
        rel = store.declare(
            Schema(name="r", arity=2, join_cols=(0,), n_subbuckets=sub0)
        )
        rel.load(first)
        rel.advance()
        before = self._observe(rel)

        ckpt = ckpt_mod.capture(
            store, ["r"], stratum=0, iteration=0, changed=True,
            iterations_total=1, counters={"admitted": len(first)},
            trace_len=0,
        )

        # Mutate everything the loop mutates: more tuples, another Δ
        # promotion, and a sub-bucket resize (the rebalancer's move).
        rel.load(second)
        rel.advance()
        if sub1 != sub0:
            rel.set_schema(dataclasses.replace(rel.schema, n_subbuckets=sub1))

        ckpt_mod.restore(store, ckpt)
        assert self._observe(rel) == before
        assert ckpt.counters == {"admitted": len(first)}

        # The checkpoint survives rollback: a second failure inside the
        # same interval restores from the same boundary again.
        rel.load(second)
        rel.advance()
        ckpt_mod.restore(store, ckpt)
        assert self._observe(rel) == before

    @given(
        superstep=st.integers(4, 20),
        seed=st.integers(0, 2**16),
        replicas=st.integers(1, 3),
    )
    @settings(max_examples=12, deadline=None)
    def test_permanent_loss_accounting_invariants(
        self, superstep, seed, replicas
    ):
        """Whatever the crash schedule, the books must balance: one
        failure ↔ one recovery ↔ one excluded rank, replica traffic
        strictly positive, and the answers fault-free-identical."""
        from repro.graphs.types import Graph

        edges = np.array(
            [(0, 1, 4), (0, 2, 9), (1, 2, 1), (2, 3, 2),
             (3, 1, 1), (1, 4, 7), (3, 4, 3), (5, 6, 1), (4, 5, 2)],
            dtype=np.int64,
        )
        graph = Graph(edges=edges, n_nodes=7, name="fixture")
        base = run_sssp(graph, [0, 5], _cfg()).fixpoint
        faults = FaultConfig(
            seed=seed, crash_perm_rank=1, crash_perm_superstep=superstep
        )
        faulty = run_sssp(
            graph, [0, 5],
            _cfg(faults, checkpoint_every=1, replicas=replicas),
        ).fixpoint
        assert faulty.query("spath") == base.query("spath")
        rec = faulty.recovery
        assert rec.replica_bytes > 0
        fired = rec.injected.permanent_crashes
        assert fired in (0, 1)  # schedule may land past the fixpoint
        assert rec.failures == rec.recoveries == fired
        if fired:
            deg = faulty.degraded
            assert deg is not None
            assert deg.excluded_ranks == [1] and deg.epoch == 1
            assert len(deg.replica_sources) == 1
            assert rec.recovery_seconds > 0
        else:
            assert faulty.degraded is None
