"""Incremental fixpoint maintenance tests (PR 10).

The contract under test is absolute: after any sequence of EDB update
batches, a :class:`FixpointHandle` must be **bit-identical** — query
answers AND every relation's final full-version multiset — to a cold
recompute on the union EDB.  Updates that cannot keep that promise must
raise :class:`IncrementalUnsupportedError` *before* answering wrong.
"""

import numpy as np
import pytest

from repro import (
    Engine,
    EngineConfig,
    FixpointHandle,
    IncrementalUnsupportedError,
    MIN,
    Program,
    Rel,
    SUM,
    vars_,
)
from repro.api import (
    DiagnosticsOptions,
    FaultOptions,
    RecoveryOptions,
)
from repro.faults.config import FaultConfig
from repro.queries.sssp import sssp_program
from repro.runtime.incremental import (
    check_batch_supported,
    check_program_supported,
    improvable_watch,
)

#: The one data plane.  The axis has a single value: it keeps the
#: ``columnar`` case ids from when a tuple-at-a-time plane ran beside it.
ON_PLANE = pytest.mark.parametrize("plane", ["columnar"])

x, y, z, f, t, m, l, w, n = vars_("x y z f t m l w n")


def random_edges(n_nodes, n_edges, seed, max_w=9):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, size=n_edges)
    dst = rng.integers(0, n_nodes, size=n_edges)
    wgt = rng.integers(1, max_w + 1, size=n_edges)
    return sorted({(int(a), int(b), int(c)) for a, b, c in zip(src, dst, wgt)})


def cold_sssp(edges, starts, config):
    engine = Engine(sssp_program(), config)
    engine.load("edge", edges)
    engine.load("start", [(s,) for s in starts])
    engine.run()
    return engine


def multisets(store, names):
    return {name: sorted(store[name].iter_full()) for name in names}


def assert_bit_identical(warm_engine, cold_engine):
    names = sorted(cold_engine.store.relations)
    assert sorted(warm_engine.store.relations) == names
    assert multisets(warm_engine.store, names) == multisets(
        cold_engine.store, names
    )


def split(edges, k):
    return edges[:-k], edges[-k:]


class TestIdentity:
    @ON_PLANE
    def test_single_batch(self, plane):
        edges = random_edges(60, 240, seed=1)
        base, batch = split(edges, 12)
        config = EngineConfig(n_ranks=8)
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": base, "start": [(0,)]}, config
        )
        handle.update({"edge": batch})
        cold = cold_sssp(edges, [0], config)
        assert handle.query("spath") == cold.store["spath"].as_set()
        assert_bit_identical(handle.engine, cold)

    @ON_PLANE
    def test_multi_batch_sequence(self, plane):
        edges = random_edges(50, 200, seed=2)
        base, rest = split(edges, 30)
        batches = [rest[0:10], rest[10:20], rest[20:30]]
        config = EngineConfig(n_ranks=6)
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": base, "start": [(0,), (1,)]}, config
        )
        for batch in batches:
            handle.update({"edge": batch})
        cold = cold_sssp(edges, [0, 1], config)
        assert_bit_identical(handle.engine, cold)
        assert handle.updates == 3
        assert handle.result().counters["updates"] == 3

    def test_update_reaching_new_vertices(self):
        """A batch that extends the frontier into fresh vertex ids."""
        base = [(0, 1, 2), (1, 2, 3)]
        batch = [(2, 100, 1), (100, 101, 1)]
        config = EngineConfig(n_ranks=4)
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": base, "start": [(0,)]}, config
        )
        handle.update({"edge": batch})
        cold = cold_sssp(base + batch, [0], config)
        assert_bit_identical(handle.engine, cold)
        assert (0, 101, 7) in handle.query("spath")

    def test_empty_batch_is_noop(self):
        edges = random_edges(20, 60, seed=3)
        config = EngineConfig(n_ranks=4)
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": edges, "start": [(0,)]}, config
        )
        before = handle.query("spath")
        handle.update({"edge": []})
        assert handle.query("spath") == before
        assert handle.updates == 1

    def test_duplicate_tuples_absorbed(self):
        """Re-inserting already-present facts must change nothing."""
        edges = random_edges(20, 60, seed=4)
        config = EngineConfig(n_ranks=4)
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": edges, "start": [(0,)]}, config
        )
        handle.update({"edge": edges[:7]})
        cold = cold_sssp(edges, [0], config)
        assert_bit_identical(handle.engine, cold)

    def test_unknown_edb_rejected(self):
        config = EngineConfig(n_ranks=2)
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": [(0, 1, 1)], "start": [(0,)]}, config
        )
        with pytest.raises(KeyError):
            handle.update({"nonsense": [(1, 2)]})
        with pytest.raises(KeyError):
            handle.update({"spath": [(0, 2, 1)]})  # IDB, not EDB

    def test_update_start_relation(self):
        """Updates may target any EDB relation, not just edge."""
        edges = random_edges(30, 100, seed=5)
        config = EngineConfig(n_ranks=4)
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": edges, "start": [(0,)]}, config
        )
        handle.update({"start": [(3,)]})
        cold = cold_sssp(edges, [0, 3], config)
        assert_bit_identical(handle.engine, cold)


    def test_wrong_arity_batch_raises_before_mutation(self):
        """Rows of the wrong arity are refused, not reshaped: three
        arity-2 rows must not become the arity-3 edges (2, 3, 3) and
        (4, 4, 5).  Nothing is mutated and the handle stays usable."""
        from repro.api import Options, Session

        edges = random_edges(40, 160, seed=13)
        base, batch = split(edges, 8)
        session = Session(Options(n_ranks=4))
        session.query(sssp_program(), {"edge": base, "start": [(0,)]})
        before = session.relation("spath")
        with pytest.raises(ValueError, match="edge: expected rows of arity 3"):
            session.update({"edge": [(2, 3), (3, 4), (4, 5)]})
        assert session.relation("spath") == before
        assert sorted(session.engine.store["edge"].iter_full()) == sorted(base)
        session.update({"edge": batch})
        cold = cold_sssp(edges, [0], EngineConfig(n_ranks=4))
        assert_bit_identical(session.engine, cold)

    def test_seed_routes_distinct_rows_in_lexicographic_order(self):
        """However a batch arrives — shuffled, with repeats, with negative
        ids — the seed exchange ships its distinct rows in lexicographic
        order, so the update is the one its sorted set makes, to the
        ledger byte."""
        edges = random_edges(50, 220, seed=14)
        base, batch = split(edges, 15)
        batch = batch + [(-3, 1, 2), (-1, -3, 4)]
        order = np.random.default_rng(3).permutation(len(batch))
        messy = [batch[i] for i in order] + batch[:4]

        def update(rows):
            handle = FixpointHandle.converge(
                sssp_program(), {"edge": base, "start": [(0,)]},
                EngineConfig(n_ranks=6, wire=False),
            )
            cluster, sent = handle.engine.cluster, []
            exchange = cluster.alltoallv

            def spy(sends, **kw):
                if kw.get("kind") == "incremental_seed":
                    sent.extend(sends.item(k) for k in range(len(sends)))
                return exchange(sends, **kw)

            cluster.alltoallv = spy
            return handle.update({"edge": rows}), sent

        messy_result, boxes = update(messy)
        for box in boxes:
            rows = list(map(tuple, box.tolist()))
            assert rows == sorted(set(rows))
        assert sorted(t for box in boxes for t in map(tuple, box.tolist())) == (
            sorted(set(batch))
        )
        clean_result, _ = update(sorted(set(batch)))
        assert messy_result.modeled_seconds() == clean_result.modeled_seconds()
        assert messy_result.ledger.comm.bytes_total == (
            clean_result.ledger.comm.bytes_total
        )
        assert messy_result.query("spath") == clean_result.query("spath")

    @ON_PLANE
    def test_update_hitting_max_iterations_raises(self, plane):
        """The resumed loop honours max_iterations, and says it was an update."""
        config = EngineConfig(n_ranks=4, max_iterations=4)
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": [(0, 1, 1)], "start": [(0,)]}, config
        )
        chain = [(i, i + 1, 1) for i in range(1, 12)]  # 11 more hops
        with pytest.raises(
            RuntimeError,
            match="did not converge within 4 iterations during an incremental update",
        ):
            handle.update({"edge": chain})

    @ON_PLANE
    def test_update_pass_is_marked_in_the_trace(self, plane):
        """Cold start and update are one loop; only the update's first
        pass carries ``update_pass``."""
        from repro.obs import Tracer

        edges = random_edges(30, 90, seed=8)
        base, batch = split(edges, 6)
        config = EngineConfig(
            n_ranks=4, diagnostics=DiagnosticsOptions(tracer=Tracer())
        )
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": base, "start": [(0,)]}, config
        )
        cold = handle.result().spans_named("iteration")
        assert cold and not any("update_pass" in sp.attrs for sp in cold)
        n_cold = len(cold)
        warm = handle.update({"edge": batch}).spans_named("iteration")[n_cold:]
        marked = [sp for sp in warm if sp.attrs.get("update_pass")]
        assert [sp.iteration for sp in marked] == [0]
        assert warm[0] is marked[0]  # and it is the update's first pass


class TestComposition:
    def test_wire_codecs(self):
        edges = random_edges(50, 220, seed=7)
        base, batch = split(edges, 11)
        for wire in (False, True):
            config = EngineConfig(n_ranks=6, wire=wire)
            handle = FixpointHandle.converge(
                sssp_program(), {"edge": base, "start": [(0,)]}, config
            )
            handle.update({"edge": batch})
            cold = cold_sssp(edges, [0], config)
            assert_bit_identical(handle.engine, cold)

    @pytest.mark.parametrize("wire", [True, False], ids=["wire-on", "wire-off"])
    def test_seed_loads_what_its_exchange_delivers(self, wire):
        """The owners load the rows the seed exchange delivers, not the
        sender's batch: a delivered box taken away after the exchange
        never reaches ``edge``."""
        from unittest import mock

        from repro.comm.boxes import Delivery
        from repro.comm.simcluster import SimCluster

        edges = random_edges(50, 220, seed=14)
        base, batch = split(edges, 15)
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": base, "start": [(0,)]},
            EngineConfig(n_ranks=6, wire=wire),
        )
        exchange, lost = SimCluster.alltoallv, []

        def lose_first_seed_box(cluster, sends, **kw):
            recv = exchange(cluster, sends, **kw)
            if kw.get("kind") != "incremental_seed":
                return recv
            lost.extend(map(tuple, sends.rows_of(recv.order[:1]).tolist()))
            return Delivery(recv.table, recv.order[1:])

        with mock.patch.object(SimCluster, "alltoallv", lose_first_seed_box):
            handle.update({"edge": batch})
        assert lost and not set(lost) & set(base)
        assert not set(lost) & handle.engine.store["edge"].as_set()
        assert set(batch) - set(lost) <= handle.engine.store["edge"].as_set()

    @pytest.mark.parametrize("wire", [True, False], ids=["wire-on", "wire-off"])
    def test_seed_exchange_follows_the_wire(self, wire):
        """The update seed exchange is encoded and autotuned exactly when
        the wire layer is on, like the route exchange."""
        from repro.obs.tracer import Tracer

        edges = random_edges(50, 220, seed=7)
        base, batch = split(edges, 11)
        config = EngineConfig(
            n_ranks=6, wire=wire,
            diagnostics=DiagnosticsOptions(tracer=Tracer()),
        )
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": base, "start": [(0,)]}, config
        )
        result = handle.update({"edge": batch})
        seed_choices = [
            sp for sp in result.spans
            if sp.name == "collective_choice"
            and sp.attrs["phase"] == "incremental_seed"
        ]
        assert len(seed_choices) == (1 if wire else 0)

    def test_rebalance(self):
        """The cold run's resize fixes ``edge``'s sub-bucket map; an
        update routes its batch under that map and leaves it as it is."""
        edges = random_edges(60, 400, seed=8)
        base, batch = split(edges, 17)
        config = EngineConfig(n_ranks=8, auto_balance=1.0, subbuckets={"edge": 1})
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": base, "start": [(0,)]}, config
        )
        n_sub = handle.engine.store["edge"].schema.n_subbuckets
        assert n_sub > 1
        handle.update({"edge": batch})
        assert handle.engine.store["edge"].schema.n_subbuckets == n_sub
        cold = cold_sssp(edges, [0], EngineConfig(n_ranks=8))
        assert handle.query("spath") == cold.store["spath"].as_set()

    def test_drop_dup_chaos(self):
        edges = random_edges(50, 220, seed=9)
        base, batch = split(edges, 13)
        chaos = EngineConfig(
            n_ranks=6,
            faults=FaultOptions(config=FaultConfig(seed=31, drop=0.05, dup=0.05)),
        )
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": base, "start": [(0,)]}, chaos
        )
        handle.update({"edge": batch})
        cold = cold_sssp(edges, [0], EngineConfig(n_ranks=6))
        assert_bit_identical(handle.engine, cold)

    def test_crash_mid_update_replays_bit_identically(self):
        edges = random_edges(60, 300, seed=10)
        base, batch = split(edges, 40)

        # Probe the superstep clock with an inert fault plane to find
        # the update window.
        probe_cfg = EngineConfig(
            n_ranks=6, faults=FaultOptions(config=FaultConfig(seed=1)),
            recovery=RecoveryOptions(checkpoint_every=2),
        )
        probe = FixpointHandle.converge(
            sssp_program(), {"edge": base, "start": [(0,)]}, probe_cfg
        )
        ss_conv = probe.engine.fault_plane.superstep
        probe.update({"edge": batch})
        ss_done = probe.engine.fault_plane.superstep
        assert ss_done > ss_conv

        crash_at = (ss_conv + ss_done) // 2
        chaos = EngineConfig(
            n_ranks=6,
            faults=FaultOptions(config=FaultConfig(
                seed=1, crash_rank=2, crash_superstep=crash_at
            )),
            recovery=RecoveryOptions(checkpoint_every=2),
        )
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": base, "start": [(0,)]}, chaos
        )
        handle.update({"edge": batch})
        rec = handle.result().recovery
        assert rec.injected.crashes == 1
        assert rec.recoveries == 1
        cold = cold_sssp(edges, [0], EngineConfig(n_ranks=6))
        assert_bit_identical(handle.engine, cold)

    def test_update_cheaper_than_cold(self):
        """The economic point: a small batch costs a fraction of a cold
        run in modeled time (the >= 5x acceptance bound is asserted at a
        larger scale by CI's ``incremental-gate`` on ``paralagg update
        --json``'s ``speedup_vs_cold``; this scale is too thin to pin it)."""
        edges = random_edges(300, 3000, seed=11)
        k = max(1, len(edges) // 100)
        base, batch = split(edges, k)
        config = EngineConfig(n_ranks=16, subbuckets={"edge": 4})
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": base, "start": [(0,)]}, config
        )
        base_modeled = handle.result().modeled_seconds()
        handle.update({"edge": batch})
        update_modeled = handle.result().modeled_seconds() - base_modeled
        cold = cold_sssp(edges, [0], config)
        cold_modeled = cold.cluster.ledger.total_seconds()
        assert update_modeled < cold_modeled / 2
        assert_bit_identical(handle.engine, cold)

    def test_update_phase_and_channel_charged(self):
        """Updates must be visible in the cost model: the seed phase and
        the update trace span both carry the batch."""
        edges = random_edges(40, 160, seed=12)
        base, batch = split(edges, 8)
        config = EngineConfig(n_ranks=4)
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": base, "start": [(0,)]}, config
        )
        handle.update({"edge": batch})
        result = handle.result()
        assert "incremental_seed" in result.phase_breakdown()
        assert result.counters["update_batch_tuples"] == len(batch)
        assert result.counters["update_seed_tuples"] >= 1


def lsp_watch_program():
    """spath read downstream of its own stratum → it is improvement-watched."""
    edge, start, spath, best = Rel("edge"), Rel("start"), Rel("spath"), Rel("best")
    return Program(
        rules=[
            spath(n, n, 0) <= start(n),
            spath(f, t, MIN(l + w)) <= (spath(f, m, l), edge(m, t, w)),
            best(t, MIN(l)) <= spath(f, t, l),
        ],
        edb={"edge": (3, (0,)), "start": (1, (0,))},
    )


class TestGuards:
    def test_improvement_guard_fires_and_poisons(self):
        """Shortening an already-aggregated group downstream of its
        stratum must refuse (the stale downstream tuples cannot be
        retracted) and poison the handle."""
        config = EngineConfig(n_ranks=4)
        handle = FixpointHandle.converge(
            lsp_watch_program(),
            {"edge": [(0, 1, 9), (1, 2, 9)], "start": [(0,)]},
            config,
        )
        # A shortcut improves spath(0, 2): group key exists downstream.
        with pytest.raises(IncrementalUnsupportedError):
            handle.update({"edge": [(0, 2, 1)]})
        # The handle is poisoned: retained state may be half-updated.
        with pytest.raises(IncrementalUnsupportedError, match="poisoned"):
            handle.query("spath")
        with pytest.raises(IncrementalUnsupportedError, match="poisoned"):
            handle.update({"edge": []})

    def test_pure_extension_passes_the_watch(self):
        """New groups (fresh targets) never improve existing ones."""
        config = EngineConfig(n_ranks=4)
        handle = FixpointHandle.converge(
            lsp_watch_program(),
            {"edge": [(0, 1, 9), (1, 2, 9)], "start": [(0,)]},
            config,
        )
        handle.update({"edge": [(2, 3, 1)]})
        engine = Engine(lsp_watch_program(), config)
        engine.load("edge", [(0, 1, 9), (1, 2, 9), (2, 3, 1)])
        engine.load("start", [(0,)])
        engine.run()
        assert_bit_identical(handle.engine, engine)

    def test_improvement_guard_reads_negative_keys(self):
        """Negative vertex ids put the watched group keys in the key
        index's wide tier: the guard still names the improved group, and
        a pure extension still passes."""
        config = EngineConfig(n_ranks=4)
        facts = {"edge": [(-7, -1, 9), (-1, 2, 9)], "start": [(-7,)]}
        handle = FixpointHandle.converge(lsp_watch_program(), facts, config)
        with pytest.raises(IncrementalUnsupportedError, match=r"group \(-7, 2\)"):
            handle.update({"edge": [(-7, 2, 1)]})
        handle = FixpointHandle.converge(lsp_watch_program(), facts, config)
        handle.update({"edge": [(2, -3, 1)]})
        engine = Engine(lsp_watch_program(), config)
        engine.load("edge", facts["edge"] + [(2, -3, 1)])
        engine.load("start", facts["start"])
        engine.run()
        assert_bit_identical(handle.engine, engine)

    def test_improvement_watch_contents(self):
        compiled = Engine(lsp_watch_program(), EngineConfig(n_ranks=2)).compiled
        assert "spath" in improvable_watch(compiled)
        sssp_compiled = Engine(sssp_program(), EngineConfig(n_ranks=2)).compiled
        assert improvable_watch(sssp_compiled) == set()

    def test_double_delta_guard(self):
        """Two pending body atoms into a SUM head would double-count."""
        e1, e2, s = Rel("e1"), Rel("e2"), Rel("s")
        program = Program(
            rules=[s(x, SUM(w + l)) <= (e1(x, y, w), e2(y, z, l))],
            edb={"e1": (3, (0,)), "e2": (3, (0,))},
        )
        config = EngineConfig(n_ranks=4)
        handle = FixpointHandle.converge(
            program, {"e1": [(0, 1, 2)], "e2": [(1, 2, 3)]}, config
        )
        compiled = handle.engine.compiled
        with pytest.raises(IncrementalUnsupportedError, match="idempotent"):
            check_batch_supported(compiled, {"e1", "e2"})
        # Single-relation batches keep one side full: supported.
        check_batch_supported(compiled, {"e1"})
        handle.update({"e1": [(0, 2, 5)]})
        handle.update({"e2": [(2, 3, 1)]})
        cold = Engine(program, config)
        cold.load("e1", [(0, 1, 2), (0, 2, 5)])
        cold.load("e2", [(1, 2, 3), (2, 3, 1)])
        cold.run()
        assert_bit_identical(handle.engine, cold)

    def test_double_delta_batch_raises_before_mutation(self):
        e1, e2, s = Rel("e1"), Rel("e2"), Rel("s")
        program = Program(
            rules=[s(x, SUM(w + l)) <= (e1(x, y, w), e2(y, z, l))],
            edb={"e1": (3, (0,)), "e2": (3, (0,))},
        )
        handle = FixpointHandle.converge(
            program,
            {"e1": [(0, 1, 2)], "e2": [(1, 2, 3)]},
            EngineConfig(n_ranks=2),
        )
        before = handle.query("s")
        with pytest.raises(IncrementalUnsupportedError):
            handle.update({"e1": [(5, 6, 1)], "e2": [(6, 7, 1)]})
        # The gate runs before any seeding, so the state is untouched
        # and the handle stays alive — the rejected batch was a no-op.
        assert handle.query("s") == before
        assert handle.updates == 0
        handle.update({"e1": [(5, 6, 1)]})
        handle.update({"e2": [(6, 7, 1)]})
        assert handle.updates == 2

    def test_min_is_idempotent_double_delta_ok(self):
        """MIN absorbs replayed pairs, so Δ⋈Δ double-delivery is safe."""
        e1, e2, s = Rel("e1"), Rel("e2"), Rel("s")
        program = Program(
            rules=[s(x, MIN(w + l)) <= (e1(x, y, w), e2(y, z, l))],
            edb={"e1": (3, (0,)), "e2": (3, (0,))},
        )
        config = EngineConfig(n_ranks=4)
        handle = FixpointHandle.converge(
            program, {"e1": [(0, 1, 2)], "e2": [(1, 2, 3)]}, config
        )
        handle.update({"e1": [(0, 2, 1)], "e2": [(2, 3, 4)]})
        cold = Engine(program, config)
        cold.load("e1", [(0, 1, 2), (0, 2, 1)])
        cold.load("e2", [(1, 2, 3), (2, 3, 4)])
        cold.run()
        assert_bit_identical(handle.engine, cold)


def check_change_sets(handle):
    """Check, after every stratum an update resumes, that each of its
    relations' installed Δ is exactly its full version minus the full
    version before the update; returns the relations checked."""
    engine, checked = handle.engine, []
    resume = handle._resume_stratum

    def checking_resume(stratum, pending):
        ran = any(
            name in pending
            for cr in engine.compiled.rules_of(stratum)
            for name in cr.body_names
        )
        before = {name: engine.store[name].as_set() for name in stratum.relations}
        out = resume(stratum, pending)
        for name in sorted(stratum.relations) if ran else ():
            rel = engine.store[name]
            assert set(rel.iter_delta()) == rel.as_set() - before[name]
            checked.append(name)
        return out

    handle._resume_stratum = checking_resume
    return checked


def random_batches(edges, seed, late_extra=()):
    """A random base, and the rest plus ``late_extra`` split at random
    into 1-4 batches."""
    rng = np.random.default_rng(seed)
    base, late = split(edges, int(rng.integers(8, len(edges) // 4)))
    late = late + list(late_extra)
    cuts = np.sort(rng.choice(np.arange(1, len(late)), int(rng.integers(0, 4)), False))
    parts = np.split(np.arange(len(late)), cuts)
    return base, [[late[i] for i in part] for part in parts]


class TestChangeSet:
    """The change set a stratum installs for the strata after it equals
    the set difference of its full versions across the update."""

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_random_splits_with_rebalance(self, seed):
        """A hub's edges arrive late, and every update lands them under
        the sub-bucket map the cold run's resize chose for ``edge``."""
        edges = random_edges(60, 400, seed=seed)
        hub = [(0, v, 1 + v % 5) for v in range(1, 60)]
        base, batches = random_batches(edges, seed, hub)
        config = EngineConfig(n_ranks=8, auto_balance=1.0, subbuckets={"edge": 1})
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": base, "start": [(0,)]}, config
        )
        n_sub = handle.engine.store["edge"].schema.n_subbuckets
        checked = check_change_sets(handle)
        for batch in batches:
            handle.update({"edge": batch})
        assert checked.count("spath") == len(batches)
        assert handle.engine.store["edge"].schema.n_subbuckets == n_sub
        cold = cold_sssp(sorted(set(edges) | set(hub)), [0], EngineConfig(n_ranks=8))
        assert handle.query("spath") == cold.store["spath"].as_set()

    @pytest.mark.parametrize("seed", [41, 42])
    def test_random_splits_with_a_crash_inside_an_update(self, seed):
        edges = random_edges(60, 300, seed=seed)
        base, batches = random_batches(edges, seed)
        facts = {"edge": base, "start": [(0,)]}
        # Probe the superstep clock with an inert fault plane to find
        # the last batch's window, then crash a rank in its middle.
        probe_cfg = EngineConfig(
            n_ranks=6, faults=FaultOptions(config=FaultConfig(seed=1)),
            recovery=RecoveryOptions(checkpoint_every=2),
        )
        probe = FixpointHandle.converge(sssp_program(), facts, probe_cfg)
        for batch in batches[:-1]:
            probe.update({"edge": batch})
        start = probe.engine.fault_plane.superstep
        probe.update({"edge": batches[-1]})
        crash_at = (start + probe.engine.fault_plane.superstep) // 2
        chaos = EngineConfig(
            n_ranks=6,
            faults=FaultOptions(
                config=FaultConfig(seed=1, crash_rank=2, crash_superstep=crash_at)
            ),
            recovery=RecoveryOptions(checkpoint_every=2),
        )
        handle = FixpointHandle.converge(sssp_program(), facts, chaos)
        checked = check_change_sets(handle)
        for batch in batches:
            handle.update({"edge": batch})
        assert handle.result().recovery.recoveries == 1
        assert checked.count("spath") == len(batches)
        cold = cold_sssp(edges, [0], EngineConfig(n_ranks=6))
        assert_bit_identical(handle.engine, cold)


class TestSpmd:
    def test_spmd_incremental_identity(self):
        from repro.runtime.spmd import run_spmd_engine, run_spmd_incremental

        edges = random_edges(30, 120, seed=13)
        base, rest = split(edges, 14)
        batches = [{"edge": rest[:7]}, {"edge": rest[7:]}]
        config = EngineConfig(n_ranks=4)
        warm = run_spmd_incremental(
            sssp_program(), {"edge": base, "start": [(0,)]}, batches, config
        )
        cold = run_spmd_engine(
            sssp_program(), {"edge": edges, "start": [(0,)]}, config
        )
        assert warm == cold

    def test_spmd_matches_bsp_handle(self):
        from repro.runtime.spmd import run_spmd_incremental

        edges = random_edges(25, 90, seed=14)
        base, batch = split(edges, 9)
        config = EngineConfig(n_ranks=4)
        spmd = run_spmd_incremental(
            sssp_program(),
            {"edge": base, "start": [(0,)]},
            [{"edge": batch}],
            config,
        )
        handle = FixpointHandle.converge(
            sssp_program(), {"edge": base, "start": [(0,)]}, config
        )
        handle.update({"edge": batch})
        assert spmd["spath"] == handle.query("spath")

    def test_spmd_guard_raises_symmetrically(self):
        from repro.runtime.spmd import run_spmd_incremental

        with pytest.raises(IncrementalUnsupportedError):
            run_spmd_incremental(
                lsp_watch_program(),
                {"edge": [(0, 1, 9), (1, 2, 9)], "start": [(0,)]},
                [{"edge": [(0, 2, 1)]}],
                EngineConfig(n_ranks=4),
            )

    def test_spmd_wire_composition(self):
        from repro.runtime.spmd import run_spmd_engine, run_spmd_incremental

        edges = random_edges(25, 90, seed=15)
        base, batch = split(edges, 9)
        config = EngineConfig(n_ranks=4, wire=True)
        warm = run_spmd_incremental(
            sssp_program(),
            {"edge": base, "start": [(0,)]},
            [{"edge": batch}],
            config,
        )
        cold = run_spmd_engine(
            sssp_program(), {"edge": edges, "start": [(0,)]}, config
        )
        assert warm == cold


class TestProgramGate:
    def test_plain_head_reading_own_stratum_aggregate_rejected(self):
        """A set-semantics head over an aggregate of its own recursive
        stratum is trajectory-dependent — rejected at handle creation."""
        edge, d, seen, src = Rel("edge"), Rel("d"), Rel("seen"), Rel("src")
        program = Program(
            rules=[
                seen(n) <= src(n),
                d(n, 0) <= seen(n),
                d(t, MIN(l + w)) <= (d(f, l), edge(f, t, w)),
                seen(t) <= d(t, l),
            ],
            edb={"edge": (3, (0,)), "src": (1, (0,))},
        )
        engine = Engine(program, EngineConfig(n_ranks=2))
        with pytest.raises(IncrementalUnsupportedError):
            check_program_supported(engine.compiled)
        engine.load("edge", [(0, 1, 1)])
        engine.load("src", [(0,)])
        with pytest.raises(IncrementalUnsupportedError):
            FixpointHandle(engine)

    def test_sssp_supported(self):
        engine = Engine(sssp_program(), EngineConfig(n_ranks=2))
        check_program_supported(engine.compiled)  # must not raise

    def test_handle_reuses_a_run_engines_result(self):
        """A handle on an engine that already converged takes its last
        result instead of evaluating the fixpoint again: the books read
        as after ``run()`` alone."""
        def converged():
            engine = Engine(sssp_program(), EngineConfig(n_ranks=4))
            engine.load("edge", [(0, 1, 1), (1, 2, 1), (0, 2, 5)])
            engine.load("start", [(0,)])
            return engine, engine.run()

        _engine, alone = converged()
        engine, result = converged()
        handle = FixpointHandle(engine)
        assert handle.result() is result
        again = engine._build_result()
        assert again.modeled_seconds() == alone.modeled_seconds()
        assert again.counters["alltoall_tuples"] == alone.counters["alltoall_tuples"]
