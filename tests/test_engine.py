"""End-to-end engine tests: correctness, invariance, instrumentation."""

import numpy as np
import pytest

from repro import Engine, EngineConfig, MIN, Program, Rel, vars_
from repro.graphs.generators import chain, complete, ring, star
from repro.graphs.reference import dijkstra, transitive_closure
from repro.queries.reachability import tc_program
from repro.queries.sssp import sssp_program

x, y, z, f, t, m, l, w, n = vars_("x y z f t m l w n")


def run_sssp_engine(edges, starts, config):
    engine = Engine(sssp_program(), config)
    engine.load("edge", edges)
    engine.load("start", [(s,) for s in starts])
    return engine.run()


EDGES = [(0, 1, 4), (0, 2, 9), (1, 2, 1), (2, 3, 2), (3, 1, 1), (3, 4, 3)]
EXPECTED_FROM_0 = {
    (0, 0, 0), (0, 1, 4), (0, 2, 5), (0, 3, 7), (0, 4, 10),
}


class TestCorrectness:
    def test_sssp_small(self):
        result = run_sssp_engine(EDGES, [0], EngineConfig(n_ranks=4))
        assert result.query("spath") == EXPECTED_FROM_0

    def test_sssp_multi_source(self):
        result = run_sssp_engine(EDGES, [0, 2], EngineConfig(n_ranks=4))
        got = result.query("spath")
        assert (2, 1, 3) in got and (2, 4, 5) in got
        assert EXPECTED_FROM_0 <= got

    def test_unreachable_absent(self):
        result = run_sssp_engine([(0, 1, 1), (2, 3, 1)], [0], EngineConfig(n_ranks=4))
        targets = {t for (_, t, _) in result.query("spath")}
        assert targets == {0, 1}

    def test_tc_matches_reference(self, medium_graph):
        g = medium_graph
        engine = Engine(tc_program(), EngineConfig(n_ranks=8))
        engine.load("edge", g.deduplicated().tuples())
        result = engine.run()
        assert result.query("path") == transitive_closure(g)

    def test_cycle_terminates(self):
        g = ring(10).with_unit_weights()
        result = run_sssp_engine(g.tuples(), [0], EngineConfig(n_ranks=4))
        assert (0, 0, 0) in result.query("spath")
        # going all the way around never beats staying put
        assert result.query("spath") == {
            (0, v, v) for v in range(10)
        } | {(0, 0, 0)} - {(0, 0, 10)}

    def test_self_loops_harmless(self):
        result = run_sssp_engine(
            [(0, 0, 5), (0, 1, 2)], [0], EngineConfig(n_ranks=2)
        )
        assert result.query("spath") == {(0, 0, 0), (0, 1, 2)}

    def test_zero_weight_edges(self):
        result = run_sssp_engine(
            [(0, 1, 0), (1, 2, 0)], [0], EngineConfig(n_ranks=2)
        )
        assert (0, 2, 0) in result.query("spath")

    def test_empty_start_relation(self):
        engine = Engine(sssp_program(), EngineConfig(n_ranks=4))
        engine.load("edge", EDGES)
        result = engine.run()
        assert result.query("spath") == set()

    def test_warm_start_idb_preload(self):
        """Loading pre-computed facts into the IDB must be continued
        correctly by the fixpoint (the engine's naive seed pass)."""
        engine = Engine(sssp_program(), EngineConfig(n_ranks=4))
        engine.load("edge", EDGES)
        engine.load("spath", [(0, 0, 0)])  # instead of a start fact
        result = engine.run()
        assert result.query("spath") == EXPECTED_FROM_0

    def test_load_unknown_relation(self):
        engine = Engine(sssp_program(), EngineConfig(n_ranks=2))
        with pytest.raises(KeyError, match="unknown relation"):
            engine.load("nope", [(1,)])

    def test_nonconvergence_raises(self):
        # vanilla-Datalog paths on a cycle grow forever
        from repro.baselines.stratified import stratified_sssp_program

        engine = Engine(
            stratified_sssp_program(),
            EngineConfig(n_ranks=2, max_iterations=12),
        )
        engine.load("edge", ring(4).with_unit_weights().tuples())
        engine.load("start", [(0,)])
        with pytest.raises(RuntimeError, match="did not converge"):
            engine.run()


class TestInvariance:
    """The result must not depend on how the cluster is configured."""

    @pytest.fixture(scope="class")
    def reference(self, request):
        g = star(50).with_unit_weights()
        extra = [(i, i + 1, 2) for i in range(1, 40)]
        edges = g.tuples() + extra
        result = run_sssp_engine(edges, [0, 5], EngineConfig(n_ranks=1))
        return edges, result.query("spath")

    @pytest.mark.parametrize("n_ranks", [1, 2, 7, 32, 129])
    def test_rank_count_invariant(self, reference, n_ranks):
        edges, expected = reference
        result = run_sssp_engine(edges, [0, 5], EngineConfig(n_ranks=n_ranks))
        assert result.query("spath") == expected

    @pytest.mark.parametrize("n_sub", [1, 2, 8])
    def test_subbucket_invariant(self, reference, n_sub):
        edges, expected = reference
        config = EngineConfig(n_ranks=16, subbuckets={"edge": n_sub, "spath": n_sub})
        result = run_sssp_engine(edges, [0, 5], config)
        assert result.query("spath") == expected

    @pytest.mark.parametrize(
        "dynamic,static", [(True, "left"), (False, "left"), (False, "right")]
    )
    def test_join_layout_invariant(self, reference, dynamic, static):
        edges, expected = reference
        config = EngineConfig(n_ranks=8, dynamic_join=dynamic, static_outer=static)
        result = run_sssp_engine(edges, [0, 5], config)
        assert result.query("spath") == expected

    def test_seed_changes_placement_not_result(self, reference):
        edges, expected = reference
        for seed in (1, 2, 3):
            result = run_sssp_engine(
                edges, [0, 5], EngineConfig(n_ranks=8, seed=seed)
            )
            assert result.query("spath") == expected

    def test_deterministic_across_runs(self):
        cfgs = [EngineConfig(n_ranks=8, seed=5) for _ in range(2)]
        results = [run_sssp_engine(EDGES, [0], c) for c in cfgs]
        assert results[0].query("spath") == results[1].query("spath")
        assert (
            results[0].ledger.comm.bytes_total
            == results[1].ledger.comm.bytes_total
        )


class TestAgainstDijkstra:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_graphs(self, seed):
        from repro.graphs.generators import rmat

        g = rmat(6, 4, seed=seed).with_weights(np.random.default_rng(seed), 20)
        result = run_sssp_engine(g.tuples(), [0], EngineConfig(n_ranks=8))
        ref = dijkstra(g, 0)
        assert {(0, t): d for t, d in ref.items()} == {
            (s, t): d for s, t, d in result.query("spath")
        }

    def test_dense_graph(self):
        g = complete(12).with_weights(np.random.default_rng(0), 50)
        result = run_sssp_engine(g.tuples(), [3], EngineConfig(n_ranks=4))
        ref = dijkstra(g, 3)
        got = {t: d for _, t, d in result.query("spath")}
        assert got == ref

    def test_long_chain_many_iterations(self):
        g = chain(64).with_unit_weights()
        result = run_sssp_engine(g.tuples(), [0], EngineConfig(n_ranks=4))
        assert result.iterations >= 63
        assert (0, 63, 63) in result.query("spath")


class TestInstrumentation:
    def test_counters_present(self):
        result = run_sssp_engine(EDGES, [0], EngineConfig(n_ranks=4))
        c = result.counters
        assert c["loaded"] == len(EDGES) + 1
        assert c["emitted"] > 0
        assert c["admitted"] >= len(EXPECTED_FROM_0)
        assert c["alltoall_tuples"] >= c["admitted"]

    def test_phase_breakdown_covers_known_phases(self):
        result = run_sssp_engine(EDGES, [0], EngineConfig(n_ranks=4))
        phases = result.phase_breakdown()
        for p in ("vote", "intra_bucket", "local_join", "comm", "dedup_agg"):
            assert p in phases

    def test_trace_records_iterations(self):
        result = run_sssp_engine(EDGES, [0], EngineConfig(n_ranks=4))
        assert len(result.trace) >= result.iterations
        assert result.trace[0].iteration == 0
        # the recursive rule logged an outer choice each delta iteration
        assert any(t.outer_choices for t in result.trace)

    def test_modeled_and_wall_times_positive(self):
        result = run_sssp_engine(EDGES, [0], EngineConfig(n_ranks=4))
        assert result.modeled_seconds() > 0
        assert result.wall_seconds() > 0

    def test_vote_chooses_small_side(self):
        """With a huge static edge relation and a tiny Δ, the vote must
        put the Δ side outer (the paper's key win)."""
        # a long chain drives many iterations with |Δ| = 1, while a large
        # unreachable clique keeps the edge relation big on every rank
        chain_edges = [(i, i + 1, 1) for i in range(10)]
        clique = complete(30)
        clique_edges = [(100 + u, 100 + v, 1) for u, v in clique.edges]
        engine = Engine(sssp_program(), EngineConfig(n_ranks=4))
        engine.load("edge", chain_edges + clique_edges)
        engine.load("start", [(0,)])
        result = engine.run()
        choices = [
            side
            for tr in result.trace[1:]  # skip the seed pass
            for side in tr.outer_choices.values()
        ]
        # delta (spath) is the left atom; it is always far smaller here
        assert choices and all(c == "left" for c in choices)

    def test_strict_algorithm1_tie_votes(self):
        """The paper's exact vote lets empty ranks elect the right side —
        visible on a star graph where one rank holds everything."""
        g = star(500).with_unit_weights()
        engine = Engine(
            sssp_program(), EngineConfig(n_ranks=4, vote_abstain_empty=False)
        )
        engine.load("edge", g.tuples())
        engine.load("start", [(0,)])
        result = engine.run()
        choices = [
            side for tr in result.trace for side in tr.outer_choices.values()
        ]
        assert "right" in choices  # empty ranks' tie votes won
        # correctness is unaffected either way
        assert (0, 1, 1) in result.query("spath")


class TestMultiRuleInteraction:
    def test_two_rules_same_head(self):
        edge1, edge2, reach = Rel("edge1"), Rel("edge2"), Rel("reach")
        prog = Program(
            rules=[
                reach(x, MIN(0)) <= Rel("start")(x),
                reach(y, MIN(l + 1)) <= (reach(x, l), edge1(x, y)),
                reach(y, MIN(l + 10)) <= (reach(x, l), edge2(x, y)),
            ],
            edb={"edge1": (2, (0,)), "edge2": (2, (0,)), "start": (1, (0,))},
        )
        engine = Engine(prog, EngineConfig(n_ranks=4))
        engine.load("edge1", [(0, 1), (1, 2)])
        engine.load("edge2", [(0, 2)])
        engine.load("start", [(0,)])
        result = engine.run()
        got = {v: d for v, d in result.query("reach")}
        assert got == {0: 0, 1: 1, 2: 2}  # cheap 2-hop beats expensive edge2

    def test_mutual_recursion(self):
        even, odd, succ = Rel("even"), Rel("odd"), Rel("succ")
        prog = Program(
            rules=[
                even(0) <= Rel("zero")(0),
                odd(y) <= (even(x), succ(x, y)),
                even(y) <= (odd(x), succ(x, y)),
            ],
            edb={"succ": (2, (0,)), "zero": (1, (0,))},
        )
        engine = Engine(prog, EngineConfig(n_ranks=4))
        engine.load("succ", [(i, i + 1) for i in range(10)])
        engine.load("zero", [(0,)])
        result = engine.run()
        assert result.query("even") == {(i,) for i in range(0, 11, 2)}
        assert result.query("odd") == {(i,) for i in range(1, 11, 2)}
