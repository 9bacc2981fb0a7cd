"""Tests for extensions beyond the paper's minimum: multi-column
aggregates (product lattices) and adaptive spatial load balancing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import Engine, EngineConfig, MAX, MIN, Program, Rel, vars_
from repro.core.aggregators import (
    MaxAggregator,
    MinAggregator,
    SumAggregator,
    TupleAggregator,
)
from repro.core.balancer import recommend_subbuckets
from repro.graphs.generators import skewed_hub_graph, star
from repro.lattice.semilattice import Ordering
from repro.queries.sssp import sssp_program

#: The one data plane.  The axis has a single value: it keeps the
#: ``columnar`` case ids from when a tuple-at-a-time plane ran beside it.
ON_PLANE = pytest.mark.parametrize("plane", ["columnar"])

f, t, m, lo, hi, w, n, x = vars_("f t m lo hi w n x")


def span_program():
    span, edge, start = Rel("span"), Rel("edge"), Rel("start")
    return Program(
        rules=[
            span(n, n, 0, 0) <= start(n),
            span(f, t, MIN(lo + w), MAX(hi + w))
            <= (span(f, m, lo, hi), edge(m, t, w)),
        ],
        edb={"edge": (3, (0,)), "start": (1, (0,))},
    )


class TestTupleAggregator:
    def setup_method(self):
        self.agg = TupleAggregator([MinAggregator(), MaxAggregator()])

    def test_componentwise_join(self):
        assert self.agg.partial_agg((5, 5), (3, 9)) == (3, 9)

    def test_n_dep_and_name(self):
        assert self.agg.n_dep == 2
        assert "min" in self.agg.name and "max" in self.agg.name

    def test_idempotence_propagates(self):
        assert self.agg.idempotent
        mixed = TupleAggregator([MinAggregator(), SumAggregator()])
        assert not mixed.idempotent

    def test_partial_cmp(self):
        a = self.agg
        assert a.partial_cmp((3, 9), (3, 9)) is Ordering.EQUAL
        assert a.partial_cmp((5, 9), (3, 9)) is Ordering.LESS
        assert a.partial_cmp((3, 9), (5, 9)) is Ordering.GREATER
        assert a.partial_cmp((3, 5), (5, 9)) is Ordering.INCOMPARABLE

    def test_validation(self):
        with pytest.raises(ValueError):
            TupleAggregator([])

        class TwoDep(MinAggregator):
            n_dep = 2

        with pytest.raises(ValueError):
            TupleAggregator([TwoDep()])

    @given(
        st.tuples(st.integers(-99, 99), st.integers(-99, 99)),
        st.tuples(st.integers(-99, 99), st.integers(-99, 99)),
        st.tuples(st.integers(-99, 99), st.integers(-99, 99)),
    )
    def test_product_lattice_laws(self, a, b, c):
        j = self.agg.partial_agg
        assert j(a, a) == a
        assert j(a, b) == j(b, a)
        assert j(j(a, b), c) == j(a, j(b, c))


class TestMultiAggregateQueries:
    def test_min_max_span(self):
        eng = Engine(span_program(), EngineConfig(n_ranks=4))
        eng.load("edge", [(0, 1, 2), (0, 1, 5), (1, 2, 1)])
        eng.load("start", [(0,)])
        res = eng.run()
        got = {(a, b): (c, d) for a, b, c, d in res.query("span")}
        assert got[(0, 1)] == (2, 5)    # shortest and longest edge to 1
        assert got[(0, 2)] == (3, 6)

    def test_schema_inference_for_two_deps(self):
        eng = Engine(span_program(), EngineConfig(n_ranks=2))
        schema = eng.compiled.schemas["span"]
        assert schema.n_dep == 2
        assert schema.aggregator.n_dep == 2
        assert schema.join_cols == (1,)

    def test_rank_invariance(self):
        # NB: the graph must be a DAG — $MAX over path lengths on a cycle
        # is an infinite-height lattice and correctly never converges
        # (the paper's finite-height termination condition).
        results = []
        for p in (1, 4, 16):
            eng = Engine(span_program(), EngineConfig(n_ranks=p))
            eng.load("edge", [(0, 1, 2), (1, 2, 7), (0, 2, 4), (2, 3, 1)])
            eng.load("start", [(0,)])
            results.append(eng.run().query("span"))
        assert results[0] == results[1] == results[2]

    def test_max_on_cycle_hits_iteration_guard(self):
        eng = Engine(
            span_program(), EngineConfig(n_ranks=2, max_iterations=16)
        )
        eng.load("edge", [(0, 1, 1), (1, 0, 1)])
        eng.load("start", [(0,)])
        with pytest.raises(RuntimeError, match="did not converge"):
            eng.run()

    def test_conflicting_funcs_same_column_rejected(self):
        bad, e = Rel("bad"), Rel("e")
        prog = Program(
            rules=[
                bad(x, MIN(w)) <= e(x, w),
                bad(x, MAX(w)) <= e(x, w),
            ],
            edb={"e": (2, (0,))},
        )
        with pytest.raises(ValueError, match="multiple\\s+functions"):
            Engine(prog, EngineConfig(n_ranks=2))


class TestAutoBalance:
    def test_skewed_relation_gets_subbuckets(self):
        g = star(3000).with_unit_weights()
        eng = Engine(sssp_program(), EngineConfig(n_ranks=32, auto_balance=2.0))
        eng.load("edge", g.tuples())
        eng.load("start", [(0,)])
        res = eng.run()
        assert eng.store["edge"].schema.n_subbuckets > 1
        assert res.phase_breakdown().get("balance", 0) > 0
        assert (0, 7, 1) in res.query("spath")

    @pytest.mark.parametrize("wire", [True, False])
    def test_reshard_follows_the_wire_switch(self, wire):
        """The balancing reshard goes through the wire layer when it is
        on, like every other exchange, and recounts the heavy-key set."""
        from unittest import mock

        from repro.runtime import engine as engine_mod

        g = star(3000).with_unit_weights()
        eng = Engine(sssp_program(), EngineConfig(n_ranks=32, auto_balance=2.0, wire=wire))
        eng.load("edge", g.tuples())
        eng.load("start", [(0,)])
        with mock.patch.object(
            engine_mod, "reshard_relation", wraps=engine_mod.reshard_relation
        ) as reshard:
            eng.run()
        assert reshard.call_args.kwargs["wire"] is wire
        assert eng.store["edge"].schema.heavy_keys == (((0,),) if wire else None)

    def test_balanced_relation_untouched(self):
        eng = Engine(sssp_program(), EngineConfig(n_ranks=2, auto_balance=4.0))
        eng.load("edge", [(i, i + 1, 1) for i in range(64)])
        eng.load("start", [(0,)])
        eng.run()
        assert eng.store["edge"].schema.n_subbuckets == 1

    def test_never_shrinks_a_static_count(self):
        eng = Engine(
            sssp_program(edge_subbuckets=8),
            EngineConfig(n_ranks=2, auto_balance=4.0),
        )
        eng.load("edge", [(i, i + 1, 1) for i in range(64)])
        eng.load("start", [(0,)])
        res = eng.run()
        assert eng.store["edge"].schema.n_subbuckets == 8
        assert "balance" not in res.phase_breakdown()

    def test_takes_the_recommenders_pick_past_sixteen(self):
        """The resize is capped where ``recommend_subbuckets`` caps
        itself, not below: on this 32-rank hub graph it picks 32."""
        g = skewed_hub_graph("twitter_like", ranks=32, seed=42, scale_shift=5)
        eng = Engine(
            sssp_program(), EngineConfig(n_ranks=32, seed=42, auto_balance=2.0)
        )
        eng.load("edge", g.edges)
        rel = eng.store["edge"]
        picked, _report = recommend_subbuckets(
            rel.table.version_block("full"), rel.schema, 32, seed=rel.dist.seed
        )
        assert picked > 16
        assert eng.auto_balance("edge") == picked
        assert rel.schema.n_subbuckets == picked

    def test_manual_auto_balance_call(self):
        g = star(2000).with_unit_weights()
        eng = Engine(sssp_program(), EngineConfig(n_ranks=16))
        eng.load("edge", g.tuples())
        n_sub = eng.auto_balance("edge", tolerance=2.0, max_subbuckets=4)
        assert n_sub == 4
        assert eng.store["edge"].full_size() == g.n_edges

    def test_empty_relation_noop(self):
        eng = Engine(sssp_program(), EngineConfig(n_ranks=4))
        assert eng.auto_balance("edge") == 1

    def test_tolerance_validated(self):
        with pytest.raises(ValueError, match="auto_balance"):
            EngineConfig(auto_balance=0.5)

    def test_result_correct_after_balance(self):
        g = star(500).with_unit_weights()
        plain = Engine(sssp_program(), EngineConfig(n_ranks=16))
        plain.load("edge", g.tuples())
        plain.load("start", [(0,)])
        expected = plain.run().query("spath")

        balanced = Engine(
            sssp_program(), EngineConfig(n_ranks=16, auto_balance=1.5)
        )
        balanced.load("edge", g.tuples())
        balanced.load("start", [(0,)])
        assert balanced.run().query("spath") == expected

    @ON_PLANE
    def test_equals_static_run_with_chosen_subbuckets(self, plane):
        """auto_balance reshards in place (one redistribution exchange):
        the run is the one statically configured with the count it chose
        — same relation multisets per shard, same iteration count."""
        g = star(800).with_unit_weights()

        def run(**kw):
            eng = Engine(
                sssp_program(), EngineConfig(n_ranks=16, **kw)
            )
            eng.load("edge", g.tuples())
            eng.load("start", [(0,)])
            return eng, eng.run()

        auto_eng, auto = run(auto_balance=1.5)
        n_sub = auto_eng.store["edge"].schema.n_subbuckets
        assert n_sub > 1
        assert auto.phase_breakdown()["balance"] > 0
        static_eng, static = run(subbuckets={"edge": n_sub})
        assert auto.iterations == static.iterations
        for name, rel in auto_eng.store.relations.items():
            other = static_eng.store[name]
            assert rel.schema.n_subbuckets == other.schema.n_subbuckets
            mine = {key: b for key, _o, b in rel.shard_blocks("full")}
            theirs = {key: b for key, _o, b in other.shard_blocks("full")}
            assert set(mine) == set(theirs)
            for key, block in mine.items():
                assert sorted(block.tolist()) == sorted(theirs[key].tolist())
            assert (
                rel.sizes_by_rank().tolist()
                == other.sizes_by_rank().tolist()
            )
