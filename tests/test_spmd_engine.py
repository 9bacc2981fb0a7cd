"""Cross-validation: SPMD rank-program engine ≡ BSP engine ≡ oracle.

The BSP :class:`~repro.runtime.engine.Engine` is a simulation shortcut
(one driver loop executes every rank's phases).  These tests justify it:
the literal message-passing formulation in :mod:`repro.runtime.spmd` —
each rank an asyncio task seeing only its own shards — produces identical
results on the same programs and placements.
"""

import numpy as np
import pytest

from repro import Engine, EngineConfig, MIN, Program, Rel, vars_
from repro.comm.wire import WireConfig
from repro.graphs.generators import chain, rmat, star
from repro.planner.interpreter import interpret
from repro.queries.cc import cc_program
from repro.queries.reachability import tc_program
from repro.queries.sssp import sssp_program
from repro.runtime.spmd import run_spmd_engine, spmd_rank_stores

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

    def test_btree_shards(self, weighted_graph):
        """``use_btree`` reaches the rank programs through RelationStore."""
        from repro.ds.btree import BTreeMap

        facts = {"edge": weighted_graph.tuples(), "start": [(0,), (3,)]}
        config = EngineConfig(n_ranks=4, subbuckets={"edge": 2}, use_btree=True)
        stores = spmd_rank_stores(sssp_program(), facts, config=config)
        shards = [
            shard
            for store in stores
            for name in ("edge", "spath")
            for shard in store[name].shards.values()
        ]
        assert shards and all(isinstance(s.full, BTreeMap) for s in shards)
        spmd = run_spmd_engine(sssp_program(), facts, config)
        bsp = bsp_eval(sssp_program(), facts, config)
        assert spmd["spath"] == bsp["spath"]
        assert spmd["spath"] == run_spmd_engine(
            sssp_program(), facts, EngineConfig(n_ranks=4, subbuckets={"edge": 2})
        )["spath"]


class TestRankPrivateStores:
    """What makes the per-rank driver a reference for the BSP one: a rank
    only ever holds shards it owns, at load and after every exchange."""

    @pytest.mark.parametrize(
        "wire", [WireConfig(), WireConfig.off()], ids=["wire-on", "wire-off"]
    )
    def test_every_shard_is_owned_by_its_rank(self, weighted_graph, wire):
        facts = {"edge": weighted_graph.tuples(), "start": [(0,), (3,)]}
        config = EngineConfig(n_ranks=6, subbuckets={"edge": 2}, wire=wire)
        stores = spmd_rank_stores(sssp_program(), facts, config=config)
        assert len(stores) == 6
        n_shards = 0
        for rank, store in enumerate(stores):
            for rel in store:
                for b, s in rel.shards:
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
                assert all(rel.dist.owner(b, s) == rank for b, s in rel.shards)
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
