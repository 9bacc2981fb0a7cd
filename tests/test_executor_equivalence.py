"""Engine-level executor equivalence: columnar ≡ scalar, bit for bit.

The columnar kernels (PR 2) are a pure simulation-speed optimization.
These tests run whole fixpoints through both executors and assert every
modeled observable — :meth:`FixpointResult.summary` (counters, per-rank
relation sizes, ledger phase seconds, comm bytes/messages, imbalance),
the final query answers, and the ledger totals — is *identical*, across
rank counts that exercise single-rank, tiny, odd, and paper-scale
configurations.
"""

from unittest import mock

import numpy as np
import pytest

from repro.graphs.generators import rmat
from repro.queries import run_cc, run_pagerank, run_sssp
from repro.runtime import executor as executor_mod
from repro.runtime.config import EngineConfig
from repro.runtime.engine import Engine

RANKS = [1, 2, 7, 64]


@pytest.fixture(scope="module")
def graph():
    g = rmat(8, 6, seed=9)
    return g.with_weights(np.random.default_rng(5), 20)


def _configs(ranks):
    return {
        executor: EngineConfig(
            n_ranks=ranks,
            subbuckets={"edge": 4},
            seed=17,
            executor=executor,
        )
        for executor in ("scalar", "columnar")
    }


def _assert_summaries_equal(scalar_fp, columnar_fp):
    s, c = scalar_fp.summary(), columnar_fp.summary()
    assert c == s
    # Belt and braces on the ledger beyond what summary() digests.
    assert columnar_fp.ledger.total_seconds() == scalar_fp.ledger.total_seconds()
    assert columnar_fp.ledger.comm.bytes_total == scalar_fp.ledger.comm.bytes_total
    assert columnar_fp.ledger.comm.messages == scalar_fp.ledger.comm.messages


@pytest.mark.parametrize("ranks", RANKS)
def test_sssp_identical_across_executors(graph, ranks):
    cfgs = _configs(ranks)
    res = {
        ex: run_sssp(graph, [0, 1, 2], cfg) for ex, cfg in cfgs.items()
    }
    assert res["columnar"].distances == res["scalar"].distances
    assert res["columnar"].iterations == res["scalar"].iterations
    assert (
        res["columnar"].fixpoint.query("spath")
        == res["scalar"].fixpoint.query("spath")
    )
    _assert_summaries_equal(res["scalar"].fixpoint, res["columnar"].fixpoint)


@pytest.mark.parametrize("ranks", RANKS)
def test_cc_identical_across_executors(graph, ranks):
    cfgs = _configs(ranks)
    res = {ex: run_cc(graph, cfg) for ex, cfg in cfgs.items()}
    assert res["columnar"].labels == res["scalar"].labels
    assert res["columnar"].n_components == res["scalar"].n_components
    _assert_summaries_equal(res["scalar"].fixpoint, res["columnar"].fixpoint)


@pytest.mark.parametrize("query", ["sssp", "cc"])
def test_folding_join_identical_across_executors(graph, query, monkeypatch):
    """A pair budget of a few pairs sends every columnar probe down the
    fold-as-you-emit path; the scalar oracle still emits every pair."""
    monkeypatch.setattr(executor_mod, "_PAIR_BUDGET", 3)
    cfgs = _configs(7)
    with mock.patch.object(
        executor_mod, "_pair_chunks", wraps=executor_mod._pair_chunks
    ) as chunks:
        if query == "sssp":
            res = {ex: run_sssp(graph, [0, 1, 2], cfg) for ex, cfg in cfgs.items()}
        else:
            res = {ex: run_cc(graph, cfg) for ex, cfg in cfgs.items()}
    assert chunks.call_count
    _assert_summaries_equal(res["scalar"].fixpoint, res["columnar"].fixpoint)
    assert all(
        res["columnar"].fixpoint.query(name) == res["scalar"].fixpoint.query(name)
        for name in res["scalar"].fixpoint.relations
    )


@pytest.mark.parametrize("ranks", [1, 7, 64])
def test_pagerank_identical_across_executors(graph, ranks):
    cfgs = _configs(ranks)
    ranks_out = {
        ex: run_pagerank(graph, iterations=5, config=cfg)
        for ex, cfg in cfgs.items()
    }
    np.testing.assert_array_equal(ranks_out["columnar"], ranks_out["scalar"])


def test_columnar_is_default_executor(graph):
    from repro.queries.sssp import sssp_program

    engine = Engine(sssp_program(), EngineConfig(n_ranks=4))
    assert engine.executor == "columnar"


def test_scalar_forced_by_btree(graph):
    from repro.queries.sssp import sssp_program

    engine = Engine(
        sssp_program(), EngineConfig(n_ranks=4, use_btree=True)
    )
    assert engine.executor == "scalar"


def _gcd_program():
    """A head operator with no array form (registered, not built in)."""
    import math

    from repro import Program, Rel, vars_
    from repro.planner.ast import BinOp, register_function

    register_function("gcd", math.gcd)
    a, b = vars_("a b")
    pair, g = Rel("pair"), Rel("g")
    return Program(
        rules=[g(a, BinOp("gcd", a, b)) <= pair(a, b)], edb={"pair": (2, (0,))}
    )


#: (program factory, config overrides, executor used, reason prefix).
FALLBACKS = {
    "default": (None, {}, "columnar", "requested"),
    "asked-scalar": (None, {"executor": "scalar"}, "scalar", "requested"),
    "btree": (None, {"use_btree": True}, "scalar", "use_btree"),
    "custom-emit": (_gcd_program, {}, "scalar", "rule "),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_executor_choice_is_reported(case):
    """No silent fallback: the result says which executor ran and why."""
    from repro.queries.sssp import sssp_program

    make_program, overrides, used, reason = FALLBACKS[case]
    config = EngineConfig(n_ranks=4, **overrides)
    engine = Engine((make_program or sssp_program)(), config)
    assert engine.executor == used
    if make_program is not None:
        engine.load("pair", [(12, 18), (7, 5)])
    fp = engine.run()
    assert (fp.executor, fp.executor_requested) == (used, config.executor)
    assert fp.executor_reason.startswith(reason)
    assert fp.to_dict()["executor"] == {
        "used": used, "requested": config.executor, "reason": fp.executor_reason,
    }
    if case == "custom-emit":
        assert "gcd" in fp.executor_reason  # names the offending rule
        assert fp.query("g") == {(12, 6), (7, 1)}
    # summary() is what the executors are compared by: it must not say.
    assert "executor" not in fp.summary()


def test_invalid_executor_rejected():
    with pytest.raises(ValueError):
        EngineConfig(executor="gpu")
