"""The referee: random programs on random graphs against the interpreter.

The engine has one data plane, and nothing inside the engine checks it.
This property is its oracle: it draws a small graph, a program, a rank
count, the EDB relations' sub-bucket count (1, 2 or 4), the wire layer
on or off (on, a sub-bucketed EDB relation places its light join keys
whole in one sub-bucket and spreads its heavy ones: a star's hub,
which the graph draw adds half the time, is heavy), the
driver (the BSP engine, or one engine per rank through
:func:`repro.runtime.spmd.run_slices`) and the local join's pair budget
(``runtime.executor._PAIR_BUDGET``, patched to a few pairs so that large
probes fold in runs), runs the engine, and asserts that every relation
equals what :func:`repro.planner.interpreter.interpret` — a naive
evaluator that shares each aggregate's ``partial_agg`` with the engine
and nothing else — derives.  A BSP run at the small pair budget must
also leave :meth:`FixpointResult.summary` (iterations, counters,
per-rank sizes, every modeled charge) exactly as the default budget
leaves it.

The programs cover each kind of head the data plane evaluates:
numpy-combined aggregates (SSSP's ``$MIN``, CC, widest path's
``$MAX(min(c, w))``), a ``register_function`` operator, a custom
aggregate (``$GCD``), a two-aggregate head (a ``TupleAggregator`` of
MIN and MAX) and a ``//`` head.  The last three join row by row with
their own ``partial_agg``.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregators import AGGREGATORS, RecursiveAggregator
from repro.graphs.generators import erdos_renyi, rmat
from repro.lattice.semilattice import Semilattice
from repro.planner.ast import (
    AggTerm,
    BinOp,
    Const,
    EdbDecl,
    MAX,
    MIN,
    Program,
    Rel,
    register_function,
    vars_,
)
from repro.planner.interpreter import interpret
from repro.queries.cc import cc_program
from repro.queries.sssp import sssp_program
from repro.runtime import executor as executor_mod
from repro.runtime.config import EngineConfig
from repro.runtime.engine import Engine
from repro.runtime.spmd import run_spmd_engine

INF = 10**6
f, t, m, n, a, b, c, w, g = vars_("f t m n a b c w g")


class _GcdLattice(Semilattice):
    """Positive integers ordered by divisibility (join = gcd)."""

    def join(self, x, y):
        return math.gcd(x, y)


class _GcdAggregator(RecursiveAggregator):
    name = "gcd"

    def __init__(self) -> None:
        super().__init__(_GcdLattice())


AGGREGATORS["gcd"] = _GcdAggregator
register_function("gcd", math.gcd)
#: A path cost no numpy ufunc computes: each hop costs 1 + w mod 3.
register_function("hop_cost", lambda x, y: x + y % 3 + 1)


def _edb(name, arity):
    return EdbDecl(name, arity=arity, join_cols=(0,))


def _sssp(edges, starts):
    return sssp_program(), {"edge": edges, "start": starts}


def _cc(edges, starts):
    return cc_program(), {"edge": [(x, y) for x, y, _ in edges]}


def _widest(edges, starts):
    wide, cap, start = Rel("wide"), Rel("edge"), Rel("start")
    return Program(
        rules=[
            wide(n, n, INF) <= start(n),
            wide(f, t, MAX(BinOp("min", c, w))) <= (wide(f, m, c), cap(m, t, w)),
        ],
        edb=[_edb("edge", 3), _edb("start", 1)],
    ), {"edge": edges, "start": starts}


def _custom_op(edges, starts):
    cost, edge, start = Rel("cost"), Rel("edge"), Rel("start")
    return Program(
        rules=[
            cost(n, n, 0) <= start(n),
            cost(f, t, MIN(BinOp("hop_cost", a, w))) <= (cost(f, m, a), edge(m, t, w)),
        ],
        edb=[_edb("edge", 3), _edb("start", 1)],
    ), {"edge": edges, "start": starts}


def _gcd(edges, starts):
    walk, edge = Rel("walk"), Rel("edge")
    return Program(
        rules=[
            walk(f, t, AggTerm("gcd", w)) <= edge(f, t, w),
            walk(f, t, AggTerm("gcd", BinOp("gcd", g, w)))
            <= (walk(f, m, g), edge(m, t, w)),
        ],
        edb=[_edb("edge", 3)],
    ), {"edge": edges}


def _tuple_agg(edges, starts):
    span, edge, start = Rel("span"), Rel("edge"), Rel("start")
    return Program(
        rules=[
            span(n, n, 0, INF) <= start(n),
            span(f, t, MIN(a + w), MAX(BinOp("min", b, w)))
            <= (span(f, m, a, b), edge(m, t, w)),
        ],
        edb=[_edb("edge", 3), _edb("start", 1)],
    ), {"edge": edges, "start": starts}


def _floordiv(edges, starts):
    dist, edge, start = Rel("dist"), Rel("edge"), Rel("start")
    return Program(
        rules=[
            dist(n, n, 0) <= start(n),
            dist(f, t, MIN(a + BinOp("//", Const(12), w)))
            <= (dist(f, m, a), edge(m, t, w)),
        ],
        edb=[_edb("edge", 3), _edb("start", 1)],
    ), {"edge": edges, "start": starts}


PROGRAMS = {
    "sssp": _sssp,
    "cc": _cc,
    "widest": _widest,
    "custom-op": _custom_op,
    "gcd": _gcd,
    "tuple-agg": _tuple_agg,
    "floordiv": _floordiv,
}


@st.composite
def graphs(draw):
    """Weighted edges ``(src, dst, w)``, ``w`` in 1..9, of a small rmat or
    Erdős–Rényi graph, half the time with a star from vertex 0 (three
    edges to every vertex, so its key tends to hold more than m/p of the
    m edges: a heavy key), and one or two start vertices."""
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        graph = rmat(draw(st.integers(2, 4)), draw(st.integers(1, 3)), seed=seed)
    else:
        size = draw(st.integers(2, 12))
        graph = erdos_renyi(size, draw(st.integers(1, 3 * size)), seed=seed)
    edges = graph.with_weights(np.random.default_rng(seed), 9).tuples()
    if draw(st.booleans()):
        edges = edges + [(0, v, w) for v in range(graph.n_nodes) for w in (1, 4, 9)]
    starts = draw(st.sets(st.integers(0, graph.n_nodes - 1), min_size=1, max_size=2))
    return edges, sorted((s,) for s in starts)


def _run(program, facts, config):
    engine = Engine(program, config)
    for name, rows in facts.items():
        engine.load(name, rows)
    return engine.run()


def assert_equals_interpreter(result, expected):
    assert set(result.relations) == set(expected)
    for name, tuples in expected.items():
        assert result.query(name) == tuples, name


@settings(derandomize=True)
@given(
    kind=st.sampled_from(sorted(PROGRAMS)),
    graph=graphs(),
    n_ranks=st.sampled_from([1, 2, 3, 7]),
    edb_subbuckets=st.sampled_from([1, 2, 4]),
    wire=st.booleans(),
    spmd=st.booleans(),
    small_budget=st.booleans(),
)
def test_engine_equals_interpreter(
    kind, graph, n_ranks, edb_subbuckets, wire, spmd, small_budget
):
    program, facts = PROGRAMS[kind](*graph)
    expected = interpret(program, facts)
    config = EngineConfig(
        n_ranks=n_ranks,
        wire=wire,
        subbuckets={decl.name: edb_subbuckets for decl in program.edb},
    )
    if spmd:
        assert run_spmd_engine(program, facts, config) == {
            name: set(tuples) for name, tuples in expected.items()
        }
        return
    result = _run(program, facts, config)
    assert_equals_interpreter(result, expected)
    if small_budget:
        with mock.patch.object(executor_mod, "_PAIR_BUDGET", 4):
            folded = _run(program, facts, config)
        assert_equals_interpreter(folded, expected)
        assert folded.summary() == result.summary()
