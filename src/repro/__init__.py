"""repro — a Python reproduction of PARALAGG (CLUSTER 2023).

PARALAGG ("Communication-Avoiding Recursive Aggregation", Sun, Kumar,
Gilray & Micinski) is a C++/MPI library for evaluating Datalog-style
queries with *recursive aggregates* — ``$MIN``/``$MAX``/... in the head of
recursive rules — at supercomputer scale.  This package reproduces the
full system on a simulated MPI cluster:

* declarative queries (:mod:`repro.planner`) over the BPRA relational
  substrate (:mod:`repro.relational`),
* the communication-avoiding contributions (:mod:`repro.core`): fused
  dedup/local aggregation, dynamic join planning, spatial load balancing,
* a semi-naïve distributed runtime (:mod:`repro.runtime`) over a
  cost-modeled simulated cluster (:mod:`repro.comm`),
* comparison baselines (:mod:`repro.baselines`), graph workloads
  (:mod:`repro.graphs`), ready-made queries (:mod:`repro.queries`) and
  reporting (:mod:`repro.metrics`).

Quickstart::

    from repro import Engine, EngineConfig, Program, Rel, vars_, MIN

    edge, start, spath = Rel("edge"), Rel("start"), Rel("spath")
    f, t, m, l, w, n = vars_("f t m l w n")
    program = Program(
        rules=[
            spath(n, n, 0) <= start(n),
            spath(f, t, MIN(l + w)) <= (spath(f, m, l), edge(m, t, w)),
        ],
        edb={"edge": (3, (0,)), "start": (1, (0,))},
    )
    engine = Engine(program, EngineConfig(n_ranks=8))
    engine.load("edge", [(0, 1, 4), (1, 2, 1), (0, 2, 9)])
    engine.load("start", [(0,)])
    result = engine.run()
    assert (0, 2, 5) in result.query("spath")
"""

from repro.planner.ast import (
    ANY,
    Atom,
    Const,
    MAX,
    MCOUNT,
    MIN,
    Program,
    Rel,
    Rule,
    SUM,
    COUNT,
    UNION,
    Var,
    vars_,
)
from repro.runtime.config import EngineConfig
from repro.runtime.engine import Engine
from repro.runtime.incremental import FixpointHandle, IncrementalUnsupportedError
from repro.runtime.result import FixpointResult
from repro.comm.costmodel import CostModel
from repro.obs import NullTracer, Span, Tracer
from repro.api import Options, Session

__version__ = "1.0.0"

__all__ = [
    "ANY",
    "Atom",
    "Const",
    "CostModel",
    "Engine",
    "EngineConfig",
    "FixpointHandle",
    "FixpointResult",
    "IncrementalUnsupportedError",
    "MAX",
    "MCOUNT",
    "MIN",
    "NullTracer",
    "Options",
    "Program",
    "Session",
    "Rel",
    "Rule",
    "SUM",
    "COUNT",
    "Span",
    "Tracer",
    "UNION",
    "Var",
    "vars_",
    "__version__",
]
