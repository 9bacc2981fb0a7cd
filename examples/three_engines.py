#!/usr/bin/env python3
"""One query, three evaluators — the reproduction's confidence argument.

The same SSSP program runs through:

1. the **naive reference interpreter** (textbook fixpoint over sets),
2. the **BSP engine** (one driver owning every simulated rank — the fast
   path used for the paper's scaling studies), and
3. the **SPMD engine** (the same engine once per rank, in lockstep over
   one cluster, each seeing only its own shards — architecturally the
   real PARALAGG's MPI ranks).

All three must agree exactly; the BSP and SPMD engines must also agree
on what the computation *cost*: iterations and modeled seconds.

Run:  python examples/three_engines.py
"""

import numpy as np

from repro import Engine, EngineConfig
from repro.graphs.generators import rmat
from repro.planner.interpreter import interpret
from repro.queries.sssp import sssp_program
from repro.runtime.spmd import run_slices

graph = rmat(6, 4, seed=21).with_weights(np.random.default_rng(4), 12)
facts = {"edge": graph.tuples(), "start": [(0,), (7,)]}
config = EngineConfig(n_ranks=8, subbuckets={"edge": 4})
program = sssp_program()

# 1 — naive oracle
oracle = interpret(program, facts)["spath"]
print(f"interpreter:  {len(oracle)} shortest-path tuples")

# 2 — BSP engine (the scaling-study workhorse)
engine = Engine(program, config)
for name, rows in facts.items():
    engine.load(name, rows)
bsp_result = engine.run()
bsp = bsp_result.query("spath")
print(
    f"BSP engine:   {len(bsp)} tuples in {bsp_result.iterations} iterations, "
    f"{bsp_result.ledger.comm.bytes_total} bytes moved"
)

# 3 — SPMD engine (one engine per rank, each holding only its own shards)
_engines, slices = run_slices(program, facts, config=config)
spmd = set().union(*(s.query("spath") for s in slices))
print(
    f"SPMD engine:  {len(spmd)} tuples in {slices[0].iterations} iterations, "
    f"{slices[0].ledger.comm.bytes_total} bytes moved"
)

assert oracle == bsp == spmd
assert slices[0].iterations == bsp_result.iterations
assert slices[0].modeled_seconds() == bsp_result.modeled_seconds()
print("\nall three evaluators agree, and both engines charge the same "
      f"{bsp_result.modeled_seconds():.6f} modeled seconds")

print("\ncompiled plan (what either engine executes):")
print(engine.explain())
