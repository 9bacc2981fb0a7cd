"""Vanilla-Datalog SSSP: the stratified-aggregation strawman (paper §II-B).

Without recursive aggregation, SSSP must materialize **every** distinct
path length before a final stratified ``$MIN``::

    Path(n, n, 0)        ← Start(n).
    Path(f, t, l + w)    ← Path(f, m, l), Edge(m, t, w).   -- plain relation!
    Spath(f, t, $MIN(l)) ← Path(f, t, l).

``Path``'s length column is *independent* here, so the fixpoint stores (and
communicates) one tuple per distinct (source, target, length) — exponential
blowup on dense graphs, non-termination on graphs with cycles reachable
from a source (lengths grow forever).  The runner guards with an iteration
cap and documents the failure mode; the ablation benchmark uses it to show
the asymptotic gap that motivates the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.graphs.types import Graph
from repro.planner.ast import EdbDecl, MIN, Program, Rel, vars_
from repro.runtime.config import EngineConfig
from repro.runtime.engine import Engine
from repro.runtime.result import FixpointResult


def stratified_sssp_program(edge_subbuckets: int = 1) -> Program:
    """SSSP with aggregation pushed *outside* the recursion (§II-B)."""
    path, spath = Rel("path"), Rel("spath")
    edge, start = Rel("edge"), Rel("start")
    f, t, m, l, w, n = vars_("f t m l w n")
    return Program(
        rules=[
            path(n, n, 0) <= start(n),
            path(f, t, l + w) <= (path(f, m, l), edge(m, t, w)),
            spath(f, t, MIN(l)) <= path(f, t, l),
        ],
        edb=[
            EdbDecl("edge", arity=3, join_cols=(0,), n_subbuckets=edge_subbuckets),
            EdbDecl("start", arity=1, join_cols=(0,)),
        ],
    )


@dataclass
class StratifiedSsspResult:
    fixpoint: FixpointResult
    distances: Dict[Tuple[int, int], int]
    #: |Path| — the materialization the recursive-aggregate version avoids.
    n_materialized_paths: int
    iterations: int
    #: True if the iteration cap fired (cyclic lengths diverging).
    truncated: bool


def run_stratified_sssp(
    graph: Graph,
    sources: Sequence[int],
    config: Optional[EngineConfig] = None,
    *,
    max_iterations: int = 64,
) -> StratifiedSsspResult:
    """Run the strawman; caps iterations since cycles never converge.

    When the cap fires, the returned distances are still correct for all
    shortest paths of hop count < ``max_iterations`` (min over materialized
    lengths), mirroring how one would bound vanilla Datalog in practice.
    """
    if not graph.weighted:
        graph = graph.with_unit_weights()
    config = replace(
        config or EngineConfig(), max_iterations=max_iterations, wire=False
    )
    engine = Engine(stratified_sssp_program(), config)
    engine.load("edge", graph.tuples())
    engine.load("start", [(int(s),) for s in sources])
    truncated = False
    try:
        result = engine.run()
    except RuntimeError as e:
        if "did not converge" not in str(e):
            raise
        truncated = True
        # Evaluate the remaining (aggregation) strata over what exists by
        # rebuilding the final stratum result directly.
        result = None
    if result is None:
        # Fall back: aggregate the materialized Path relation manually.
        path_rel = engine.store["path"]
        best: Dict[Tuple[int, int], int] = {}
        for f_, t_, l_ in path_rel.iter_full():
            key = (f_, t_)
            if key not in best or l_ < best[key]:
                best[key] = l_
        from repro.runtime.result import FixpointResult as _FR

        result = _FR(
            relations=dict(engine.store.relations),
            iterations=engine._iterations,
            ledger=engine.cluster.ledger,
            timer=engine.timer,
            trace=engine.trace,
            counters=dict(engine.counters),
        )
        distances = best
        n_paths = path_rel.full_size()
    else:
        distances = {(t[0], t[1]): t[2] for t in result.query("spath")}
        n_paths = result.relations["path"].full_size()
    return StratifiedSsspResult(
        fixpoint=result,
        distances=distances,
        n_materialized_paths=n_paths,
        iterations=result.iterations,
        truncated=truncated,
    )
