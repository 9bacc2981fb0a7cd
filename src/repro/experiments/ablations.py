"""Ablations beyond the paper's figures.

DESIGN.md calls out three design choices worth isolating on identical
cost models (unlike Table I, which compares whole systems):

1. **Dynamic join planning** (§IV-D): vote vs each static layout.
2. **Sub-bucket count** (§IV-C): 1/2/4/8/16 on the skewed graph.
3. **Aggregation placement** (§IV-A): PARALAGG's fused local aggregation
   vs the RaSQL-style global-hashmap double shuffle, *with the same cost
   model*, isolating the algorithm from the Spark constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.baselines.rasql_like import RaSQLLikeEngine
from repro.experiments.common import (
    ExperimentDefaults,
    defaults_from_env,
    render_table,
    scaling_cost_model,
)
from repro.graphs.datasets import load_dataset
from repro.queries.sssp import run_sssp, sssp_program
from repro.runtime.config import EngineConfig
from repro.runtime.engine import Engine

N_RANKS = 256
N_SOURCES = 10


@dataclass
class AblationRow:
    name: str
    modeled_seconds: float
    comm_bytes: int
    detail: str = ""
    #: intra-bucket (pre-join) tuples transmitted, when relevant.
    intra_tuples: int = 0


def run_join_order_ablation(
    defaults: Optional[ExperimentDefaults] = None,
) -> List[AblationRow]:
    """Vote vs static-left vs static-right on SSSP."""
    d = defaults or defaults_from_env()
    graph = load_dataset(
        "twitter_like", seed=d.seed, scale_shift=d.scale_shift, max_weight=4
    )
    rows: List[AblationRow] = []
    variants = [
        ("dynamic vote", EngineConfig(n_ranks=N_RANKS, dynamic_join=True,
                                      subbuckets={"edge": 8},
                                      cost_model=scaling_cost_model())),
        ("static outer=left (Δ side)", EngineConfig(n_ranks=N_RANKS, dynamic_join=False,
                                                    static_outer="left",
                                                    subbuckets={"edge": 8},
                                                    cost_model=scaling_cost_model())),
        ("static outer=right (edges)", EngineConfig(n_ranks=N_RANKS, dynamic_join=False,
                                                    static_outer="right",
                                                    subbuckets={"edge": 8},
                                                    cost_model=scaling_cost_model())),
    ]
    for name, config in variants:
        r = run_sssp(graph, list(range(N_SOURCES)), config)
        rows.append(
            AblationRow(
                name=name,
                modeled_seconds=r.fixpoint.modeled_seconds(),
                comm_bytes=r.fixpoint.ledger.comm.bytes_total,
                detail=f"intra-bucket tuples: {r.fixpoint.counters['intra_bucket_tuples']}",
                intra_tuples=r.fixpoint.counters["intra_bucket_tuples"],
            )
        )
    return rows


def run_subbucket_ablation(
    defaults: Optional[ExperimentDefaults] = None,
    *,
    counts: tuple = (1, 2, 4, 8, 16),
    n_ranks: int = 2048,
) -> List[AblationRow]:
    """Sub-bucket sweep at high rank count (imbalance regime)."""
    d = defaults or defaults_from_env()
    graph = load_dataset("twitter_like", seed=d.seed, scale_shift=d.scale_shift)
    rows: List[AblationRow] = []
    for n_sub in counts:
        config = EngineConfig(
            n_ranks=n_ranks,
            dynamic_join=True,
            subbuckets={"edge": n_sub},
            cost_model=scaling_cost_model(),
        )
        r = run_sssp(graph, list(range(N_SOURCES)), config)
        rows.append(
            AblationRow(
                name=f"{n_sub} sub-bucket(s)",
                modeled_seconds=r.fixpoint.modeled_seconds(),
                comm_bytes=r.fixpoint.ledger.comm.bytes_total,
                detail=f"imbalance max/mean: {r.fixpoint.ledger.imbalance_ratio():.2f}",
            )
        )
    return rows


def run_aggregation_placement_ablation(
    defaults: Optional[ExperimentDefaults] = None,
) -> List[AblationRow]:
    """Fused local aggregation vs global-hashmap shuffle, equal cost model.

    This isolates the paper's central claim: the extra communication is
    *algorithmic* (aggregate-oblivious placement), not an artifact of
    Spark's constants.
    """
    d = defaults or defaults_from_env()
    graph = load_dataset("twitter_like", seed=d.seed, scale_shift=d.scale_shift)
    cm = scaling_cost_model()
    rows: List[AblationRow] = []

    config = EngineConfig(n_ranks=N_RANKS, dynamic_join=False,
                          static_outer="left", cost_model=cm)
    eng = Engine(sssp_program(), config)
    eng.load("edge", graph.tuples())
    eng.load("start", [(s,) for s in range(N_SOURCES)])
    r = eng.run()
    rows.append(
        AblationRow(
            name="fused local aggregation (PARALAGG)",
            modeled_seconds=r.modeled_seconds(),
            comm_bytes=r.ledger.comm.bytes_total,
            detail=f"alltoall tuples: {r.counters['alltoall_tuples']}",
        )
    )

    eng2 = RaSQLLikeEngine(
        sssp_program(), replace(config, cost_model=cm), serial_fraction=0.0
    )
    eng2.load("edge", graph.tuples())
    eng2.load("start", [(s,) for s in range(N_SOURCES)])
    r2 = eng2.run()
    rows.append(
        AblationRow(
            name="global-hashmap aggregation (RaSQL-style)",
            modeled_seconds=r2.modeled_seconds(),
            comm_bytes=r2.ledger.comm.bytes_total,
            detail=(
                f"alltoall tuples: {r2.counters['alltoall_tuples']}, "
                f"global-agg tuples: {r2.counters['globalagg_tuples']}"
            ),
        )
    )
    return rows


def render(rows: List[AblationRow], title: str) -> str:
    return render_table(
        ["variant", "modeled (s)", "comm bytes", "detail"],
        [
            [r.name, f"{r.modeled_seconds:.4f}", r.comm_bytes, r.detail]
            for r in rows
        ],
        title=title,
    )
