"""PARALAGG's primary contribution, reproduced.

:mod:`repro.core.aggregators`
    The ``RecursiveAggregator`` API of paper Listing 1 — dependent-column
    extraction, partial order, partial aggregation — plus the built-in
    aggregates (``$MIN``, ``$MAX``, ``$MCOUNT``, ``$ANY``, ``$UNION``).
    Fused deduplication + local aggregation (§III-A), the shards whose
    absorb generalizes Datalog's dedup to lattice joins, is
    :mod:`repro.kernels.absorb`.
:mod:`repro.core.join_planner`
    Dynamic join planning (§IV-D, Algorithm 1): the per-iteration
    outer/inner vote via a one-word allreduce.
:mod:`repro.core.balancer`
    Spatial load balancing (§IV-C): imbalance measurement and sub-bucket
    recommendation.
"""

from repro.core.aggregators import (
    RecursiveAggregator,
    MinAggregator,
    MaxAggregator,
    MCountAggregator,
    AnyAggregator,
    UnionAggregator,
    AGGREGATORS,
    make_aggregator,
)
from repro.core.join_planner import JoinSide, vote_outer_relation
from repro.core.balancer import ImbalanceReport, measure_imbalance, recommend_subbuckets

__all__ = [
    "RecursiveAggregator",
    "MinAggregator",
    "MaxAggregator",
    "MCountAggregator",
    "AnyAggregator",
    "UnionAggregator",
    "AGGREGATORS",
    "make_aggregator",
    "JoinSide",
    "vote_outer_relation",
    "ImbalanceReport",
    "measure_imbalance",
    "recommend_subbuckets",
]
