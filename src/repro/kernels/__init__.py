"""Columnar batch kernels: the engine's one data plane.

Every pipeline phase consumes and produces ``numpy`` int64 row-blocks
(C-contiguous ``(n, arity)`` arrays).  The shards replay sequential
absorption semantics (arrival order inside a shard, nested Δ ordering,
per-occurrence admitted counts) with array operations; see DESIGN.md §8
for the layout.
"""

from repro.kernels.block import concat_ranges, lex_group
from repro.kernels.absorb import (
    ColumnarAggregateShard,
    ColumnarPlainShard,
    vector_combiner,
)
from repro.kernels.join import RankJoinIndex
from repro.kernels.route import build_intra_sends, build_route_sends

__all__ = [
    "concat_ranges",
    "lex_group",
    "ColumnarPlainShard",
    "ColumnarAggregateShard",
    "vector_combiner",
    "RankJoinIndex",
    "build_intra_sends",
    "build_route_sends",
]
