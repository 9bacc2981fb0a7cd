"""Columnar batch kernels for the fixpoint hot path.

``repro.kernels`` is the vectorized twin of the engine's per-tuple
pipeline: every phase consumes and produces ``numpy`` int64 row-blocks
(C-contiguous ``(n, arity)`` arrays) instead of Python tuple lists.

The layer is **behaviour-preserving by construction**: each kernel
replays the scalar path's sequential semantics (arrival order inside a
shard, nested Δ ordering, per-occurrence admitted counts) with array
operations, so ledger charges, Δ contents, and all rank-invariance
properties are bit-for-bit identical across ``EngineConfig.executor``
settings.  See DESIGN.md §8 for the layout and the fallback rules.
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
