"""Columnar batch kernels: the engine's one data plane.

Every pipeline phase consumes and produces ``numpy`` int64 row-blocks
(C-contiguous ``(n, arity)`` arrays).  The row store replays sequential
absorption semantics shard by shard (arrival order inside a shard,
nested Δ ordering, per-occurrence admitted counts) with array
operations; see DESIGN.md §8 for the layout.
"""
