"""Seeded graph generators (all vectorized with numpy).

The workhorse is :func:`rmat` — the Recursive-MATrix / Kronecker model
behind Graph500 — whose (a, b, c, d) partition probabilities control
degree skew: social-network-like graphs (paper's Twitter) use a strongly
asymmetric split, web crawls a milder one, and a symmetric split
degenerates to Erdős–Rényi.  Meshes and circuits (SuiteSparse's
ML_Geer / HV15R / stokes / Freescale1 classes) come from grid generators:
bounded degree, huge diameter — the opposite regime, driving the long
iteration counts of paper Table II.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graphs.types import Graph
from repro.util.hashing import HashSeed, hash_columns


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def rmat(
    scale: int,
    edge_factor: int = 16,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: Optional[int] = 0,
    name: str = "rmat",
    category: str = "social",
    dedup: bool = True,
    drop_self_loops: bool = True,
    permute: bool = True,
) -> Graph:
    """R-MAT generator: ``2**scale`` nodes, ``edge_factor * 2**scale`` edges.

    Defaults are the Graph500 parameters (a=0.57, b=c=0.19, d=0.05),
    producing the heavy-tailed degree distribution whose "celebrity"
    vertices cause the rank imbalance of paper Fig. 3.

    ``permute`` relabels vertices randomly so vertex id carries no degree
    information (as in Graph500), which keeps hash placement honest.
    """
    if scale < 1 or scale > 30:
        raise ValueError(f"scale must be in [1, 30], got {scale}")
    d = 1.0 - a - b - c
    if d < 0 or min(a, b, c) < 0:
        raise ValueError(f"invalid RMAT probabilities a={a} b={b} c={c}")
    n = 1 << scale
    m = edge_factor * n
    rng = _rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        # Quadrant (src_bit, dst_bit) probabilities: a=(0,0), b=(0,1),
        # c=(1,0), d=(1,1).  First draw selects the src bit, the second the
        # dst bit conditioned on it.
        src_bit = r >= a + b
        r2 = rng.random(m)
        thresh = np.where(src_bit, d / max(c + d, 1e-12), b / max(a + b, 1e-12))
        dst_bit = r2 < thresh
        src |= src_bit.astype(np.int64) << bit
        dst |= dst_bit.astype(np.int64) << bit
    if permute:
        perm = rng.permutation(n)
        src, dst = perm[src], perm[dst]
    edges = np.column_stack([src, dst])
    if drop_self_loops:
        edges = edges[edges[:, 0] != edges[:, 1]]
    if dedup:
        edges = np.unique(edges, axis=0)
    return Graph(edges=edges, n_nodes=n, name=name, category=category)


def erdos_renyi(
    n: int,
    m: int,
    *,
    seed: Optional[int] = 0,
    name: str = "erdos_renyi",
    category: str = "random",
) -> Graph:
    """Uniform random directed graph with ``m`` (deduplicated) edges."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = _rng(seed)
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = rng.integers(0, n, size=m, dtype=np.int64)
    edges = np.column_stack([src, dst])
    edges = edges[edges[:, 0] != edges[:, 1]]
    edges = np.unique(edges, axis=0)
    return Graph(edges=edges, n_nodes=n, name=name, category=category)


def grid2d(
    rows: int,
    cols: int,
    *,
    shortcuts: int = 0,
    seed: Optional[int] = 0,
    name: str = "grid2d",
    category: str = "mesh",
) -> Graph:
    """Directed 4-neighbour 2-D mesh (edges both directions per pair).

    ``shortcuts`` adds that many random long-range edges — circuit-like
    graphs (Freescale1) are meshes plus sparse global nets.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    n = rows * cols
    idx = np.arange(n, dtype=np.int64).reshape(rows, cols)
    horiz = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    vert = np.column_stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    fwd = np.vstack([horiz, vert])
    edges = np.vstack([fwd, fwd[:, ::-1]])
    if shortcuts:
        rng = _rng(seed)
        s = np.column_stack(
            [
                rng.integers(0, n, size=shortcuts, dtype=np.int64),
                rng.integers(0, n, size=shortcuts, dtype=np.int64),
            ]
        )
        s = s[s[:, 0] != s[:, 1]]
        edges = np.vstack([edges, s, s[:, ::-1]])
    edges = np.unique(edges, axis=0)
    return Graph(edges=edges, n_nodes=n, name=name, category=category)


def grid3d(
    nx: int,
    ny: int,
    nz: int,
    *,
    name: str = "grid3d",
    category: str = "mesh",
) -> Graph:
    """Directed 6-neighbour 3-D mesh (CFD/FEM-like, e.g. HV15R, ML_Geer)."""
    n = nx * ny * nz
    idx = np.arange(n, dtype=np.int64).reshape(nx, ny, nz)
    pairs = [
        np.column_stack([idx[:-1, :, :].ravel(), idx[1:, :, :].ravel()]),
        np.column_stack([idx[:, :-1, :].ravel(), idx[:, 1:, :].ravel()]),
        np.column_stack([idx[:, :, :-1].ravel(), idx[:, :, 1:].ravel()]),
    ]
    fwd = np.vstack(pairs)
    edges = np.vstack([fwd, fwd[:, ::-1]])
    return Graph(edges=edges, n_nodes=n, name=name, category=category)


def star(n_leaves: int, *, name: str = "star", category: str = "skew") -> Graph:
    """Hub 0 → every leaf: the worst-case join-key skew stressor."""
    if n_leaves < 1:
        raise ValueError("n_leaves must be >= 1")
    leaves = np.arange(1, n_leaves + 1, dtype=np.int64)
    edges = np.column_stack([np.zeros(n_leaves, dtype=np.int64), leaves])
    return Graph(edges=edges, n_nodes=n_leaves + 1, name=name, category=category)


def chain(n: int, *, name: str = "chain", category: str = "path") -> Graph:
    """0 → 1 → … → n-1: maximizes fixpoint iteration count (long tail)."""
    if n < 2:
        raise ValueError("chain needs at least 2 nodes")
    src = np.arange(n - 1, dtype=np.int64)
    edges = np.column_stack([src, src + 1])
    return Graph(edges=edges, n_nodes=n, name=name, category=category)


def ring(n: int, *, name: str = "ring", category: str = "path") -> Graph:
    """Directed cycle: tests convergence on cyclic data."""
    if n < 2:
        raise ValueError("ring needs at least 2 nodes")
    src = np.arange(n, dtype=np.int64)
    edges = np.column_stack([src, (src + 1) % n])
    return Graph(edges=edges, n_nodes=n, name=name, category=category)


def complete(n: int, *, name: str = "complete", category: str = "dense") -> Graph:
    """All ordered pairs (no self loops)."""
    if n < 2:
        raise ValueError("complete needs at least 2 nodes")
    src, dst = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    edges = np.column_stack([src.ravel(), dst.ravel()]).astype(np.int64)
    edges = edges[edges[:, 0] != edges[:, 1]]
    return Graph(edges=edges, n_nodes=n, name=name, category=category)


def skewed_hub_graph(
    dataset: str,
    *,
    ranks: int,
    seed: int,
    scale_shift: int = 0,
    hub_frac: float = 0.3,
    max_weight: int = 4,
) -> Graph:
    """``dataset`` plus a hub cluster that lands in one hash bucket.

    The paper's celebrity-vertex pathology, concentrated: a single vertex
    cannot carry more than ``n_nodes`` distinct out-edges, so the hot
    bucket is built from *every* vertex whose join key hashes to one
    bucket under the engine's actual placement (the store derives its
    :class:`~repro.util.hashing.HashSeed` from ``seed``, replicated here).
    Each hub gets a run of distinct targets until the hub edges make up
    ``hub_frac`` of the total — one bucket owning ~30% of the relation,
    which a 1-sub-bucket placement pins to a single rank.
    """
    # datasets.py builds its stand-ins from this module's generators.
    from repro.graphs.datasets import load_dataset

    g = load_dataset(
        dataset, seed=seed, scale_shift=scale_shift, max_weight=max_weight
    )
    hseed = HashSeed().derive(seed)
    verts = np.arange(g.n_nodes, dtype=np.int64)[:, None]
    buckets = hash_columns(verts, (0,), seed=hseed.bucket) % np.uint64(ranks)
    hot = int(buckets[0])
    hubs = np.flatnonzero(buckets == hot)
    k_total = int(g.n_edges * hub_frac / (1.0 - hub_frac))
    per_hub = min(g.n_nodes - 1, -(-k_total // max(len(hubs), 1)))
    blocks = []
    made = 0
    for h in hubs:
        if made >= k_total:
            break
        d = min(per_hub, k_total - made)
        targets = (h + 1 + np.arange(d)) % g.n_nodes
        weights = 1 + (h + targets) % max_weight
        blocks.append(
            np.stack([np.full(d, h), targets, weights], axis=1)
        )
        made += d
    edges = np.vstack([g.edges] + [b.astype(np.int64) for b in blocks])
    return Graph(
        edges, g.n_nodes, name=f"{g.name}_hub", category="synthetic"
    )
