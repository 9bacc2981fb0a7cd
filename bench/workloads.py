"""The four workloads, as plain data.

A workload names a query, a graph, a rank count and the options that
differ from the shipped default.  Nothing here imports ``repro``:
``driver.py`` turns a :class:`Workload` into inputs and options, so the
engine sees generated inputs and options only, never a workload name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: Every graph is the repo's named stand-in at this dataset seed, as the
#: paper's graphs are fixed datasets.  ``--seed`` draws which edges are
#: left out (see ``HOLDOUT``), not a new topology: drawing the topology
#: per seed moved every metric by 26-29% (IQR/median over ten seeds) on
#: the mesh, whose iteration count follows its random shortcuts, and by
#: 16-33% on ``twitter_like``; both are wider than any bound the
#: benchmark may state.
DATASET_SEED = 42

#: Share of the edges ``--seed`` leaves out of a cold workload's graph.
#: At 1% the deterministic metrics move by 0.2-1.1% between seeds: enough
#: that no two seeds read the same, little enough to gate at 5%.
HOLDOUT = 0.01


#: Share of the edges in each insertion batch of an update workload.
BATCH_FRAC = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    query: str  # "sssp" or "cc"
    dataset: str
    scale_shift: int
    ranks: int
    #: SSSP start vertices are ``0 .. sources-1`` (RMAT's low ids are its hubs).
    sources: int = 0
    checkpoint_every: Optional[int] = None
    faults: Optional[str] = None
    #: Insertion batches applied through ``Session.update`` after the base
    #: query; 0 makes the workload one cold ``Engine.run``.
    update_batches: int = 0
    #: A traced run also measures the overhead of the repo's own tracing
    #: and diagnostics here (one more repetition with both switched on).
    observe: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sssp-skew-p64",
            why="RMAT skew on 64 ranks: 4,096 pairs per exchange, so "
            "per-call cost in route/wire/simcluster dominates",
            query="sssp",
            dataset="twitter_like",
            scale_shift=2,
            ranks=64,
            sources=3,
        ),
        Workload(
            name="sssp-dense-p4",
            why="349k edges on 4 ranks: 16 pairs per exchange, so numpy "
            "work in combine, probe and absorb dominates; memory-heavy",
            query="sssp",
            dataset="twitter_like",
            scale_shift=0,
            ranks=4,
            sources=8,
        ),
        Workload(
            name="cc-mesh-ckpt-p16",
            why="2-D mesh, 57 iterations of tiny deltas with no duplicate "
            "keys: per-iteration fixed cost, checkpoints and one crash replay",
            query="cc",
            dataset="stokes",
            scale_shift=0,
            ranks=16,
            checkpoint_every=8,
            faults="crash=3@40",
            observe=True,
        ),
        Workload(
            name="sssp-update-p16",
            why="base query on 92% of the skewed graph, then 8 insertion "
            "batches of 1%: update latency beside bulk fixpoints",
            query="sssp",
            dataset="twitter_like",
            scale_shift=2,
            ranks=16,
            sources=3,
            update_batches=8,
        ),
    )
}
