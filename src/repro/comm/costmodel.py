"""The α–β communication cost model and compute-rate calibration.

Strong-scaling *shape* — where near-linear scaling saturates, where
imbalance bites, where collective latency overtakes shrinking local work —
is determined by (a) per-rank work, (b) message counts and sizes, and
(c) the latency/bandwidth characteristics of the interconnect.  We model:

* point-to-point message: ``alpha + nbytes / beta``
* allreduce / barrier (tree-based): ``ceil(log2 P) * (alpha + nbytes/beta)``
* allgather (recursive doubling): ``log2(P)`` rounds, doubling payload
* alltoallv (pairwise exchange): ``(P - 1)`` lightweight rounds of latency
  plus the *maximum per-rank* traffic over the bisection

Default constants approximate a Cray XC40 Aries interconnect (Theta):
~1 µs latency, ~10 GB/s effective per-rank bandwidth; compute rates
approximate one slow KNL core driving a B-tree/hash pipeline in C++
(tens of millions of tuple-ops per second).  Absolute times are *not*
claims — only relative shapes are used in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.util.config import check_positive

#: Bytes used to serialize one tuple column (64-bit word, as in PARALAGG).
BYTES_PER_WORD = 8


@dataclass(frozen=True)
class CommEvent:
    """One recorded communication operation (for ledgers and tests)."""

    kind: str
    phase: str
    nbytes: int
    messages: int
    seconds: float


@dataclass
class CostModel:
    """Latency–bandwidth interconnect model plus per-tuple compute rates.

    Parameters
    ----------
    alpha:
        Per-message latency in seconds.
    beta:
        Per-rank effective bandwidth, bytes/second.
    tuple_probe:
        Seconds per B-tree/hash probe in a local join.
    tuple_emit:
        Seconds per output tuple materialized by a join.
    tuple_insert:
        Seconds per tuple inserted into indexed storage (B-tree insert).
    tuple_agg:
        Seconds per fused dedup/aggregation absorb.
    tuple_serialize:
        Seconds per tuple (de)serialized for transmission.
    compute_scale:
        Work-density calibration κ: every simulated tuple operation is
        charged as κ operations.  The stand-in graphs are orders of
        magnitude smaller than the paper's (Twitter-2010 has 1.47 B
        edges), so per-rank work at a given rank count is correspondingly
        thinner; κ restores the paper's compute-to-communication ratio so
        strong-scaling *shape* (where the comm floor bites) is comparable
        at the paper's rank counts.  Documented per experiment in
        EXPERIMENTS.md; default 1 (no scaling).
    """

    alpha: float = 1.0e-6
    beta: float = 10.0e9
    tuple_probe: float = 8.0e-8
    tuple_emit: float = 4.0e-8
    tuple_insert: float = 1.6e-7
    tuple_agg: float = 6.0e-8
    tuple_serialize: float = 2.0e-8
    compute_scale: float = 1.0
    #: Per-rank stable-storage bandwidth for checkpoint writes/reads
    #: (bytes/second) — a burst-buffer/Lustre-class figure, slower than
    #: the interconnect so checkpoint frequency has a visible price.
    checkpoint_gamma: float = 2.0e9

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "tuple_probe", "tuple_emit",
                     "tuple_insert", "tuple_agg", "tuple_serialize",
                     "compute_scale", "checkpoint_gamma"):
            check_positive(name, getattr(self, name))

    # ------------------------------------------------------------ collectives

    def p2p(self, nbytes: int) -> float:
        """Single point-to-point message."""
        return self.alpha + nbytes / self.beta

    def allreduce(self, n_ranks: int, nbytes: int) -> float:
        """Tree allreduce of a small payload (Algorithm 1's vote)."""
        rounds = max(1, math.ceil(math.log2(max(2, n_ranks))))
        return rounds * (self.alpha + nbytes / self.beta)

    def barrier(self, n_ranks: int) -> float:
        return self.allreduce(n_ranks, BYTES_PER_WORD)

    def allgather(self, n_ranks: int, nbytes_per_rank: int) -> float:
        """Recursive-doubling allgather: payload doubles every round."""
        if n_ranks <= 1:
            return 0.0
        rounds = math.ceil(math.log2(n_ranks))
        t, chunk = 0.0, nbytes_per_rank
        for _ in range(rounds):
            t += self.alpha + chunk / self.beta
            chunk *= 2
        return t

    def alltoallv(
        self, n_ranks: int, max_rank_bytes: int, max_rank_peers: int
    ) -> float:
        """Sparse alltoallv cost.

        Components, following the behaviour of production MPI_Alltoallv:

        * a count-exchange prologue (every rank tells every rank how much
          it will send) — ``n_ranks`` words per rank over the wire, plus a
          logarithmic synchronization term; this is the part that grows
          with rank count even for empty exchanges, and is exactly the
          sync overhead the paper reports saturating scalability past a
          few thousand ranks;
        * per-message injection at the busiest rank: ``max_rank_peers``
          distinct destinations/sources, one latency each;
        * the busiest rank's serialized traffic at bandwidth β.
        """
        if n_ranks <= 1:
            return 0.0
        rounds = max(1, math.ceil(math.log2(n_ranks)))
        count_exchange = rounds * self.alpha + (n_ranks * BYTES_PER_WORD) / self.beta
        return (
            count_exchange
            + max_rank_peers * self.alpha
            + max_rank_bytes / self.beta
        )

    def alltoallv_bruck(self, n_ranks: int, max_rank_bytes: int) -> float:
        """Bruck-algorithm alltoallv cost.

        ``ceil(log2 P)`` store-and-forward rounds replace both the
        count-exchange prologue and the per-peer injection latencies of
        the direct algorithm — the busiest rank pays one latency per
        round regardless of how many peers it addresses.  The price is
        forwarding: each datum travels ~``rounds/2`` hops on average, so
        the busiest rank's bandwidth term is inflated by that factor.
        Cheaper than direct for small, scattered messages (route
        exchanges late in a fixpoint); worse once per-rank traffic is
        bandwidth-bound — the autotuner picks per superstep.
        """
        if n_ranks <= 1:
            return 0.0
        rounds = max(1, math.ceil(math.log2(n_ranks)))
        return rounds * self.alpha + (rounds / 2.0) * max_rank_bytes / self.beta

    # ------------------------------------------------------------- recovery

    def checkpoint_write(self, n_ranks: int, max_rank_bytes: int) -> float:
        """Coordinated iteration-boundary checkpoint.

        Every rank writes its shard partition to stable storage
        concurrently (the slowest partition gates), then a barrier marks
        the boundary consistent.
        """
        return max_rank_bytes / self.checkpoint_gamma + self.barrier(n_ranks)

    def recovery_restore(
        self, n_ranks: int, max_rank_bytes: int, failed_rank_bytes: int
    ) -> float:
        """Roll back to a checkpoint after a rank failure.

        Survivors re-read their own partitions in parallel; the failed
        rank's partition is re-fetched from stable storage and
        redistributed to its replacement over the interconnect, then a
        barrier re-synchronizes the restart.
        """
        read = max(max_rank_bytes, failed_rank_bytes) / self.checkpoint_gamma
        return (
            read
            + self.alltoallv(n_ranks, failed_rank_bytes, max(1, n_ranks - 1))
            + self.barrier(n_ranks)
        )

    def checkpoint_replicate(
        self, n_ranks: int, max_rank_bytes: int, replicas: int
    ) -> float:
        """Mirror each rank's snapshot to ``replicas`` buddy ranks.

        Runs concurrently across ranks after the local checkpoint write:
        every rank streams its partition to each buddy in turn over the
        interconnect (the slowest — largest — partition gates), and each
        buddy lands the copy in memory/burst buffer at γ.
        """
        if replicas <= 0 or n_ranks <= 1:
            return 0.0
        per_buddy = self.p2p(max_rank_bytes) + max_rank_bytes / self.checkpoint_gamma
        return replicas * per_buddy

    def recovery_reown(self, n_ranks: int, failed_rank_bytes: int) -> float:
        """Re-own a permanently-lost rank's shards onto the survivors.

        The buddy re-reads the dead rank's replica at γ, then scatters it
        to the new owners (the degraded placement spreads the shards over
        all survivors) in one alltoallv; a barrier commits the new world.
        """
        read = failed_rank_bytes / self.checkpoint_gamma
        return (
            read
            + self.alltoallv(n_ranks, failed_rank_bytes, max(1, n_ranks - 1))
            + self.barrier(n_ranks)
        )

    @staticmethod
    def tuple_bytes(count: int, arity: int) -> int:
        """Serialized size of ``count`` tuples of the given arity."""
        return count * arity * BYTES_PER_WORD


@dataclass
class CommStats:
    """Aggregate communication statistics, by collective kind."""

    bytes_total: int = 0
    messages: int = 0
    events: List[CommEvent] = field(default_factory=list)
    by_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, event: CommEvent) -> None:
        self.bytes_total += event.nbytes
        self.messages += event.messages
        self.by_kind[event.kind] = self.by_kind.get(event.kind, 0) + event.nbytes
        self.events.append(event)
