"""Engine configuration.

The paper's RQ1 ablation (Fig. 2) compares a *baseline* — no dynamic join
planning, no spatial load balancing — against the *optimized* engine.
Both are the same code here; only this config differs:

>>> baseline  = EngineConfig(n_ranks=256, dynamic_join=False, default_subbuckets=1)
>>> optimized = EngineConfig(n_ranks=256, dynamic_join=True,
...                          subbuckets={"edge": 8})
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Literal, Optional

from repro.comm.costmodel import CostModel
from repro.faults.config import FaultConfig
from repro.obs.tracer import Tracer


@dataclass
class EngineConfig:
    """Tunables for one engine instance.

    Parameters
    ----------
    n_ranks:
        Number of simulated MPI ranks.
    dynamic_join:
        Enable Algorithm 1's per-iteration outer/inner vote (§IV-D).
    vote_abstain_empty:
        Extension: ranks holding neither relation abstain from the vote
        instead of casting the paper's tie-vote for the right side (which
        can elect the larger relation on sparse/tiny inputs).  Set False
        for the strict Algorithm 1.
    static_outer:
        Layout used when ``dynamic_join`` is off: which body atom is
        serialized and transmitted.  The paper's baseline "mistakenly
        placed [edges] on the left side" — i.e. transmitted the large
        static relation — so Fig. 2's baseline uses the side holding it.
    subbuckets:
        Per-relation spatial load-balancing factor (§IV-C); the paper's
        default for input relations is 8.  Unlisted relations use
        ``default_subbuckets``.
    cost_model:
        Interconnect + compute cost model for modeled time.
    max_iterations:
        Safety bound on fixpoint length.
    seed:
        Seed for all hashing/placement; fixed seed = bit-reproducible runs.
    tracer:
        Observability sink (:class:`repro.obs.tracer.Tracer`).  When set,
        the engine emits nested spans for every pipeline phase, iteration
        and stratum boundary, per-rank compute/comm lane entries, and a
        metrics registry — exportable via :mod:`repro.obs.export`.  None
        (the default) uses the zero-overhead no-op tracer.
    """

    n_ranks: int = 4
    dynamic_join: bool = True
    vote_abstain_empty: bool = True
    static_outer: Literal["left", "right"] = "left"
    subbuckets: Dict[str, int] = field(default_factory=dict)
    default_subbuckets: int = 1
    #: When set, run() adaptively sub-buckets every loaded EDB relation
    #: until its projected max/mean imbalance is at or below this value
    #: (the paper §IV-C's "if ... still imbalanced" rule); None disables.
    auto_balance: Optional[float] = None
    cost_model: Optional[CostModel] = None
    max_iterations: int = 1_000_000
    seed: int = 0xC0FFEE
    #: Failure injection: shuffle every collective's delivery buffer with
    #: this seed (models nondeterministic network arrival order; results
    #: must be unchanged).  None = deterministic delivery.
    reorder_messages_seed: Optional[int] = None
    tracer: Optional[Tracer] = None
    #: Performance diagnostics (:mod:`repro.obs.analysis`): capture one
    #: rank×rank communication matrix per exchange and surface it on
    #: ``FixpointResult.comm_profile``.  Observation only — results and
    #: ledger totals are bit-identical with the flag on or off; when a
    #: tracer is also active, the matrices ride along in the trace as
    #: ``comm_matrix`` instant spans for offline ``trace-report``.
    diagnostics: bool = False
    #: Fault schedule (:class:`repro.faults.FaultConfig`): rank crash,
    #: message drop/dup/corrupt, stragglers.  None = perfect network with
    #: zero fault-plane overhead (modeled ledger totals unchanged).
    faults: Optional[FaultConfig] = None
    #: Take a coordinated checkpoint of every recursive stratum's state
    #: every K iterations (plus one before the seed pass); required to
    #: survive an injected rank crash.  None = no checkpoints.
    checkpoint_every: Optional[int] = None
    #: Checkpoint replication factor (PR 9): mirror each rank's stratum
    #: snapshot to this many buddy ranks at capture time (charged through
    #: the cost model).  Required (>= 1) to survive a *permanent* rank
    #: loss (``crash_perm=R@S``): the dead rank's state is restored from
    #: a surviving buddy and its buckets re-owned onto the survivors.
    #: 0 = no replication — a permanent loss then fails loudly with
    #: :class:`repro.faults.UnrecoverableRankLoss`.
    replicas: int = 0
    #: Wire-optimization layer under the route exchange: the sender
    #: fold, the ``delta`` codec and the α–β collective autotune,
    #: together.  ``False`` reproduces the pre-wire engine bit-for-bit
    #: (results AND ledger).  With the layer on, fixpoint results, Δ
    #: contents and iteration counts are unchanged — only modeled
    #: bytes/seconds move (that is the optimization).
    wire: bool = True
    #: Online adaptive spatial rebalancing (PR 8): every
    #: ``rebalance_every`` iterations of a recursive stratum, consult the
    #: skew doctor's bucket-skew measurement per relation and, past the
    #: trigger, grow the offending relation's sub-bucket count
    #: mid-fixpoint via an intra-bucket redistribution exchange.  Results,
    #: Δ trajectories and iteration counts are bit-identical to a static
    #: run; only placement (and hence modeled time) moves.
    rebalance: bool = False
    #: Check the trigger every K iterations (per recursive stratum).
    rebalance_every: int = 4
    #: Top-bucket share of a relation's tuples that arms the trigger
    #: (matches the skew doctor's ``top_bucket_threshold``).
    rebalance_threshold: float = 0.25
    #: Projected per-rank overload (top_share × n_ranks / n_subbuckets)
    #: below which the current fan-out is considered sufficient — this is
    #: what makes repeated doubling self-extinguishing.
    rebalance_factor: float = 2.0
    #: Hard cap on any relation's online sub-bucket count.
    rebalance_max_subbuckets: int = 64
    #: Relations smaller than this never rebalance (migration would cost
    #: more than the imbalance).
    rebalance_min_tuples: int = 64
    #: Record an order-independent per-relation Δ fingerprint in every
    #: IterationTrace (xor of row hashes) — the test plane's evidence
    #: that Δ *trajectories*, not just final results, are identical
    #: with rebalance on and off.  Off by default: it costs
    #: one hash pass over Δ per iteration.
    delta_fingerprints: bool = False

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {self.n_ranks}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.static_outer not in ("left", "right"):
            raise ValueError(
                f"static_outer must be 'left' or 'right', got {self.static_outer!r}"
            )
        for name, n in self.subbuckets.items():
            if n < 1:
                raise ValueError(f"subbuckets[{name!r}] must be >= 1, got {n}")
        if self.default_subbuckets < 1:
            raise ValueError(
                f"default_subbuckets must be >= 1, got {self.default_subbuckets}"
            )
        if self.auto_balance is not None and self.auto_balance < 1.0:
            raise ValueError(
                f"auto_balance tolerance must be >= 1.0, got {self.auto_balance}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if not 0 <= self.replicas < self.n_ranks:
            raise ValueError(
                f"replicas must be in [0, n_ranks), got {self.replicas} "
                f"for {self.n_ranks} ranks"
            )
        if not isinstance(self.wire, bool):
            raise ValueError(f"wire must be a bool, got {type(self.wire).__name__}")
        if self.rebalance_every < 1:
            raise ValueError(
                f"rebalance_every must be >= 1, got {self.rebalance_every}"
            )
        if not 0.0 <= self.rebalance_threshold <= 1.0:
            raise ValueError(
                f"rebalance_threshold must be in [0, 1], "
                f"got {self.rebalance_threshold}"
            )
        if self.rebalance_factor < 0.0:
            raise ValueError(
                f"rebalance_factor must be >= 0, got {self.rebalance_factor}"
            )
        if self.rebalance_max_subbuckets < 1:
            raise ValueError(
                f"rebalance_max_subbuckets must be >= 1, "
                f"got {self.rebalance_max_subbuckets}"
            )
        if self.rebalance_min_tuples < 0:
            raise ValueError(
                f"rebalance_min_tuples must be >= 0, "
                f"got {self.rebalance_min_tuples}"
            )
