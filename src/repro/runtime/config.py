"""Engine configuration: one typed dataclass, every default written once.

The paper's RQ1 ablation (Fig. 2) compares a *baseline* — no dynamic join
planning, no spatial load balancing — against the *optimized* engine.
Both are the same code here; only this config differs:

>>> baseline  = EngineConfig(n_ranks=256, dynamic_join=False, default_subbuckets=1)
>>> optimized = EngineConfig(n_ranks=256, dynamic_join=True,
...                          subbuckets={"edge": 8})

Top-level fields are the engine's core shape (ranks, placement, join
planning, the wire switch); each subsystem hangs off its own group:
:class:`FaultOptions`, :class:`RecoveryOptions` and
:class:`DiagnosticsOptions`:

>>> crash_replay = EngineConfig(n_ranks=16, faults=FaultOptions(spec="crash=3@40"),
...                             recovery=RecoveryOptions(checkpoint_every=8))

:meth:`EngineConfig.validate` is the one place a value or a combination
is rejected.  Construction runs it, and so does ``Engine.__init__``, so
every driver (BSP, ``Session``, the per-rank slices) applies the same
rules, even to a config mutated after it was built.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Dict, Literal, Optional

from repro.comm.costmodel import CostModel
from repro.faults.config import FaultConfig, parse_fault_spec
from repro.obs.tracer import Tracer


class OptionsError(ValueError):
    """A config that cannot run correctly: a combination of fields, or a
    fault spec that does not parse or names a rank the world lacks."""


@dataclass
class FaultOptions:
    """Fault injection under the comm substrate.

    ``config`` is the declarative :class:`~repro.faults.FaultConfig`
    schedule (crash, drop/dup/corrupt, stragglers); None is a perfect
    network with zero fault-plane overhead.  ``spec`` takes the CLI's
    compact mini-language instead, parsed here once into ``config`` —
    pass one or the other, not both.
    """

    config: Optional[FaultConfig] = None
    spec: InitVar[Optional[str]] = None

    def __post_init__(self, spec: Optional[str]) -> None:
        if spec is None:
            return
        if self.config is not None:
            raise OptionsError(
                "FaultOptions.config and FaultOptions.spec are alternatives "
                "— pass the parsed FaultConfig or the spec string, not both"
            )
        try:
            self.config = parse_fault_spec(spec)
        except ValueError as exc:
            raise OptionsError(f"bad --faults spec: {exc}") from None


@dataclass
class RecoveryOptions:
    """Checkpointing and checkpoint replication."""

    #: Take a coordinated checkpoint of every recursive stratum's state
    #: every K iterations (plus one before the seed pass); required to
    #: survive an injected rank crash.  None = no checkpoints.
    checkpoint_every: Optional[int] = None
    #: Mirror each rank's stratum snapshot to this many buddy ranks at
    #: capture time (charged through the cost model).  Required (>= 1) to
    #: survive a *permanent* rank loss (``crash_perm=R@S``): the dead
    #: rank's state is restored from a surviving buddy and its buckets
    #: re-owned onto the survivors.
    replicas: int = 0


@dataclass
class DiagnosticsOptions:
    """Observation-only instrumentation: results and ledger totals are
    bit-identical with any of it on or off."""

    #: Capture one rank×rank communication matrix per exchange and
    #: surface it on ``FixpointResult.comm_profile`` (the skew doctor and
    #: critical-path attribution read it); with a tracer, the matrices
    #: ride along in the trace as ``comm_matrix`` instant spans.
    enabled: bool = False
    #: Span/metrics sink (:class:`repro.obs.tracer.Tracer`): nested spans
    #: for every phase, iteration and stratum, per-rank lane entries and a
    #: metrics registry.  None = the zero-overhead no-op tracer.
    tracer: Optional[Tracer] = None
    #: Record an order-independent per-relation Δ fingerprint in every
    #: IterationTrace (xor of row hashes) — the evidence that Δ
    #: *trajectories*, not just final results, are identical across
    #: configurations.  Costs one hash pass over Δ per iteration.
    delta_fingerprints: bool = False


@dataclass
class EngineConfig:
    """Tunables for one engine instance.

    Parameters
    ----------
    n_ranks:
        Number of simulated MPI ranks.
    seed:
        Seed for all hashing/placement; fixed seed = bit-reproducible runs.
    max_iterations:
        Safety bound on fixpoint length.
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
    auto_balance:
        When set, ``run()`` adaptively sub-buckets every loaded EDB
        relation, once before the first stratum, until its projected
        max/mean imbalance is at or below this value (§IV-C's "if ...
        still imbalanced" rule); it never shrinks a relation's count.
        It is the one relation-wide resize.
    cost_model:
        Interconnect + compute cost model for modeled time.
    reorder_messages_seed:
        Shuffle every collective's delivery buffer with this seed (models
        nondeterministic arrival order; results must be unchanged).
    wire:
        The wire-optimization layer under the route exchange: the sender
        fold, the ``delta`` codec and the α–β collective autotune,
        together.  ``False`` reproduces the pre-wire engine bit-for-bit
        (results AND ledger); with it on, only modeled bytes/seconds move.
    """

    n_ranks: int = 4
    seed: int = 0xC0FFEE
    max_iterations: int = 1_000_000
    dynamic_join: bool = True
    vote_abstain_empty: bool = True
    static_outer: Literal["left", "right"] = "left"
    subbuckets: Dict[str, int] = field(default_factory=dict)
    default_subbuckets: int = 1
    auto_balance: Optional[float] = None
    cost_model: Optional[CostModel] = None
    reorder_messages_seed: Optional[int] = None
    wire: bool = True
    faults: FaultOptions = field(default_factory=FaultOptions)
    recovery: RecoveryOptions = field(default_factory=RecoveryOptions)
    diagnostics: DiagnosticsOptions = field(default_factory=DiagnosticsOptions)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check every field, then every combination of fields.

        A value out of range raises :class:`ValueError` opening with the
        field's path (``recovery.replicas must be in [0, n_ranks)``); a combination
        that cannot run correctly raises :class:`OptionsError` naming the
        fields and the CLI flags that set them:

        * every rank a fault schedule names must exist at ``n_ranks``
          (:meth:`~repro.faults.FaultConfig.check_ranks`, also run by the
          fault plane itself);
        * a crash schedule requires checkpoints to recover from;
        * a permanent rank loss additionally requires replication;
        * replication without checkpoints is a silent no-op.
        """
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
        if not isinstance(self.wire, bool):
            raise ValueError(f"wire must be a bool, got {type(self.wire).__name__}")
        recovery = self.recovery
        if recovery.checkpoint_every is not None and recovery.checkpoint_every < 1:
            raise ValueError(
                "recovery.checkpoint_every must be >= 1, "
                f"got {recovery.checkpoint_every}"
            )
        if not 0 <= recovery.replicas < self.n_ranks:
            raise ValueError(
                f"recovery.replicas must be in [0, n_ranks), got "
                f"{recovery.replicas} for {self.n_ranks} ranks"
            )

        faults = self.faults.config
        if faults is not None:
            try:
                faults.check_ranks(self.n_ranks)
            except ValueError as exc:
                raise OptionsError(f"bad --faults spec: {exc}") from None
            if faults.has_crash and recovery.checkpoint_every is None:
                raise OptionsError(
                    "FaultOptions inject a rank crash but "
                    "RecoveryOptions.checkpoint_every is unset; checkpoints "
                    "are required to recover (--checkpoint-every K)"
                )
            if faults.has_permanent_crash and recovery.replicas < 1:
                raise OptionsError(
                    "FaultOptions inject a permanent rank loss (crash_perm) "
                    "but RecoveryOptions.replicas is 0; a surviving buddy "
                    "must hold the dead rank's checkpoint — set replicas "
                    ">= 1 (--replicas N)"
                )
        if recovery.replicas > 0 and recovery.checkpoint_every is None:
            raise OptionsError(
                "RecoveryOptions.replicas > 0 replicates checkpoints, but "
                "RecoveryOptions.checkpoint_every is unset so none are ever "
                "taken; set checkpoint_every (--checkpoint-every K) or drop "
                "the replicas"
            )

    def to_engine_config(self) -> "EngineConfig":
        """This config, validated.  Kept only because ``bench/driver.py``
        calls it; re-pointing that adapter (ROADMAP item 2) deletes it."""
        self.validate()
        return self
