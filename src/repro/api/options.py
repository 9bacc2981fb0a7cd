"""Typed option groups and centralized cross-field validation.

:class:`Options` is the structured twin of the flat
:class:`~repro.runtime.config.EngineConfig`: related knobs live together
in small dataclasses (:class:`FaultOptions`, :class:`RecoveryOptions`,
:class:`RebalanceOptions`, :class:`DiagnosticsOptions`) beside the
top-level ``wire`` switch, and every *cross-field* rule — the kind
that used to be scattered across CLI handlers and mid-run failures — is
enforced in one place, :meth:`Options.validate`, with error messages
that name the Options field (and the CLI flag that sets it).

Per-field range checks stay where the value lives
(``EngineConfig.__post_init__`` and friends); this module owns only the
rules that couple *different* fields:

* every rank a fault schedule names must exist at ``n_ranks``
  (:meth:`~repro.faults.FaultConfig.check_ranks`, also run by the fault
  plane itself);
* a transient crash schedule requires checkpoints to recover from;
* a permanent rank loss additionally requires checkpoint replication;
* checkpoint replication without checkpoints is a silent no-op — rejected;
* transient and permanent crash schedules are mutually exclusive
  (enforced at :class:`~repro.faults.FaultConfig` construction, asserted
  again here);
* an enabled rebalancer whose ``max_subbuckets`` cap is at or below the
  static sub-bucket fan-out can never grow anything — a silent no-op,
  rejected.

Conversions are lossless both ways: ``Options ⇄ EngineConfig`` round-trips
every field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Literal, Optional

from repro.comm.costmodel import CostModel
from repro.faults.config import FaultConfig
from repro.obs.tracer import Tracer
from repro.runtime.config import EngineConfig


class OptionsError(ValueError):
    """A cross-field Options combination that cannot run correctly."""


@dataclass
class FaultOptions:
    """Fault injection under the comm substrate.

    ``config`` is the declarative :class:`~repro.faults.FaultConfig`
    schedule (crash, drop/dup/corrupt, stragglers); None injects
    nothing.  ``spec`` parses the CLI's compact mini-language instead —
    set one or the other, not both.
    """

    config: Optional[FaultConfig] = None
    spec: Optional[str] = None

    def resolve(self) -> Optional[FaultConfig]:
        """The effective schedule (parsing ``spec`` if given)."""
        if self.config is not None and self.spec is not None:
            raise OptionsError(
                "FaultOptions.config and FaultOptions.spec are alternatives "
                "— pass the parsed FaultConfig or the spec string, not both"
            )
        if self.spec is not None:
            from repro.faults.config import parse_fault_spec

            return parse_fault_spec(self.spec)
        return self.config


@dataclass
class RecoveryOptions:
    """Checkpointing and checkpoint replication.

    ``checkpoint_every`` snapshots every recursive stratum each K
    iterations (plus one before the seed pass); ``replicas`` mirrors
    each rank's snapshot to that many buddies — the prerequisite for
    surviving a *permanent* rank loss.
    """

    checkpoint_every: Optional[int] = None
    replicas: int = 0


@dataclass
class RebalanceOptions:
    """Online adaptive spatial rebalancing (results bit-identical)."""

    enabled: bool = False
    every: int = 4
    threshold: float = 0.25
    factor: float = 2.0
    max_subbuckets: int = 64
    min_tuples: int = 64


@dataclass
class DiagnosticsOptions:
    """Observation-only instrumentation (results never change)."""

    #: Capture rank×rank comm matrices and enable the skew doctor /
    #: critical-path attribution on the result.
    enabled: bool = False
    #: Span/metrics sink; None = the zero-overhead no-op tracer.
    tracer: Optional[Tracer] = None
    #: Order-independent per-iteration Δ fingerprints (test plane).
    delta_fingerprints: bool = False


@dataclass
class Options:
    """Everything a :class:`~repro.api.Session` needs, grouped and checked.

    Top-level fields are the engine's core shape (ranks, placement,
    join planning); each subsystem hangs off its own group.
    :meth:`validate` centralizes the cross-field rules and runs
    automatically inside :meth:`to_engine_config`.
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
    #: The wire layer (sender fold, ``delta`` codec, collective
    #: autotune); see :attr:`EngineConfig.wire`.
    wire: bool = True
    faults: FaultOptions = field(default_factory=FaultOptions)
    recovery: RecoveryOptions = field(default_factory=RecoveryOptions)
    rebalance: RebalanceOptions = field(default_factory=RebalanceOptions)
    diagnostics: DiagnosticsOptions = field(default_factory=DiagnosticsOptions)

    # ---------------------------------------------------------- validation

    def validate(self) -> None:
        """Check every cross-field rule; raise :class:`OptionsError`.

        Single-field range checks live with the field
        (``EngineConfig.__post_init__``, ``FaultConfig.__post_init__``);
        this method owns the rules that couple different option groups.
        """
        faults = self.faults.resolve()
        if faults is not None:
            try:
                faults.check_ranks(self.n_ranks)
            except ValueError as exc:
                raise OptionsError(f"bad --faults spec: {exc}") from None
            # Mutual exclusivity is structural in FaultConfig — a config
            # carrying both schedules cannot be constructed.  Assert the
            # invariant here so the rule is visible at the API layer too.
            assert not (
                faults.crash_rank is not None
                and faults.crash_perm_rank is not None
            ), "FaultConfig admitted both crash and crash_perm"
            if faults.has_crash and self.recovery.checkpoint_every is None:
                raise OptionsError(
                    "FaultOptions inject a rank crash but "
                    "RecoveryOptions.checkpoint_every is unset; checkpoints "
                    "are required to recover (--checkpoint-every K)"
                )
            if faults.has_permanent_crash and self.recovery.replicas < 1:
                raise OptionsError(
                    "FaultOptions inject a permanent rank loss (crash_perm) "
                    "but RecoveryOptions.replicas is 0; a surviving buddy "
                    "must hold the dead rank's checkpoint — set replicas "
                    ">= 1 (--replicas N)"
                )
        if self.recovery.replicas > 0 and self.recovery.checkpoint_every is None:
            raise OptionsError(
                "RecoveryOptions.replicas > 0 replicates checkpoints, but "
                "RecoveryOptions.checkpoint_every is unset so none are ever "
                "taken; set checkpoint_every (--checkpoint-every K) or drop "
                "the replicas"
            )
        if self.rebalance.enabled:
            static_fanout = max(
                [self.default_subbuckets, *self.subbuckets.values()]
            )
            if self.rebalance.max_subbuckets <= static_fanout:
                raise OptionsError(
                    "RebalanceOptions.max_subbuckets "
                    f"({self.rebalance.max_subbuckets}) is at or below the "
                    f"static sub-bucket fan-out ({static_fanout}) from "
                    "Options.subbuckets/default_subbuckets (--subbuckets), so "
                    "the enabled rebalancer can never grow any relation — a "
                    "silent no-op; raise max_subbuckets, lower the static "
                    "fan-out, or drop --rebalance"
                )

    # --------------------------------------------------------- conversions

    def to_engine_config(self) -> EngineConfig:
        """Lower to the flat :class:`EngineConfig` (validating first)."""
        self.validate()
        return EngineConfig(
            n_ranks=self.n_ranks,
            dynamic_join=self.dynamic_join,
            vote_abstain_empty=self.vote_abstain_empty,
            static_outer=self.static_outer,
            subbuckets=dict(self.subbuckets),
            default_subbuckets=self.default_subbuckets,
            auto_balance=self.auto_balance,
            cost_model=self.cost_model,
            max_iterations=self.max_iterations,
            seed=self.seed,
            reorder_messages_seed=self.reorder_messages_seed,
            tracer=self.diagnostics.tracer,
            diagnostics=self.diagnostics.enabled,
            faults=self.faults.resolve(),
            checkpoint_every=self.recovery.checkpoint_every,
            replicas=self.recovery.replicas,
            wire=self.wire,
            rebalance=self.rebalance.enabled,
            rebalance_every=self.rebalance.every,
            rebalance_threshold=self.rebalance.threshold,
            rebalance_factor=self.rebalance.factor,
            rebalance_max_subbuckets=self.rebalance.max_subbuckets,
            rebalance_min_tuples=self.rebalance.min_tuples,
            delta_fingerprints=self.diagnostics.delta_fingerprints,
        )

    @classmethod
    def from_engine_config(cls, config: EngineConfig) -> "Options":
        """Lift a flat :class:`EngineConfig` into grouped options."""
        return cls(
            n_ranks=config.n_ranks,
            seed=config.seed,
            max_iterations=config.max_iterations,
            dynamic_join=config.dynamic_join,
            vote_abstain_empty=config.vote_abstain_empty,
            static_outer=config.static_outer,
            subbuckets=dict(config.subbuckets),
            default_subbuckets=config.default_subbuckets,
            auto_balance=config.auto_balance,
            cost_model=config.cost_model,
            reorder_messages_seed=config.reorder_messages_seed,
            wire=config.wire,
            faults=FaultOptions(config=config.faults),
            recovery=RecoveryOptions(
                checkpoint_every=config.checkpoint_every,
                replicas=config.replicas,
            ),
            rebalance=RebalanceOptions(
                enabled=config.rebalance,
                every=config.rebalance_every,
                threshold=config.rebalance_threshold,
                factor=config.rebalance_factor,
                max_subbuckets=config.rebalance_max_subbuckets,
                min_tuples=config.rebalance_min_tuples,
            ),
            diagnostics=DiagnosticsOptions(
                enabled=config.diagnostics,
                tracer=config.tracer,
                delta_fingerprints=config.delta_fingerprints,
            ),
        )
