"""Fault-injection configuration.

:class:`FaultConfig` is the single declarative description of everything
the fault plane may do to a run: crash one rank at a chosen superstep,
drop / duplicate / corrupt messages with per-edge probabilities, and slow
down straggler ranks.  It is deliberately *data only* — the decisions
themselves live in :class:`repro.faults.plane.FaultPlane`, which derives
every per-message coin flip deterministically from ``seed`` so that a
faulty schedule replays bit-for-bit.

:func:`parse_fault_spec` turns the CLI's compact ``--faults`` string into
a config, e.g.::

    crash=1@12,drop=0.01,dup=0.02,corrupt=0.005,straggle=2:4,seed=7

A config does not know the world it will run in, so the ranks it names
are checked against one in one place, :meth:`FaultConfig.check_ranks`,
called by the fault plane and by ``EngineConfig.validate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Set, Tuple

import numpy as np

#: (drop, duplicate, corrupt) probabilities for one directed rank edge.
EdgeRates = Tuple[float, float, float]


@dataclass(frozen=True)
class FaultConfig:
    """Declarative fault schedule for one run.

    Parameters
    ----------
    seed:
        Root of every injection decision.  Two runs with the same config,
        program and input see *identical* faults.
    drop, dup, corrupt:
        Global per-message probabilities of losing, duplicating or
        bit-flipping a payload on the wire.  All default to 0.
    per_edge:
        ``(src, dst) -> (drop, dup, corrupt)`` overrides for specific
        directed rank pairs (models a single flaky link).
    crash_rank, crash_superstep:
        Kill ``crash_rank`` at the first collective whose superstep index
        is ``>= crash_superstep``.  The crash fires exactly once; after
        recovery the replacement rank ("restart with spare") is healthy.
    crash_perm_rank, crash_perm_superstep:
        Like ``crash_rank``/``crash_superstep`` but the loss is
        *permanent*: no spare exists, so recovery must re-own the dead
        rank's buckets onto the survivors and restore its state from a
        checkpoint replica (requires ``EngineConfig.recovery.replicas >= 1``).
        Mutually exclusive with the transient crash pair.
    stragglers:
        ``rank -> slowdown factor`` (>= 1): that rank's compute charges
        are scaled by the factor, stretching every superstep it is the
        max of (modeled time only; results are unaffected).
    max_retries:
        The one retry budget: retransmission rounds allowed for a message
        whose every copy was dropped or failed its checksum (exhaustion
        raises :class:`repro.faults.plane.MessageLossError`), and replays
        of an update's seed exchange after a transient crash.

    Whenever a message fault can fire, the engine also audits every
    aggregate head for lattice monotonicity after each absorb (defense
    in depth against corruption that slips past the checksum).
    """

    seed: int = 0xFA017
    drop: float = 0.0
    dup: float = 0.0
    corrupt: float = 0.0
    per_edge: Mapping[Tuple[int, int], EdgeRates] = field(default_factory=dict)
    crash_rank: Optional[int] = None
    crash_superstep: Optional[int] = None
    crash_perm_rank: Optional[int] = None
    crash_perm_superstep: Optional[int] = None
    stragglers: Mapping[int, float] = field(default_factory=dict)
    max_retries: int = 3

    def __post_init__(self) -> None:
        for name in ("drop", "dup", "corrupt"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {p}")
        for edge, rates in self.per_edge.items():
            if len(rates) != 3 or any(not 0.0 <= p < 1.0 for p in rates):
                raise ValueError(
                    f"per_edge[{edge}] must be (drop, dup, corrupt) in [0, 1), "
                    f"got {rates}"
                )
        for prefix in ("crash", "crash_perm"):
            rank = getattr(self, f"{prefix}_rank")
            step = getattr(self, f"{prefix}_superstep")
            if (rank is None) != (step is None):
                raise ValueError(
                    f"{prefix}_rank and {prefix}_superstep must be set together"
                )
            if rank is not None and rank < 0:
                raise ValueError(f"{prefix}_rank must be >= 0, got {rank}")
            if step is not None and step < 0:
                raise ValueError(f"{prefix}_superstep must be >= 0, got {step}")
        if self.crash_rank is not None and self.crash_perm_rank is not None:
            raise ValueError(
                "crash and crash_perm are mutually exclusive — one run injects "
                "either a transient crash (spare rejoins) or a permanent loss"
            )
        for rank, factor in self.stragglers.items():
            if rank < 0:
                raise ValueError(f"straggler rank must be >= 0, got {rank}")
            if factor < 1.0:
                raise ValueError(
                    f"straggler factor must be >= 1.0, got {factor} for rank {rank}"
                )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    def check_ranks(self, n_ranks: int) -> None:
        """Raise :class:`ValueError` unless every rank the schedule names
        (``crash``, ``crash_perm``, ``straggle``, both ends of an
        ``edge``) is one of ``n_ranks``, and no ``edge`` is a self-edge —
        self-sends never touch the wire, so its rates could never fire."""
        named = [("crash", self.crash_rank), ("crash_perm", self.crash_perm_rank)]
        named += [("straggle", rank) for rank in self.stragglers]
        named += [("edge", rank) for edge in self.per_edge for rank in edge]
        for key, rank in named:
            if rank is not None and not 0 <= rank < n_ranks:
                raise ValueError(
                    f"{key} rank {rank} out of range for {n_ranks} ranks"
                )
        for src, dst in self.per_edge:
            if src == dst:
                raise ValueError(
                    f"edge {src}>{dst} is a self-edge; self-sends never "
                    "touch the wire, so it could never fire"
                )

    # -------------------------------------------------------------- queries

    @property
    def has_crash(self) -> bool:
        return self.crash_rank is not None or self.crash_perm_rank is not None

    @property
    def has_permanent_crash(self) -> bool:
        return self.crash_perm_rank is not None

    @property
    def has_message_faults(self) -> bool:
        """True when any message-level fault (drop/dup/corrupt) can fire."""
        return (
            self.drop > 0.0
            or self.dup > 0.0
            or self.corrupt > 0.0
            or bool(self.per_edge)
        )

    def rates_for(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Effective (drop, dup, corrupt), one row per directed rank edge
        ``src[i] -> dst[i]``: its ``per_edge`` override, else the global
        rates."""
        rates = np.tile(np.asarray([self.drop, self.dup, self.corrupt]), (src.shape[0], 1))
        for (s, d), edge in self.per_edge.items():
            rates[(src == s) & (dst == d)] = edge
        return rates


def parse_fault_spec(spec: str) -> FaultConfig:
    """Parse the CLI ``--faults`` mini-language into a :class:`FaultConfig`.

    Comma-separated ``key=value`` entries:

    * ``crash=R@S`` — kill rank ``R`` at superstep ``S`` (a spare rejoins);
    * ``crash_perm=R@S`` — rank ``R`` dies *permanently* at superstep
      ``S`` (recovery re-owns its buckets; needs ``--replicas >= 1``);
    * ``drop=P`` / ``dup=P`` / ``corrupt=P`` — global probabilities;
    * ``edge=SRC>DST:PDROP:PDUP:PCORRUPT`` — per-edge override
      (repeatable via ``/``: ``edge=0>1:0.5:0:0/1>0:0.1:0:0``);
    * ``straggle=R:F`` — rank ``R`` runs ``F``× slower
      (repeatable via ``/``: ``straggle=2:4/5:1.5``);
    * ``seed=N``, ``retries=N`` — plane seed and retransmission bound.

    Each key may appear at most once, and probabilities must lie in
    ``[0, 1)`` — both violations raise :class:`ValueError` rather than
    silently keeping the last (or an impossible) value.
    """
    cfg: Dict[str, object] = {}
    per_edge: Dict[Tuple[int, int], EdgeRates] = {}
    stragglers: Dict[int, float] = {}
    seen: Set[str] = set()

    def _prob(key: str, text: str) -> float:
        p = float(text)
        if not 0.0 <= p < 1.0:
            raise ValueError(
                f"--faults {key}={text}: probability must be in [0, 1)"
            )
        return p

    for raw in spec.split(","):
        entry = raw.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise ValueError(f"bad --faults entry {entry!r} (expected key=value)")
        key, _, value = entry.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ValueError(
                f"duplicate --faults key {key!r} (each key may appear once)"
            )
        seen.add(key)
        if key in ("crash", "crash_perm"):
            rank_s, _, step_s = value.partition("@")
            if not step_s:
                raise ValueError(
                    f"bad {key} spec {value!r} (expected RANK@SUPERSTEP)"
                )
            prefix = "crash_perm" if key == "crash_perm" else "crash"
            cfg[f"{prefix}_rank"] = int(rank_s)
            cfg[f"{prefix}_superstep"] = int(step_s)
        elif key in ("drop", "dup", "corrupt"):
            cfg[key] = _prob(key, value)
        elif key == "edge":
            for part in value.split("/"):
                head, *rates = part.split(":")
                src_s, _, dst_s = head.partition(">")
                if not dst_s or len(rates) != 3:
                    raise ValueError(
                        f"bad edge spec {part!r} "
                        "(expected SRC>DST:PDROP:PDUP:PCORRUPT)"
                    )
                edge = (int(src_s), int(dst_s))
                if edge in per_edge:
                    raise ValueError(
                        f"duplicate --faults edge {edge[0]}>{edge[1]} "
                        "(each directed edge may appear once)"
                    )
                per_edge[edge] = (
                    _prob("edge", rates[0]),
                    _prob("edge", rates[1]),
                    _prob("edge", rates[2]),
                )
        elif key == "straggle":
            for part in value.split("/"):
                rank_s, _, factor_s = part.partition(":")
                if not factor_s:
                    raise ValueError(
                        f"bad straggle spec {part!r} (expected RANK:FACTOR)"
                    )
                rank = int(rank_s)
                if rank in stragglers:
                    raise ValueError(
                        f"duplicate --faults straggler rank {rank} "
                        "(each rank may appear once)"
                    )
                stragglers[rank] = float(factor_s)
        elif key == "seed":
            cfg["seed"] = int(value, 0)
        elif key == "retries":
            cfg["max_retries"] = int(value)
        else:
            raise ValueError(f"unknown --faults key {key!r}")
    if per_edge:
        cfg["per_edge"] = per_edge
    if stragglers:
        cfg["stragglers"] = stragglers
    return FaultConfig(**cfg)  # type: ignore[arg-type]
