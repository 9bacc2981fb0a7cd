"""The deterministic fault-injection plane.

One :class:`FaultPlane` instance sits under the comm substrate
(:class:`repro.comm.simcluster.SimCluster`) and answers two questions:

* *Is anyone dead?* — the plane counts collective **supersteps**; when
  the configured crash superstep is reached, the victim rank enters
  :attr:`crashed` and every rendezvous raises :class:`RankFailure`
  instead of deadlocking.  The engine's recovery protocol calls
  :meth:`mark_restarted` once the rank's shard has been re-seeded from a
  checkpoint.
* *What happens to this message?* — :meth:`deliveries` plans the fate of
  one payload (delivered / dropped / duplicated / corrupted) from a RNG
  seeded purely by ``(config.seed, superstep, src, dst, attempt)``, so a
  replayed schedule re-draws exactly the same faults and recovery can be
  verified bit-for-bit against a fault-free run.

Checksums use CRC-32 over the pickled payload — the same integrity check
per-message CRCs give real interconnects — so any corruption the plane
injects is *detectable* by the receiver without reference to the sender.
"""

from __future__ import annotations

import pickle
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.faults.config import FaultConfig

#: Fixed odd multipliers for the seed mix (splitmix64-style), so the
#: per-message RNG stream is decoupled across (superstep, src, dst, attempt).
_MIX = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93)


class FaultError(RuntimeError):
    """Base class for everything the fault plane can surface."""


class RankFailure(FaultError):
    """A rank died; detected at a collective rendezvous.

    Carries enough context for the recovery protocol: which rank, at
    which superstep, and which collective detected it.
    """

    def __init__(self, rank: int, superstep: int, where: str):
        self.rank = rank
        self.superstep = superstep
        self.where = where
        super().__init__(
            f"rank {rank} failed (detected at {where}, superstep {superstep})"
        )


class PermanentRankFailure(RankFailure):
    """A rank is gone for good — no spare will rejoin.

    The failure detector escalates to this class when the configured
    crash is permanent (``crash_perm=R@S``) or when the retransmission
    budget toward a permanently-dead peer is exhausted.  Recovery must
    re-own the dead rank's buckets onto the survivors and restore its
    state from a checkpoint replica.
    """

    def __init__(self, rank: int, superstep: int, where: str):
        super().__init__(rank, superstep, where)
        # Re-render the message with the permanent classification.
        self.args = (
            f"rank {rank} permanently lost (detected at {where}, "
            f"superstep {superstep})",
        )


class UnrecoverableRankLoss(FaultError):
    """A permanent rank loss that recovery cannot survive.

    Raised (loudly, never silently wrong) when the dead rank's state has
    no surviving copy: either checkpoint replication was off
    (``replicas=0``) or every buddy holding a replica is itself dead.
    """

    def __init__(self, rank: int, superstep: int, reason: str):
        self.rank = rank
        self.superstep = superstep
        super().__init__(
            f"rank {rank} permanently lost at superstep {superstep} and its "
            f"state cannot be restored: {reason}"
        )


class MessageLossError(FaultError):
    """A message could not be delivered within the retransmission budget."""

    def __init__(self, src: int, dst: int, attempts: int):
        self.src = src
        self.dst = dst
        self.attempts = attempts
        super().__init__(
            f"message {src} -> {dst} undeliverable after {attempts} attempt(s) "
            "(drop/corruption exceeded the retry budget)"
        )


class CorruptionError(FaultError):
    """Corrupted data reached storage (checksum or invariant violation)."""


def payload_checksum(payload: Any) -> int:
    """CRC-32 of the canonically pickled payload (per-message integrity)."""
    return zlib.crc32(pickle.dumps(payload, protocol=4))


def classify_loss(plane: "FaultPlane", src: int, dst: int, attempt: int) -> FaultError:
    """The failure detector: classify retry-budget exhaustion.

    A flaky link toward a *live* peer is a
    :class:`MessageLossError`; exhaustion toward a *permanently dead*
    endpoint is how survivors detect the loss without a membership
    service — escalate to :class:`PermanentRankFailure` so recovery
    re-owns the dead rank instead of waiting for a spare.
    """
    for rank in (dst, src):
        if plane.is_permanent(rank):
            return plane.failure_for(
                rank, plane.superstep, f"retry budget exhausted toward rank {rank}"
            )
    return MessageLossError(src, dst, attempt)


# --------------------------------------------------------------- corruption


def _count_leaves(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return int(obj.size)
    if isinstance(obj, (tuple, list)):
        return sum(_count_leaves(x) for x in obj)
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return 1
    return 0


class _Mutator:
    """Copy a payload, flipping a bit in exactly one integer leaf."""

    def __init__(self, target: int, bit: int):
        self.remaining = target
        self.bit = bit
        self.hit = False

    def visit(self, obj: Any) -> Any:
        if self.hit:
            return obj
        if isinstance(obj, np.ndarray):
            n = int(obj.size)
            if self.remaining < n:
                out = obj.copy()
                out.reshape(-1)[self.remaining] ^= np.int64(1) << self.bit
                self.hit = True
                return out
            self.remaining -= n
            return obj
        if isinstance(obj, (tuple, list)):
            items = [self.visit(x) for x in obj]
            return tuple(items) if isinstance(obj, tuple) else items
        if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
            if self.remaining == 0:
                self.hit = True
                return int(obj) ^ (1 << self.bit)
            self.remaining -= 1
            return obj
        return obj


def corrupt_payload(payload: Any, rng: random.Random) -> Any:
    """Return a copy of ``payload`` with one integer leaf bit-flipped.

    Models a wire-level bit flip in tuple data.  Payloads with no integer
    leaves (nothing to flip) are wrapped in a tagged envelope instead —
    the pickled form still differs, so the checksum still catches it.
    """
    n = _count_leaves(payload)
    if n == 0:
        return ["__corrupted__", payload]
    # Flip a bit low enough to keep values in a plausible range but high
    # enough that the flip always changes the leaf.
    mut = _Mutator(rng.randrange(n), rng.randrange(1, 20))
    out = mut.visit(payload)
    assert mut.hit, "corruption mutator failed to land"
    return out


# -------------------------------------------------------------- statistics


@dataclass
class InjectionStats:
    """What the plane actually did to a run (all counters monotone)."""

    supersteps: int = 0
    drops: int = 0
    dups: int = 0
    corruptions: int = 0
    crashes: int = 0
    permanent_crashes: int = 0
    #: Receiver-side detections and repairs (filled in by the substrate).
    detected_corruptions: int = 0
    retransmits: int = 0
    retransmitted_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "supersteps": self.supersteps,
            "drops": self.drops,
            "dups": self.dups,
            "corruptions": self.corruptions,
            "crashes": self.crashes,
            "permanent_crashes": self.permanent_crashes,
            "detected_corruptions": self.detected_corruptions,
            "retransmits": self.retransmits,
            "retransmitted_bytes": self.retransmitted_bytes,
        }


#: One planned delivery: the (possibly corrupted) payload plus whether it
#: left the sender intact.
Delivery = Tuple[Any, bool]


class FaultPlane:
    """Deterministic, seeded fault injector for one simulated run."""

    def __init__(self, config: FaultConfig, n_ranks: int):
        config.check_ranks(n_ranks)
        self.config = config
        self.n_ranks = n_ranks
        self.superstep = 0
        self.crashed: set[int] = set()
        #: Ranks permanently lost (never rejoin; see :meth:`is_permanent`).
        self.permanent: set[int] = set()
        #: Permanently-lost ranks whose state recovery already re-owned:
        #: rendezvous no longer raise for them, but they stay dead.
        self.excluded: set[int] = set()
        self._crash_fired = False
        self.stats = InjectionStats()

    # ------------------------------------------------------------- failures

    def begin_superstep(self, kind: str) -> int:
        """Advance the collective clock; returns the step just entered."""
        step = self.superstep
        self.superstep += 1
        self.stats.supersteps += 1
        return step

    def crash_due(self, step: int) -> Optional[int]:
        """Fire the configured crash if its superstep has arrived.

        Fires at most once per run: after the engine restarts the rank
        from a checkpoint, replayed supersteps do not re-kill it.
        """
        cfg = self.config
        if (
            not self._crash_fired
            and cfg.crash_rank is not None
            and step >= (cfg.crash_superstep or 0)
        ):
            self._crash_fired = True
            self.crashed.add(cfg.crash_rank)
            self.stats.crashes += 1
            return cfg.crash_rank
        if (
            not self._crash_fired
            and cfg.crash_perm_rank is not None
            and step >= (cfg.crash_perm_superstep or 0)
        ):
            self._crash_fired = True
            self.crashed.add(cfg.crash_perm_rank)
            self.permanent.add(cfg.crash_perm_rank)
            self.stats.crashes += 1
            self.stats.permanent_crashes += 1
            return cfg.crash_perm_rank
        return None

    def failed_rank(self) -> Optional[int]:
        """Some dead rank, if any (simulation kills at most one at a time)."""
        return next(iter(self.crashed)) if self.crashed else None

    def check_alive(self, step: int, where: str) -> None:
        """Raise a (possibly permanent) failure if a crash is outstanding."""
        rank = self.crash_due(step)
        if rank is None:
            rank = self.failed_rank()
        if rank is not None:
            raise self.failure_for(rank, step, where)

    def is_permanent(self, rank: int) -> bool:
        """True when ``rank`` is lost for good (no spare will rejoin)."""
        return rank in self.permanent

    def failure_for(self, rank: int, step: int, where: str) -> RankFailure:
        """Classify a detected failure: transient vs permanent."""
        if self.is_permanent(rank):
            return PermanentRankFailure(rank, step, where)
        return RankFailure(rank, step, where)

    def mark_restarted(self, rank: int) -> None:
        """Recovery replaced the dead rank; rendezvous are healthy again."""
        if rank in self.permanent:
            raise ValueError(
                f"rank {rank} is permanently lost — no spare rejoins; "
                "recovery must mark_excluded() it instead"
            )
        self.crashed.discard(rank)

    def mark_excluded(self, rank: int) -> None:
        """Recovery re-owned the permanently-dead rank's state.

        The rank stays dead, but rendezvous stop raising for it: the
        survivors continue the fixpoint on the shrunken world.
        """
        self.excluded.add(rank)
        self.crashed.discard(rank)

    # ------------------------------------------------------------- messages

    @property
    def has_message_faults(self) -> bool:
        return self.config.has_message_faults

    def _rng(self, step: int, src: int, dst: int, attempt: int) -> random.Random:
        mixed = self.config.seed & 0xFFFFFFFFFFFFFFFF
        for value, mult in zip((step, src, dst, attempt), _MIX):
            mixed = (mixed ^ ((value + 1) * mult)) & 0xFFFFFFFFFFFFFFFF
            mixed = (mixed * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF
        return random.Random(mixed)

    def deliveries(
        self, step: int, src: int, dst: int, payload: Any, attempt: int = 0
    ) -> List[Delivery]:
        """Plan the fate of one message on the wire.

        Returns the list of copies that arrive at ``dst``: zero (dropped),
        one, or two (duplicated); each copy is independently either the
        original payload (intact) or a corrupted mutation.  Deterministic
        in ``(seed, superstep, src, dst, attempt)``.
        """
        drop, dup, corrupt = self.config.rates_for(src, dst)
        if drop == 0.0 and dup == 0.0 and corrupt == 0.0:
            return [(payload, True)]
        rng = self._rng(step, src, dst, attempt)
        if drop and rng.random() < drop:
            self.stats.drops += 1
            return []
        copies = 1
        if dup and rng.random() < dup:
            self.stats.dups += 1
            copies = 2
        out: List[Delivery] = []
        for _ in range(copies):
            if corrupt and rng.random() < corrupt:
                self.stats.corruptions += 1
                out.append((corrupt_payload(payload, rng), False))
            else:
                out.append((payload, True))
        return out

    # ------------------------------------------------------------ stragglers

    def straggler_scale(self) -> Optional[np.ndarray]:
        """Per-rank compute multipliers, or None when no stragglers."""
        if not self.config.stragglers:
            return None
        scale = np.ones(self.n_ranks)
        for rank, factor in self.config.stragglers.items():
            scale[rank] = factor
        return scale
