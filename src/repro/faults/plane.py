"""The deterministic fault-injection plane.

One :class:`FaultPlane` instance sits under the comm substrate
(:class:`repro.comm.simcluster.SimCluster`) and answers two questions:

* *Is anyone dead?* — the plane counts collective **supersteps**; when
  the configured crash superstep is reached, the victim rank enters
  :attr:`crashed` and every rendezvous raises :class:`RankFailure`
  instead of deadlocking.  The engine's recovery protocol calls
  :meth:`mark_restarted` once the rank's shard has been re-seeded from a
  checkpoint.
* *What happens to these messages?* — :meth:`fates` draws, for every
  wire message of an exchange at once, how many copies arrive (dropped /
  delivered / duplicated) and how many of them arrive corrupted.  Each
  message's draws are a counter-based hash of
  ``(config.seed, superstep, src, dst, attempt)``, so a replayed schedule
  re-draws exactly the same faults and recovery can be verified
  bit-for-bit against a fault-free run.

A corrupted copy is one with one bit of its bytes flipped.  The
receiver's per-message CRC-32 — the integrity check real interconnects
run — detects every single-bit error, so the substrate rejects each
corrupted copy as detected without computing the checksum; the
sender's data is never touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.faults.config import FaultConfig

#: Fixed odd multipliers for the key mix (splitmix64-style), so each
#: message's draws are decoupled across (superstep, src, dst, attempt).
_MIX = tuple(np.uint64(m) for m in (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD6E8FEB86659FD93
))


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


def _splitmix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise over ``uint64`` (wrapping)."""
    x = (x ^ (x >> np.uint64(30))) * _MIX[1]
    x = (x ^ (x >> np.uint64(27))) * _MIX[2]
    return x ^ (x >> np.uint64(31))


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

    def fates(
        self, step: int, src: np.ndarray, dst: np.ndarray, rows: np.ndarray,
        attempt: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Plan the fate of every wire message of one exchange round.

        Message ``i`` goes from ``src[i]`` to ``dst[i]`` (never itself)
        carrying ``rows[i]`` rows.  Returns ``(copies, corrupted)``:
        ``copies[i]`` of it arrive at ``dst[i]``, 0 (dropped), 1 or 2
        (duplicated), and ``corrupted[i]`` of those arrive corrupted (a
        message without rows is never corrupted).  A message's draws hash
        ``(seed, step, src, dst, attempt)`` alone, so its fate does not
        depend on which other messages share the round.
        """
        cfg = self.config
        m = src.shape[0]
        rates = cfg.rates_for(src, dst)
        key = np.full(m, cfg.seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        for value, mult in zip((np.full(m, step), src, dst, np.full(m, attempt)), _MIX):
            key = _splitmix(key ^ (value.astype(np.uint64) + np.uint64(1)) * mult)
        # Four draws a message: drop, dup, and corrupt each copy.
        draws = _splitmix(key[:, None] + np.arange(1, 5, dtype=np.uint64) * _MIX[3])
        unit = (draws >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        dropped = unit[:, 0] < rates[:, 0]
        duped = ~dropped & (unit[:, 1] < rates[:, 1])
        copies = np.where(dropped, 0, 1 + duped.astype(np.int64))
        hit = (
            (unit[:, 2:4] < rates[:, 2:3])
            & (np.arange(2) < copies[:, None])
            & (rows > 0)[:, None]
        )
        corrupted = hit.sum(axis=1)
        self.stats.drops += int(dropped.sum())
        self.stats.dups += int(duped.sum())
        self.stats.corruptions += int(corrupted.sum())
        return copies, corrupted

    # ------------------------------------------------------------ stragglers

    def straggler_scale(self) -> Optional[np.ndarray]:
        """Per-rank compute multipliers, or None when no stragglers."""
        if not self.config.stragglers:
            return None
        scale = np.ones(self.n_ranks)
        for rank, factor in self.config.stragglers.items():
            scale[rank] = factor
        return scale
