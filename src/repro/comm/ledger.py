"""Per-phase modeled-time accounting.

The simulated cluster executes supersteps (BSP): within a phase of one
iteration, every rank computes independently, so the phase's modeled time
is the *maximum* over ranks of their compute — this is what makes load
imbalance visible (Fig. 3/4 of the paper).  Communication time is global
(collectives synchronize everyone).

The ledger therefore accepts:

* ``add_compute_step(phase, per_rank_seconds)`` — charges
  ``max(per_rank_seconds)`` to the phase and records imbalance stats;
* ``add_compute_scalar(phase, seconds)`` — charges work replicated
  identically on every rank (driver-style bookkeeping); every rank's
  ``rank_compute`` is charged, so ``imbalance_ratio()`` reflects the
  replication instead of silently drifting toward 1;
* ``add_comm(phase, event)`` — charges the event's modeled seconds.

``snapshot()`` returns the per-phase increase since the previous call —
one iteration's modeled breakdown (Fig. 7).  The ledger keeps only the
last totals to difference against; the history is the engine's
``FixpointResult.trace``, which a rollback rewinds.

When a real :class:`repro.obs.tracer.Tracer` is attached, every charge
also advances the tracer's modeled clock and emits per-rank spans: one
``compute`` span per rank per superstep (duration = that rank's own
seconds, so lanes show idle gaps where imbalance lives) and one ``comm``
span per rank per collective, carrying its ``nbytes`` and ``messages``.
The ledger is thus the *single* writer of the modeled timeline; the
numbers in ``phase_seconds`` and the span stream are definitionally
consistent, and every per-charge distribution is read off the spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.comm.costmodel import CommEvent, CommStats
from repro.obs.tracer import NULL_TRACER


@dataclass
class PhaseLedger:
    """Accumulates modeled time per named phase across a simulation."""

    n_ranks: int
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    comm: CommStats = field(default_factory=CommStats)
    #: Sum over supersteps of per-rank compute seconds (imbalance analysis).
    rank_compute: np.ndarray = field(default=None)  # type: ignore[assignment]
    tracer: object = NULL_TRACER
    #: Optional per-rank compute multipliers (straggler injection): each
    #: rank's charge is scaled before the max-per-superstep is taken, so a
    #: slow rank stretches exactly the supersteps it gates.  None = off.
    rank_scale: Optional[np.ndarray] = None
    #: ``phase_seconds`` at the last ``snapshot()``.
    _last: Dict[str, float] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rank_compute is None:
            self.rank_compute = np.zeros(self.n_ranks)

    # ----------------------------------------------------------------- charge

    def _check_shape(self, per_rank_seconds: np.ndarray) -> None:
        if per_rank_seconds.shape != (self.n_ranks,):
            raise ValueError(
                f"expected shape ({self.n_ranks},), got {per_rank_seconds.shape}"
            )

    def add_compute_step(self, phase: str, per_rank_seconds: np.ndarray) -> float:
        """Charge one compute superstep; returns the step's modeled time."""
        self._check_shape(per_rank_seconds)
        if self.rank_scale is not None:
            per_rank_seconds = per_rank_seconds * self.rank_scale
        step = float(per_rank_seconds.max()) if self.n_ranks else 0.0
        self._charge_compute(phase, step, per_rank_seconds)
        return step

    def add_compute_scalar(self, phase: str, seconds: float) -> None:
        """Charge compute replicated identically on every rank.

        The step advances modeled time by ``seconds`` (all ranks do the
        same work concurrently) and charges ``seconds`` to *every* rank's
        ``rank_compute`` — replicated work is perfectly balanced, so it
        must pull ``imbalance_ratio()`` toward 1 by raising the mean *and*
        the max together, not by raising neither.
        """
        if self.rank_scale is not None:
            scaled = seconds * self.rank_scale
            self._charge_compute(phase, float(scaled.max()), scaled)
            return
        self._charge_compute(phase, seconds, None, scalar_seconds=seconds)

    def _charge_compute(
        self,
        phase: str,
        step: float,
        per_rank_seconds: Optional[np.ndarray],
        scalar_seconds: float = 0.0,
    ) -> None:
        """Common charge path (subclasses funnel through here).

        ``per_rank_seconds=None`` means "``scalar_seconds`` on every rank".
        """
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + step
        if per_rank_seconds is not None:
            self.rank_compute += per_rank_seconds
        else:
            self.rank_compute += scalar_seconds
        tracer = self.tracer
        if tracer.enabled and step > 0:
            start, _end = tracer.advance_modeled(step)
            if per_rank_seconds is None:
                durations = [scalar_seconds] * self.n_ranks
            else:
                durations = per_rank_seconds.tolist()
            for rank, seconds in enumerate(durations):
                if seconds > 0:
                    tracer.record(
                        phase,
                        cat="compute",
                        rank=rank,
                        modeled_start=start,
                        modeled_end=start + seconds,
                    )

    def add_comm(self, event: CommEvent) -> None:
        self.comm.record(event)
        self.phase_seconds[event.phase] = (
            self.phase_seconds.get(event.phase, 0.0) + event.seconds
        )
        tracer = self.tracer
        if tracer.enabled:
            start, end = tracer.advance_modeled(event.seconds)
            attrs = {
                "phase": event.phase,
                "nbytes": event.nbytes,
                "messages": event.messages,
            }
            for rank in range(self.n_ranks):
                tracer.record(
                    event.kind,
                    cat="comm",
                    rank=rank,
                    modeled_start=start,
                    modeled_end=end,
                    attrs=attrs,
                )

    # ---------------------------------------------------------------- queries

    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def phase(self, name: str) -> float:
        return self.phase_seconds.get(name, 0.0)

    def snapshot(self) -> Dict[str, float]:
        """Close out the current iteration; return its per-phase deltas."""
        totals = dict(self.phase_seconds)
        delta = {name: v - self._last.get(name, 0.0) for name, v in totals.items()}
        self._last = totals
        return delta

    def imbalance_ratio(self) -> float:
        """max/mean of per-rank cumulative compute (1.0 = perfectly even)."""
        mean = float(self.rank_compute.mean())
        if mean <= 0:
            return 1.0
        return float(self.rank_compute.max()) / mean
