"""Hierarchical timers for per-phase instrumentation.

The paper's evaluation (Figs. 2, 4, 7) reports *per-phase* breakdowns —
balancing, join-order voting, intra-bucket communication, local join,
all-to-all, and fused dedup/aggregation.  :class:`PhaseTimer` accumulates
wall-clock time per named phase and supports nesting, so the runtime can
report exactly those series.

:class:`PhaseTimer` is the *wall-clock* view of the run; its modeled-time
sibling is :class:`repro.comm.ledger.PhaseLedger`.  Each keeps its
running totals and the totals at its last ``snapshot()``, nothing more:
the engine takes one snapshot of each per iteration into
``FixpointResult.trace``, the one per-iteration history.  Every
``phase(...)`` block also opens a span in an attached
:class:`repro.obs.tracer.Tracer` (a no-op by default).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

from repro.obs.tracer import NULL_TRACER


@dataclass
class Stopwatch:
    """Accumulating stopwatch; ``with sw: ...`` adds the block's duration.

    If the block raises, the in-flight interval is *discarded* rather than
    charged: a half-executed phase has no meaningful duration, and adding
    it would corrupt the accumulated totals on error paths.
    """

    elapsed: float = 0.0
    count: int = 0
    _start: float | None = None

    def start(self) -> None:
        if self._start is not None:
            raise RuntimeError("stopwatch already running")
        self._start = time.perf_counter()

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("stopwatch not running")
        dt = time.perf_counter() - self._start
        self._start = None
        self.elapsed += dt
        self.count += 1
        return dt

    def discard(self) -> None:
        """Abandon the in-flight interval without charging it."""
        self._start = None

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if exc_type is not None:
            self.discard()
        else:
            self.stop()


@dataclass
class PhaseTimer:
    """Accumulates wall time per named phase, with per-iteration snapshots.

    ``snapshot()`` closes out the current iteration and returns the phase
    totals since the previous snapshot — one iteration of Fig. 7's trace.
    When a real tracer is attached, every ``phase(...)`` block
    additionally opens a wall-clock span in the trace stream.
    """

    phases: Dict[str, Stopwatch] = field(default_factory=dict)
    tracer: object = NULL_TRACER
    #: ``totals()`` at the last ``snapshot()``.
    _last: Dict[str, float] = field(default_factory=dict, init=False, repr=False)

    @contextmanager
    def phase(self, name: str) -> Iterator[Stopwatch]:
        sw = self.phases.setdefault(name, Stopwatch())
        if self.tracer.enabled:
            with self.tracer.span(name, cat="phase"):
                with sw:
                    yield sw
        else:
            with sw:
                yield sw

    def totals(self) -> Dict[str, float]:
        return {name: sw.elapsed for name, sw in self.phases.items()}

    def total(self) -> float:
        return sum(sw.elapsed for sw in self.phases.values())

    def snapshot(self) -> Dict[str, float]:
        """Return the per-phase deltas since the last snapshot."""
        totals = self.totals()
        delta = {name: v - self._last.get(name, 0.0) for name, v in totals.items()}
        self._last = totals
        return delta
