"""Span-based tracing with dual wall/modeled clocks.

A :class:`Span` is one named interval of work.  Every span carries two
clocks at once:

* **wall** — host ``time.perf_counter`` seconds since the tracer's epoch:
  how long the *simulation* took to execute the region;
* **modeled** — simulated cluster seconds: where the region sits on the
  cost model's timeline.  The modeled clock only advances when the
  :class:`~repro.comm.ledger.PhaseLedger` charges compute or communication
  to it (via :meth:`Tracer.advance_modeled`), so span boundaries tile the
  modeled timeline exactly the way the BSP supersteps do.

Spans either wrap live code (``with tracer.span("local_join"): ...``) or
are recorded retroactively (:meth:`Tracer.record`) for intervals whose
extent is known only from the cost model — e.g. one rank's share of a
compute superstep.  ``rank=None`` marks driver-side spans; ``rank=r``
marks per-rank lanes (one Chrome-trace "process" each, see
:mod:`repro.obs.export`).

:data:`NULL_TRACER` is a shared zero-overhead no-op with the same
interface; it is the default everywhere so an untraced run pays one
attribute check (``tracer.enabled``) per charge and nothing else.

The spans are the only per-charge record a run keeps: the per-rank
compute-seconds and per-collective byte distributions of
:meth:`FixpointResult.metrics_dict <repro.runtime.result.FixpointResult.
metrics_dict>` are read from them, not from a second copy.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One closed (or in-flight) traced interval."""

    name: str
    #: Coarse grouping: "phase", "compute", "comm", "iteration", "stratum",
    #: "run", "summary", ...
    cat: str = "phase"
    #: Logical rank the span belongs to; ``None`` = the driver.
    rank: Optional[int] = None
    iteration: Optional[int] = None
    stratum: Optional[int] = None
    #: Host seconds since the tracer's epoch.
    wall_start: float = 0.0
    wall_end: float = 0.0
    #: Simulated cluster seconds since the start of the run.
    modeled_start: float = 0.0
    modeled_end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    span_id: int = 0
    parent_id: Optional[int] = None

    @property
    def wall_seconds(self) -> float:
        return self.wall_end - self.wall_start

    @property
    def modeled_seconds(self) -> float:
        return self.modeled_end - self.modeled_start


class Tracer:
    """Collects the spans of one run.

    Not thread-safe; the simulator is single-threaded by construction.
    Spans are appended on *close*, so a nested child precedes its parent in
    :attr:`spans` — exporters order by start time.
    """

    enabled = True

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self.spans: List[Span] = []
        self.modeled_now = 0.0
        self._stack: List[Span] = []
        self._next_id = 1

    # ---------------------------------------------------------------- clocks

    def now(self) -> float:
        """Host wall seconds since this tracer's epoch."""
        return time.perf_counter() - self._epoch

    def advance_modeled(self, seconds: float) -> Tuple[float, float]:
        """Advance the modeled cluster clock; returns ``(start, end)``.

        Called by the ledger once per charged superstep/collective, which
        makes the tracer's modeled clock the same timeline as
        ``PhaseLedger.total_seconds()``.
        """
        start = self.modeled_now
        self.modeled_now = start + seconds
        return start, self.modeled_now

    # ----------------------------------------------------------------- spans

    def _alloc(
        self,
        name: str,
        cat: str,
        rank: Optional[int],
        iteration: Optional[int],
        stratum: Optional[int],
        attrs: Optional[Dict[str, Any]],
    ) -> Span:
        if iteration is None or stratum is None:
            # Inherit iteration/stratum labels from the innermost enclosing
            # span that carries them (the engine's boundary spans).
            for open_span in reversed(self._stack):
                if iteration is None:
                    iteration = open_span.iteration
                if stratum is None:
                    stratum = open_span.stratum
                if iteration is not None and stratum is not None:
                    break
        sp = Span(
            name=name,
            cat=cat,
            rank=rank,
            iteration=iteration,
            stratum=stratum,
            attrs=attrs if attrs is not None else {},
            span_id=self._next_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
        )
        self._next_id += 1
        return sp

    @contextmanager
    def span(
        self,
        name: str,
        *,
        cat: str = "phase",
        rank: Optional[int] = None,
        iteration: Optional[int] = None,
        stratum: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Iterator[Span]:
        """Open a nested span around a live block of code."""
        sp = self._alloc(name, cat, rank, iteration, stratum, attrs)
        sp.wall_start = self.now()
        sp.modeled_start = self.modeled_now
        self._stack.append(sp)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.wall_end = self.now()
            sp.modeled_end = self.modeled_now
            self.spans.append(sp)

    def record(
        self,
        name: str,
        *,
        cat: str = "compute",
        rank: Optional[int] = None,
        iteration: Optional[int] = None,
        stratum: Optional[int] = None,
        modeled_start: float = 0.0,
        modeled_end: float = 0.0,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Record an already-delimited span (per-rank modeled intervals)."""
        sp = self._alloc(name, cat, rank, iteration, stratum, attrs)
        sp.wall_start = sp.wall_end = self.now()
        sp.modeled_start = modeled_start
        sp.modeled_end = modeled_end
        self.spans.append(sp)
        return sp

    def instant(
        self,
        name: str,
        *,
        cat: str = "summary",
        rank: Optional[int] = None,
        iteration: Optional[int] = None,
        stratum: Optional[int] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> Span:
        """Record a zero-duration event at the current clocks."""
        return self.record(
            name,
            cat=cat,
            rank=rank,
            iteration=iteration,
            stratum=stratum,
            modeled_start=self.modeled_now,
            modeled_end=self.modeled_now,
            attrs=attrs,
        )


class _NullSpanContext:
    """Reusable ``with`` target returned by :meth:`NullTracer.span`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class NullTracer:
    """Zero-overhead tracer: every operation is a no-op.

    ``span()`` hands back one shared context manager (no allocation), and
    callers that do per-item work (the ledger's per-rank span emission)
    gate on :attr:`enabled` and skip it entirely.
    """

    enabled = False

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.modeled_now = 0.0

    def now(self) -> float:
        return 0.0

    def advance_modeled(self, seconds: float) -> Tuple[float, float]:
        return 0.0, 0.0

    def span(self, name: str, **kwargs: Any) -> _NullSpanContext:
        return _NULL_CONTEXT

    def record(self, name: str, **kwargs: Any) -> None:
        return None

    def instant(self, name: str, **kwargs: Any) -> None:
        return None


#: Process-wide default tracer (shared; never accumulates anything).
NULL_TRACER = NullTracer()
