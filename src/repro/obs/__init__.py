"""Observability: span tracing, metrics, and trace export.

The paper's evaluation (Figs. 2–7) is built entirely on per-phase,
per-rank, per-iteration visibility — phase breakdowns, tuple-count CDFs,
imbalance ratios, vote decisions.  This package is the single substrate
that produces all of it:

:mod:`repro.obs.tracer`
    Span-based tracing with nesting.  Every span carries *two* clocks:
    host wall time (``time.perf_counter``) and the simulation's modeled
    cluster time, so simulated time and host time live on the same event.
    A zero-overhead :class:`~repro.obs.tracer.NullTracer` is the default,
    so benchmarks are unaffected when tracing is off.

:mod:`repro.obs.metrics`
    A registry of named counters, gauges, and histograms — tuple counts,
    bytes moved, Δ sizes, and per-rank compute seconds as real
    distributions instead of just max/mean.

:mod:`repro.obs.export`
    Sinks: JSONL event streams and Chrome trace-event JSON
    (``chrome://tracing`` / Perfetto compatible, one "process" lane per
    logical rank).

:mod:`repro.obs.phases`
    The shared per-iteration delta bookkeeping used by both
    :class:`~repro.util.timing.PhaseTimer` (wall time) and
    :class:`~repro.comm.ledger.PhaseLedger` (modeled time), so the two
    views can never drift apart.

:mod:`repro.obs.analysis`
    The diagnostics plane over all of the above: per-exchange rank×rank
    communication matrices, critical-path attribution on the modeled
    timeline, the skew doctor, and flamegraph/heatmap exports.

Typical use::

    from repro import Engine, EngineConfig
    from repro.obs import Tracer
    from repro.obs.export import write_chrome_trace

    tracer = Tracer()
    engine = Engine(program, EngineConfig(n_ranks=8, tracer=tracer))
    ...
    result = engine.run()
    write_chrome_trace("out.json", result.spans)   # open in Perfetto
"""

from repro.obs.analysis import (
    CommMatrix,
    CommMatrixRecorder,
    CriticalPathReport,
    Diagnosis,
    DiagnosticsReport,
    SkewReport,
    critical_path,
    diagnose,
    diagnose_skew,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
)
from repro.obs.phases import IterationDeltas
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "CommMatrix",
    "CommMatrixRecorder",
    "Counter",
    "CriticalPathReport",
    "Diagnosis",
    "DiagnosticsReport",
    "Gauge",
    "Histogram",
    "IterationDeltas",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "SkewReport",
    "Span",
    "Tracer",
    "critical_path",
    "diagnose",
    "diagnose_skew",
]
