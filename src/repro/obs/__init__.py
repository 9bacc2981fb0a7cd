"""Observability: span tracing, trace export, and diagnostics.

The paper's evaluation (Figs. 2–7) is built entirely on per-phase,
per-rank, per-iteration visibility — phase breakdowns, tuple-count CDFs,
imbalance ratios, vote decisions.  Each of those numbers has one writer:
the ledger and timer totals, the engine's counters and per-iteration
``FixpointResult.trace``, and the span stream below.  Every other surface
(``FixpointResult.metrics_dict()``, the trace file, ``trace-report``) is
computed from them on demand.

:mod:`repro.obs.tracer`
    Span-based tracing with nesting.  Every span carries *two* clocks:
    host wall time (``time.perf_counter``) and the simulation's modeled
    cluster time, so simulated time and host time live on the same event.
    A zero-overhead :class:`~repro.obs.tracer.NullTracer` is the default,
    so benchmarks are unaffected when tracing is off.

:mod:`repro.obs.export`
    The one trace format: Chrome trace-event JSON (``chrome://tracing`` /
    Perfetto compatible, one "process" lane per logical rank), its
    loader and its validator.

:mod:`repro.obs.analysis`
    The diagnostics plane over all of the above: per-exchange rank×rank
    communication matrices, critical-path attribution on the modeled
    timeline, the skew doctor, and flamegraph/heatmap exports.

Typical use::

    from repro import Engine, EngineConfig
    from repro.api import DiagnosticsOptions
    from repro.obs import Tracer

    tracer = Tracer()
    engine = Engine(program, EngineConfig(
        n_ranks=8, diagnostics=DiagnosticsOptions(tracer=tracer)))
    ...
    result = engine.run()
    result.write_trace("out.json")   # open in Perfetto
    result.metrics_dict()            # counters / gauges / per-rank histograms
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
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "CommMatrix",
    "CommMatrixRecorder",
    "CriticalPathReport",
    "Diagnosis",
    "DiagnosticsReport",
    "NULL_TRACER",
    "NullTracer",
    "SkewReport",
    "Span",
    "Tracer",
    "critical_path",
    "diagnose",
    "diagnose_skew",
]
