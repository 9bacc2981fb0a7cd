"""``repro.api`` — the stable front door to the PARALAGG reproduction.

The engine grew layer by layer (wire optimization, fault injection,
checkpoint replication, adaptive rebalancing, diagnostics, incremental
maintenance), and :class:`~repro.runtime.config.EngineConfig` grew a flat
kwarg per knob.  This package is the curated surface on top:

* :class:`Options` — typed option groups (:class:`FaultOptions`,
  :class:`RecoveryOptions`, :class:`RebalanceOptions`,
  :class:`DiagnosticsOptions`) and one ``wire`` switch, with **all**
  cross-field validation centralized in :meth:`Options.validate`, so a
  bad combination fails in one place with a message naming the Options
  field (and the CLI flag) instead of surfacing mid-run;
* :class:`Session` — one object for the whole lifecycle: build it from
  options, call :meth:`Session.query` to converge a program, then
  :meth:`Session.update` to maintain the fixpoint incrementally.

Quickstart::

    from repro.api import Options, RecoveryOptions, Session

    session = Session(Options(n_ranks=8, recovery=RecoveryOptions(checkpoint_every=4)))
    result = session.query(program, {"edge": edges, "start": [(0,)]})
    result = session.update({"edge": new_edges})     # incremental, bit-identical
"""

from repro.api.options import (
    DiagnosticsOptions,
    FaultOptions,
    Options,
    OptionsError,
    RebalanceOptions,
    RecoveryOptions,
)
from repro.api.session import Session

__all__ = [
    "DiagnosticsOptions",
    "FaultOptions",
    "Options",
    "OptionsError",
    "RebalanceOptions",
    "RecoveryOptions",
    "Session",
]
