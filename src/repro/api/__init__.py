"""``repro.api`` — the stable front door to the PARALAGG reproduction.

* :class:`Options` — the one engine config,
  :class:`~repro.runtime.config.EngineConfig`, under the name this API
  has always used (``Options is EngineConfig``): top-level core fields, a
  ``wire`` switch and three groups (:class:`FaultOptions`,
  :class:`RecoveryOptions`, :class:`DiagnosticsOptions`).  Its
  ``validate()`` runs at construction and in every driver, so a bad
  combination fails before any work with an :class:`OptionsError`
  naming the fields (and the CLI flags);
* :class:`Session` — one object for the whole lifecycle: build it from
  a config, call :meth:`Session.query` to converge a program, then
  :meth:`Session.update` to maintain the fixpoint incrementally.

Quickstart::

    from repro.api import Options, RecoveryOptions, Session

    session = Session(Options(n_ranks=8, recovery=RecoveryOptions(checkpoint_every=4)))
    result = session.query(program, {"edge": edges, "start": [(0,)]})
    result = session.update({"edge": new_edges})     # incremental, bit-identical
"""

from repro.api.session import Session
from repro.runtime.config import (
    DiagnosticsOptions,
    EngineConfig,
    FaultOptions,
    OptionsError,
    RecoveryOptions,
)

Options = EngineConfig

__all__ = [
    "DiagnosticsOptions",
    "FaultOptions",
    "Options",
    "OptionsError",
    "RecoveryOptions",
    "Session",
]
