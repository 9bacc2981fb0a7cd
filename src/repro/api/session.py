"""The :class:`Session` facade: one object for query + incremental update.

A Session owns the engine lifecycle that callers otherwise wire by hand
(build engine → load facts → run → keep the engine around for more).
After :meth:`Session.query` converges a program, the distributed state
stays hot inside the session; :meth:`Session.update` maintains the
fixpoint incrementally through
:class:`~repro.runtime.incremental.FixpointHandle` — bit-identical to a
cold recompute on the union EDB, at a fraction of the modeled cost.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Set, Tuple

from repro.runtime.config import EngineConfig
from repro.runtime.engine import Engine
from repro.runtime.incremental import FixpointHandle
from repro.runtime.result import FixpointResult

TupleT = Tuple[int, ...]


class Session:
    """A configured engine front end with incremental maintenance.

    Build one from a :class:`~repro.runtime.config.EngineConfig`
    (``repro.api.Options``)::

        session = Session(Options(n_ranks=8))
        result = session.query(program, {"edge": edges, "start": starts})
        result = session.update({"edge": more_edges})

    ``query`` replaces any previous state (a session runs one program at
    a time); ``update`` requires a prior ``query`` in this session.
    The config is validated again here (it may have been mutated since it
    was built), so a bad combination fails before any work is done.
    """

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config if config is not None else EngineConfig()
        self.config.validate()
        self._engine: Optional[Engine] = None
        self._handle: Optional[FixpointHandle] = None
        self._result: Optional[FixpointResult] = None

    # --------------------------------------------------------------- state

    @property
    def engine(self) -> Optional[Engine]:
        """The live engine of the current query, or None before any."""
        return self._engine

    @property
    def handle(self) -> Optional[FixpointHandle]:
        """The incremental handle, created by the first :meth:`update`."""
        return self._handle

    def result(self) -> FixpointResult:
        """The latest :class:`FixpointResult` (query or update)."""
        if self._result is None:
            raise RuntimeError("no query has run in this session yet")
        return self._result

    def relation(self, name: str) -> Set[TupleT]:
        """A relation's current full contents as a set of tuples."""
        if self._engine is None:
            raise RuntimeError("no query has run in this session yet")
        return self._engine.store[name].as_set()

    # ---------------------------------------------------------------- runs

    def query(
        self,
        program,
        facts: Mapping[str, Iterable[TupleT]],
    ) -> FixpointResult:
        """Converge ``program`` over ``facts``; retain state for updates.

        Each call starts fresh: a new engine is built from this
        session's config, the facts are loaded, and the fixpoint runs
        to convergence.  The converged state stays live in the session
        for subsequent :meth:`update` calls.
        """
        engine = Engine(program, self.config)
        for name, rows in facts.items():
            engine.load(name, rows)
        self._engine = engine
        self._handle = None
        self._result = engine.run()
        return self._result

    def update(
        self, edb_deltas: Mapping[str, Iterable[TupleT]]
    ) -> FixpointResult:
        """Apply an EDB insertion batch to the converged fixpoint.

        Delegates to :class:`~repro.runtime.incremental.FixpointHandle`
        (created on first use): the batch routes through normal
        placement, Δ seeds only on affected ranks, and semi-naïve
        iteration resumes until quiescence.  Raises
        :class:`~repro.runtime.incremental.IncrementalUnsupportedError`
        if the program or batch falls outside insertion-only
        maintenance — never answers wrong.
        """
        if self._engine is None or self._result is None:
            raise RuntimeError(
                "Session.update needs a converged fixpoint; call "
                "Session.query first"
            )
        if self._handle is None:
            self._handle = FixpointHandle(self._engine, self._result)
        self._result = self._handle.update(edb_deltas)
        return self._result
