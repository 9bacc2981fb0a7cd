"""The distributed semi-naïve fixpoint engine.

:mod:`repro.runtime.engine` drives compiled programs over the simulated
cluster through the paper's iteration pipeline (Fig. 1):

    join-order vote → intra-bucket comm → local join →
    all-to-all → fused dedup / local aggregation → fixpoint check

:mod:`repro.runtime.config` holds :class:`EngineConfig` (rank count,
optimization toggles — the Fig. 2 baseline/optimized pair differ only in
config), :mod:`repro.runtime.executor` the row-block data plane the
engine's one pipeline runs over, and
:mod:`repro.runtime.result` the :class:`FixpointResult` returned to
callers.
"""

from repro.runtime.config import EngineConfig
from repro.runtime.engine import Engine
from repro.runtime.incremental import FixpointHandle, IncrementalUnsupportedError
from repro.runtime.result import FixpointResult, IterationTrace
from repro.runtime.spmd import run_spmd_engine, run_spmd_incremental

__all__ = [
    "EngineConfig",
    "Engine",
    "FixpointHandle",
    "FixpointResult",
    "IncrementalUnsupportedError",
    "IterationTrace",
    "run_spmd_engine",
    "run_spmd_incremental",
]
