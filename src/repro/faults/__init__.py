"""Fault injection and recovery for the simulated cluster.

The package splits into four planes:

* :mod:`repro.faults.config` — :class:`FaultConfig`, the declarative
  fault schedule (with its one retransmission budget, ``max_retries``,
  and its one rank-range check, :meth:`FaultConfig.check_ranks`), and
  :func:`parse_fault_spec` for the CLI;
* :mod:`repro.faults.plane` — :class:`FaultPlane`, the deterministic
  injector under :class:`~repro.comm.simcluster.SimCluster`, plus the
  error taxonomy (:class:`RankFailure`, :class:`PermanentRankFailure`,
  :class:`UnrecoverableRankLoss`, :class:`MessageLossError`,
  :class:`CorruptionError`);
* :mod:`repro.faults.invariants` — tuple-conservation and lattice
  monotonicity checkers (defense in depth under the checksum);
* :mod:`repro.faults.checkpoint` — iteration-boundary snapshots, buddy
  replication, and the :class:`RecoveryStats` /
  :class:`DegradedStats` the engine reports.
"""

from repro.faults.config import FaultConfig, parse_fault_spec
from repro.faults.checkpoint import DegradedStats, RecoveryStats, StratumCheckpoint
from repro.faults.invariants import (
    ConservationError,
    check_conservation,
    monotonicity_audit,
)
from repro.faults.plane import (
    CorruptionError,
    FaultError,
    FaultPlane,
    InjectionStats,
    MessageLossError,
    PermanentRankFailure,
    RankFailure,
    UnrecoverableRankLoss,
)

__all__ = [
    "ConservationError",
    "CorruptionError",
    "DegradedStats",
    "FaultConfig",
    "FaultError",
    "FaultPlane",
    "InjectionStats",
    "MessageLossError",
    "PermanentRankFailure",
    "RankFailure",
    "StratumCheckpoint",
    "RecoveryStats",
    "UnrecoverableRankLoss",
    "check_conservation",
    "monotonicity_audit",
    "parse_fault_spec",
]
