"""Runtime invariant checkers guarding against silent corruption.

Two independent nets sit under the checksum (defense in depth):

* **Tuple conservation** — every ``alltoallv`` must deliver exactly the
  tuples that were sent (plus intentional duplicates the plane injected
  and counted).  A substrate bug or an undetected mutation that loses or
  fabricates tuples trips :func:`check_conservation`.
* **Lattice monotonicity** — aggregate accumulators may only move *up*
  the semilattice (shorter paths for ``$MIN``, larger values for
  ``$MAX``).  :func:`monotonicity_audit` compares an aggregate
  relation's stored rows before and after an absorb, group by group
  through a :class:`~repro.kernels.block.KeyIndex` over the packed group
  keys; a regression means corrupted data reached storage and raises
  :class:`~repro.faults.plane.CorruptionError`.
"""

from __future__ import annotations

import numpy as np

from repro.faults.plane import CorruptionError
from repro.kernels.absorb import vector_combiner
from repro.kernels.block import KeyIndex


class ConservationError(CorruptionError):
    """An exchange created or destroyed tuples (sent != received)."""


def check_conservation(
    sent: int, received: int, duplicated: int = 0, *, kind: str = "alltoallv"
) -> None:
    """Assert sum-sent == sum-received (modulo counted duplicates)."""
    if received != sent + duplicated:
        raise ConservationError(
            f"{kind}: tuple conservation violated — sent {sent} "
            f"(+{duplicated} duplicated) but delivered {received}"
        )


def monotonicity_audit(before: np.ndarray, rel) -> None:
    """Verify aggregate relation ``rel`` only moved up-lattice relative
    to ``before``, a copy of its stored full rows taken before an absorb.

    Every group present before must still exist, and each accumulator
    that changed must satisfy ``join(old, new) == new`` (i.e. the stored
    value absorbed the old one — it never regressed or wandered off the
    lattice path).
    """
    schema = rel.schema
    k = schema.n_indep
    after = rel.table.stored()[0]
    slot = KeyIndex(after[:, :k]).find(before[:, :k])
    missing = np.flatnonzero(slot < 0)
    if missing.shape[0]:
        key = tuple(before[missing[0], :k].tolist())
        raise CorruptionError(
            f"{schema.name}: group {key} vanished during absorb "
            "(monotonicity audit)"
        )
    old, new = before[:, k:], after[slot, k:]
    changed = (old != new).any(axis=1)
    old, new = old[changed], new[changed]
    regressed = np.flatnonzero(
        (vector_combiner(schema.aggregator).join(old, new) != new).any(axis=1)
    )
    if regressed.shape[0]:
        i = regressed[0]
        key = tuple(before[changed][i, :k].tolist())
        raise CorruptionError(
            f"{schema.name}: accumulator for {key} regressed "
            f"{tuple(old[i].tolist())} -> {tuple(new[i].tolist())} "
            "(lattice monotonicity violated)"
        )
