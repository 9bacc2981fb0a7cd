"""Runtime invariant checkers guarding against silent corruption.

Two independent nets sit under the checksum (defense in depth):

* **Tuple conservation** — every ``alltoallv`` must deliver exactly the
  tuples that were sent (plus intentional duplicates the plane injected
  and counted).  A substrate bug or an undetected mutation that loses or
  fabricates tuples trips :func:`check_conservation`.
* **Lattice monotonicity** — aggregate accumulators may only move *up*
  the semilattice (shorter paths for ``$MIN``, larger values for
  ``$MAX``).  :func:`monotonicity_audit` compares each group an absorb
  touched with the prior accumulator the store read to fold into it; a
  vanished group or a regression means corrupted data reached storage
  and raises :class:`~repro.faults.plane.CorruptionError`.
"""

from __future__ import annotations

import numpy as np

from repro.faults.plane import CorruptionError
from repro.kernels.absorb import vector_combiner


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


def monotonicity_audit(rel, touched) -> None:
    """Verify aggregate relation ``rel`` only moved up-lattice in the
    groups an absorb touched.

    ``touched`` holds the ``(row ids, group keys, prior accumulators)``
    triples the absorb collected
    (:meth:`~repro.relational.storage.VersionedRelation.absorb`'s
    ``audit``): the stored groups its arrivals met, as they stood before.
    Every such group must still sit at its row, and each accumulator that
    changed must satisfy ``join(old, new) == new`` (i.e. the stored value
    absorbed the old one — it never regressed or wandered off the lattice
    path).
    """
    schema = rel.schema
    k = schema.n_indep
    join = vector_combiner(schema.aggregator).join
    data = rel.table.stored()[0]
    for ids, keys, old in touched:
        held = ids < data.shape[0]
        now = data[ids[held]]
        kept = np.zeros(ids.shape[0], dtype=bool)
        kept[held] = (now[:, :k] == keys[held]).all(axis=1)
        missing = np.flatnonzero(~kept)
        if missing.shape[0]:
            key = tuple(keys[missing[0]].tolist())
            raise CorruptionError(
                f"{schema.name}: group {key} vanished during absorb "
                "(monotonicity audit)"
            )
        new = now[:, k:]
        changed = np.flatnonzero((old != new).any(axis=1))
        regressed = changed[
            (join(old[changed], new[changed]) != new[changed]).any(axis=1)
        ]
        if regressed.shape[0]:
            i = regressed[0]
            raise CorruptionError(
                f"{schema.name}: accumulator for {tuple(keys[i].tolist())} "
                f"regressed {tuple(old[i].tolist())} -> "
                f"{tuple(new[i].tolist())} (lattice monotonicity violated)"
            )
