"""Communication substrate — the simulated MPI cluster.

The paper runs PARALAGG over MPI on the Theta supercomputer.  This
reproduction has neither MPI nor a cluster, so (per the documented
substitution in DESIGN.md §2) this package provides:

:mod:`repro.comm.costmodel`
    An α–β (latency–bandwidth) communication cost model plus calibrated
    per-tuple compute rates.  Modeled time drives the strong-scaling
    figures, since wall-clock of a single-process simulation cannot.
:mod:`repro.comm.simcluster`
    :class:`SimCluster` — a bulk-synchronous simulated cluster of logical
    ranks, the one comm substrate: under both engine drivers and under
    hand-written rank programs (:func:`repro.runtime.spmd.run_ranks`).
    Its collectives (``allreduce``, ``allgather``, ``alltoallv``) move
    *real* payloads between per-rank mailboxes and charge the cost model
    with actual serialized sizes, so communication volume is measured,
    never assumed.
:mod:`repro.comm.boxes`
    What an ``alltoallv`` moves and returns: one table of boxes per
    exchange (int64 columns over one row block and one payload buffer)
    and its delivery.
:mod:`repro.comm.wire`
    The row-block codecs of the route exchange's wire layer (sender
    fold, ``delta`` codec and direct-vs-Bruck pick, switched together by
    ``EngineConfig.wire``).
:mod:`repro.comm.ledger`
    Per-phase accounting of compute (per-rank, max-combined per superstep)
    and communication (global) modeled time.
"""

from repro.comm.costmodel import CostModel, CommEvent
from repro.comm.ledger import PhaseLedger
from repro.comm.simcluster import SimCluster

__all__ = [
    "CostModel",
    "CommEvent",
    "PhaseLedger",
    "SimCluster",
]
