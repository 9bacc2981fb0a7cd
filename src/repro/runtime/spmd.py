"""The per-rank driver: the engine once per rank, in lockstep.

The BSP :class:`~repro.runtime.engine.Engine` owns every rank of its
:class:`~repro.comm.simcluster.SimCluster` — one loop runs each rank's
phase, which keeps 16,384-rank simulations tractable.  This module is the
evidence that the shortcut is faithful: ``P`` of the same engines, one
per rank and one thread each, over **one** shared cluster, each holding
only its own rank's shards, like the MPI ranks of the C++ original.

There is no second pipeline here, only the comm each engine holds as its
``cluster``, with one rule: **every per-rank input comes from the slice
that owns that rank**.  An ``alltoallv`` concatenates every slice's
boxes from its own rank, in rank order, and hands each engine only its
own deliveries; an ``allreduce`` / ``allgather`` / ``agree`` list takes
entry ``r`` from rank ``r``'s engine; ``ledger.add_compute_step``
vectors wait for the next rendezvous, merged the same way and matched by
position (``snapshot`` is a rendezvous too).  Each collective then runs
once on the shared cluster, so answers and ledger equal the BSP run's bit
for bit.  Slices that meet with different calls raise
:class:`LockstepError`; a slice that raises breaks the barrier, so no
thread waits for it.  Planes that read or charge state around the comm
are refused up front (:func:`spmd_refusals`).

The threads, the barrier and the error propagation are
:func:`run_ranks`, which runs any function once per rank on its
:class:`SliceComm`: :func:`run_slices` is ``run_ranks`` with an
engine-building rank function, and a hand-written rank program
(``examples/spmd_style.py``) is another, with the cluster's fault plane,
retransmission and ledger under every collective it calls.
"""

from __future__ import annotations

import threading
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, TypeVar,
)

import numpy as np

from repro.comm.boxes import BoxTable, Delivery
from repro.comm.simcluster import SimCluster
from repro.planner.ast import Program
from repro.relational.storage import RelationStore
from repro.runtime.config import EngineConfig
from repro.runtime.engine import Engine
from repro.runtime.incremental import FixpointHandle
from repro.runtime.result import FixpointResult

TupleT = Tuple[int, ...]
T = TypeVar("T")


class LockstepError(RuntimeError):
    """Slices met at one rendezvous with different calls: a rank program
    that is not SPMD."""


def spmd_refusals(config: EngineConfig) -> List[str]:
    """The fields of ``config`` the per-rank driver refuses, by leaf name
    (empty: it runs): planes that read or charge state around the comm."""
    faults = config.faults.config
    checks = (
        ("faults.crash", faults is not None and faults.crash_rank is not None),
        ("faults.crash_perm", faults is not None and faults.has_permanent_crash),
        ("checkpoint_every", config.recovery.checkpoint_every is not None),
        ("replicas", config.recovery.replicas > 0),
        ("auto_balance", config.auto_balance is not None),
        ("tracer", config.diagnostics.tracer is not None),
        ("diagnostics", config.diagnostics.enabled),
    )
    return [name for name, refused in checks if refused]


class _Rendezvous:
    """What the slices share: the cluster, one barrier, each rank's call."""

    def __init__(self, cluster: SimCluster):
        self.cluster = cluster
        self.calls: List[tuple] = [()] * cluster.n_ranks
        self.outcome: tuple = (None, None)
        self.barrier = threading.Barrier(cluster.n_ranks, action=self._meet)

    def _meet(self) -> None:
        # The barrier's action: one thread runs it while every slice waits.
        try:
            self.outcome = (self._run(), None)
        except BaseException as exc:  # re-raised in every slice
            self.outcome = (None, exc)

    def _run(self):
        calls = self.calls
        labels = [call[0] for call in calls]
        if len(set(labels)) > 1:
            raise LockstepError("slices left lockstep: " + "; ".join(
                f"rank {r} called {label}" for r, label in enumerate(labels)
            ))
        cluster = self.cluster
        _label, name, _value, kwargs, steps = calls[0]
        # Compute step i, merged: entry r of rank r's i-th buffered vector.
        for i, (phase, _seconds) in enumerate(steps):
            cluster.ledger.add_compute_step(
                phase, np.array([call[4][i][1][r] for r, call in enumerate(calls)])
            )
        values = [call[2] for call in calls]
        if name == "alltoallv":
            # Every slice's boxes from its own rank, in rank order.
            own = [t.take(np.flatnonzero(t.src == r)) for r, t in enumerate(values)]
            return cluster.alltoallv(BoxTable.concat(own), **kwargs)
        if name == "skip_superstep":
            return cluster.skip_superstep()
        if name == "snapshot":
            return cluster.ledger.snapshot()
        if name == "finish":
            return None
        mine = [v[r] for r, v in enumerate(values)]
        return mine if name == "agree" else getattr(cluster, name)(mine, **kwargs)


class SliceComm:
    """One rank's comm (its engine's ``cluster``).  Collectives meet the
    other slices; other attributes (``cost``, ``faults``, wire tallies)
    read the shared cluster, which changes only inside a rendezvous."""

    def __init__(self, rendezvous: _Rendezvous, rank: int):
        self._rendezvous = rendezvous
        self.rank = rank
        self.ledger = _SliceLedger(self)
        self._steps: List[Tuple[str, np.ndarray]] = []

    def __getattr__(self, name: str):
        return getattr(self._rendezvous.cluster, name)

    def owns(self, ranks: np.ndarray) -> np.ndarray:
        return ranks == self.rank

    def _meet(self, name: str, value=None, **kwargs):
        args = ", ".join(
            f"{k}={v!r}" for k, v in sorted(kwargs.items()) if not callable(v)
        )
        steps = [phase for phase, _ in self._steps]
        label = f"{name}({args}) after compute steps {steps}"
        rendezvous = self._rendezvous
        rendezvous.calls[self.rank] = (label, name, value, kwargs, self._steps)
        self._steps = []
        rendezvous.barrier.wait()
        result, error = rendezvous.outcome
        if error is not None:
            raise error
        return result

    def alltoallv(self, sends, **kwargs) -> Delivery:
        if not isinstance(sends, BoxTable):
            sends = BoxTable.from_sends(sends)
        return self._meet("alltoallv", sends, **kwargs).only(self.rank)

    def skip_superstep(self) -> None:
        if self.faults is not None:  # the shared fault clock ticks once
            self._meet("skip_superstep")

    def allreduce(self, per_rank_values, op=sum, **kwargs):
        return self._meet("allreduce", per_rank_values, op=op, **kwargs)

    def allgather(self, per_rank_values, **kwargs) -> list:
        return list(self._meet("allgather", per_rank_values, **kwargs))

    def agree(self, per_rank_values) -> list:
        return list(self._meet("agree", per_rank_values))


class _SliceLedger:
    """A slice's handle on the shared ledger: compute steps wait for the
    next rendezvous, ``snapshot`` is one, any other charge raises, and
    reads see the shared ledger."""

    def __init__(self, comm: SliceComm):
        self._comm = comm

    def __getattr__(self, name: str):
        return getattr(self._comm._rendezvous.cluster.ledger, name)

    def add_compute_step(self, phase: str, per_rank_seconds: np.ndarray) -> None:
        self._comm._steps.append((phase, per_rank_seconds))

    def snapshot(self) -> Dict[str, float]:
        return dict(self._comm._meet("snapshot"))

    def add_compute_scalar(self, *args, **kwargs):
        raise LockstepError("a slice charged the ledger outside the comm")

    add_comm = add_compute_scalar


def run_ranks(
    config: EngineConfig, fn: Callable[..., T], *args
) -> Tuple[List[T], SimCluster]:
    """Call ``fn(comm, *args)`` once per rank of ``config``, one thread
    each, in lockstep over one :class:`SimCluster` built from ``config``
    (cost model, fault plane, reordering); each rank's return value in
    rank order, and the shared cluster.

    ``comm`` is the rank's :class:`SliceComm`: a collective takes the
    rank's own row of the send matrix (``alltoallv({comm.rank: boxes},
    arity=…)``) or its own entry (``allreduce({comm.rank: value})``).
    An exception in any rank is re-raised here once every thread is done.
    """
    config.validate()
    rendezvous = _Rendezvous(SimCluster.from_config(config))
    n = config.n_ranks
    results: List[T] = [None] * n  # type: ignore[list-item]
    errors: List[Tuple[int, BaseException]] = []

    def rank_program(rank: int) -> None:
        comm = SliceComm(rendezvous, rank)
        try:
            results[rank] = fn(comm, *args)
            comm._meet("finish")
        except BaseException as exc:
            errors.append((rank, exc))
            # An error a rendezvous raised reaches every slice by itself
            # (breaking the barrier would race the slices still waking from
            # it); any other must break it, so no slice waits for this one.
            if exc is not rendezvous.outcome[1]:
                rendezvous.barrier.abort()

    threads = [threading.Thread(target=rank_program, args=(r,)) for r in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:  # the lowest rank's own error, not a broken barrier it saw
        raise min(errors, key=lambda e: (
            isinstance(e[1], threading.BrokenBarrierError), e[0]
        ))[1]
    return results, rendezvous.cluster


def run_slices(
    program: Program,
    facts: Mapping[str, Iterable[TupleT]],
    updates: Sequence[Mapping[str, Iterable[TupleT]]] = (),
    config: Optional[EngineConfig] = None,
) -> Tuple[List[Engine], List[FixpointResult]]:
    """Load ``facts`` into one engine per rank, converge in lockstep, apply
    each update batch (``FixpointHandle.update``); the engines and results
    in rank order — every result's ``ledger`` reads the shared one."""
    config = config or EngineConfig()
    config.validate()
    refused = spmd_refusals(config)
    if refused:
        raise ValueError(
            f"the per-rank driver does not run {', '.join(refused)}; "
            "use the BSP Engine"
        )
    # Every slice reads every row, and keeps the ones it owns.
    facts = {name: list(rows) for name, rows in facts.items()}
    updates = [{n: list(rows) for n, rows in b.items()} for b in updates]

    def slice_program(comm: SliceComm) -> Tuple[Engine, FixpointResult]:
        engine = Engine(program, config, cluster=comm)
        for name, rows in facts.items():
            engine.load(name, rows)
        if not updates:
            return engine, engine.run()
        handle = FixpointHandle(engine)
        for batch in updates:
            handle.update(batch)
        return engine, handle.result()

    pairs, _cluster = run_ranks(config, slice_program)
    engines, results = zip(*pairs)
    return list(engines), list(results)


def run_spmd_engine(
    program: Program,
    facts: Mapping[str, Iterable[TupleT]],
    config: Optional[EngineConfig] = None,
) -> Dict[str, Set[TupleT]]:
    """Evaluate ``program`` with one engine per rank; each relation's full
    contents (the union across ranks)."""
    return run_spmd_incremental(program, facts, (), config)


def run_spmd_incremental(
    program: Program,
    facts: Mapping[str, Iterable[TupleT]],
    updates: Sequence[Mapping[str, Iterable[TupleT]]],
    config: Optional[EngineConfig] = None,
) -> Dict[str, Set[TupleT]]:
    """Converge on ``facts``, then apply each update batch as
    :class:`~repro.runtime.incremental.FixpointHandle` does, on every
    rank; each relation's final full contents (union across ranks)."""
    merged: Dict[str, Set[TupleT]] = {}
    for store in spmd_rank_stores(program, facts, updates, config):
        for rel in store:
            merged.setdefault(rel.schema.name, set()).update(rel.iter_full())
    return merged


def spmd_rank_stores(
    program: Program,
    facts: Mapping[str, Iterable[TupleT]],
    updates: Sequence[Mapping[str, Iterable[TupleT]]] = (),
    config: Optional[EngineConfig] = None,
) -> List[RelationStore]:
    """Each rank's store at exit: entry ``r`` holds exactly the shards
    rank ``r`` owns."""
    engines, _results = run_slices(program, facts, updates, config)
    return [engine.store for engine in engines]
