"""An SPMD engine: the Fig. 1 pipeline as literal rank programs.

The main :class:`~repro.runtime.engine.Engine` is a BSP *driver*: one
Python loop executes every rank's phase, which makes 16,384-rank
simulations tractable.  This module is the architectural ground truth it
stands in for — each rank runs its own asynchronous program against the
mpi4py-style communicator (:mod:`repro.comm.asyncmpi`), seeing **only its
own shards** and whatever arrives through collectives, exactly like the
C++/MPI original:

.. code-block:: text

    every rank, every iteration, every join rule:
        vote   = allreduce(my relation-size comparison)        (Algorithm 1)
        recv   = alltoall(outer tuples bucketed for sub-bucket owners)
        out    = local join against my inner shards
        homes  = alltoall(out bucketed by head placement)
        Δ     += fused dedup/local aggregation of homes
    stop when allreduce(|Δ|) == 0

Tests assert this engine, the BSP engine, and the naive interpreter agree
— which is what justifies using the fast BSP driver for the scaling
studies.  (This engine is for validation and moderate rank counts.)

The rank programs run the *native* data plane; only the parallelisation
is theirs.  Each rank holds a
:class:`~repro.relational.storage.RelationStore` of nothing but the
shards it owns (data enters pre-partitioned at load, or out of an
``alltoall``) and runs the BSP engine's own
:class:`~repro.runtime.executor.ScalarExecutor` steps between its
``await``s, the wire branch through the same ``sender_fold_plan`` /
``encode_wire_sends`` / ``decode_wire_boxes`` — one implementation of
join, routing, fold and absorb.  The Algorithm-1 vote, the stratum and
update loops, the improvement guard's symmetric verdict and every
collective stay written out per rank: a sync engine cannot drive
``asyncmpi``'s coroutines, and they are what this module exists to show.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.comm.asyncmpi import AsyncComm, run_spmd
from repro.kernels.absorb import sender_fold_plan
from repro.kernels.route import decode_wire_boxes, encode_wire_sends
from repro.planner.ast import Program
from repro.planner.compile_rules import CompiledProgram, CompiledRule, compile_program
from repro.relational.distribution import Distribution
from repro.relational.storage import RelationStore
from repro.runtime.config import EngineConfig
from repro.runtime.executor import ScalarExecutor
from repro.util.hashing import HashSeed

TupleT = Tuple[int, ...]


class _RankState:
    """One rank's private view: a store of only the shards it owns."""

    def __init__(self, rank: int, compiled: CompiledProgram, config: EngineConfig):
        self.rank = rank
        self.config = config
        self.compiled = compiled
        self.store = RelationStore(
            config.n_ranks,
            seed=HashSeed().derive(config.seed),
            use_btree=config.use_btree,
        )
        for schema in compiled.schemas.values():
            self.store.declare(schema)
        self.ex = ScalarExecutor()
        #: Where the executor steps drop their per-rank work tallies: the
        #: BSP engine turns those into ledger charges, a rank program is
        #: charged by its communicator instead.
        self.tally = np.zeros(config.n_ranks, dtype=np.int64)


async def _exchange(comm: AsyncComm, sends, collective: str = "direct") -> list:
    """All-to-all this rank's row of an executor send map; returns the
    received payload items, concatenated in source-rank order."""
    row = sends.get(comm.Get_rank(), {})
    received = await comm.alltoall(
        [row.get(dst, []) for dst in range(comm.Get_size())],
        collective=collective,
    )
    return [item for batch in received for item in batch]


async def _eval_direction(
    comm: AsyncComm,
    state: _RankState,
    cr: CompiledRule,
    delta_atom: Optional[int],
) -> None:
    ex, store, tally = state.ex, state.store, state.tally
    config = state.config
    if not cr.is_join:
        version = "delta" if delta_atom == 0 else "full"
        emitted = ex.scan_emit(cr, store[cr.body_names[0]], version, tally)
        await _route_and_absorb(comm, state, cr.head_name, emitted)
        return
    rels = (store[cr.body_names[0]], store[cr.body_names[1]])
    vers = tuple("delta" if delta_atom == i else "full" for i in (0, 1))

    # ---- Algorithm 1: one-word vote; ties on empty ranks abstain when
    # configured, encoded as (vote, participating) pairs.
    if config.dynamic_join:
        lsize, rsize = (
            rel.delta_size() if ver == "delta" else rel.full_size()
            for rel, ver in zip(rels, vers)
        )
        participating = 1 if (lsize or rsize or not config.vote_abstain_empty) else 0
        pair = (participating * (1 if lsize >= rsize else 0), participating)
        votes, voters = await comm.allreduce(
            pair, op=lambda a, b: (a[0] + b[0], a[1] + b[1])
        )
        threshold = (max(voters, 1) + 1) // 2
        outer_pos = 1 if votes >= threshold else 0
    else:
        outer_pos = 0 if config.static_outer == "left" else 1
    outer_rel, outer_ver = rels[outer_pos], vers[outer_pos]
    inner_rel, inner_ver = rels[1 - outer_pos], vers[1 - outer_pos]
    probe_cols = (cr.probe_from_left, cr.probe_from_right)[outer_pos]

    # ---- intra-bucket exchange: replicate outer tuples to the inner
    # bucket's sub-bucket owners.
    sends, _n = ex.intra_sends(
        cr, outer_pos, outer_rel, outer_ver, inner_rel, probe_cols, tally
    )
    received = await _exchange(comm, sends)

    # ---- local join against this rank's inner shards.
    emitted = ex.local_join(
        cr, outer_pos, {state.rank: received}, inner_rel, inner_ver,
        probe_cols, tally, tally,
    )
    await _route_and_absorb(comm, state, cr.head_name, emitted)


async def _route_and_absorb(
    comm: AsyncComm, state: _RankState, head_name: str, emitted
) -> None:
    head = state.store[head_name]
    wire = state.config.wire
    # Wire layer, exactly the BSP engine's: fold duplicates per
    # independent key where the aggregate lattice allows, ship compact
    # encoded payloads, and let the modeled collective autotune.
    fold = (
        sender_fold_plan(head.schema)
        if wire.enabled and wire.sender_combine
        else None
    )
    sends, _n, _folded = state.ex.route_sends(
        emitted, head.dist, wire.enabled, fold
    )
    if not wire.enabled:
        state.ex.absorb(head, await _exchange(comm, sends), None)
        return
    boxes = await _exchange(
        comm, encode_wire_sends(sends, codec=wire.codec), wire.alltoallv
    )
    state.ex.absorb(
        head, decode_wire_boxes(boxes, head.schema.arity, wire.codec), None
    )


async def _stratum_loop(comm, state, stratum, first_pass) -> None:
    """One stratum to quiescence; ``first_pass`` as in
    ``Engine._stratum_loop`` — ``(rule, None)`` per rule cold, ``(rule,
    i)`` per pending body atom in an update."""
    semi_naive = [
        (cr, i)
        for cr in state.compiled.rules_of(stratum)
        for i, rel_name in enumerate(cr.body_names)
        if rel_name in stratum.relations
    ]
    directions, iterations = first_pass, 0
    while True:
        for cr, delta_atom in directions:
            await _eval_direction(comm, state, cr, delta_atom)
        changed = await comm.allreduce(
            sum(state.store[name].advance() for name in stratum.relations)
        )
        if not (stratum.recursive and changed):
            return
        if iterations >= state.config.max_iterations:
            raise RuntimeError(
                f"stratum {stratum.relations} did not converge on rank "
                f"{comm.Get_rank()}"
            )
        iterations += 1
        directions = semi_naive


async def _seed_update_spmd(
    comm: AsyncComm,
    state: _RankState,
    batch_parts: Mapping[str, List[TupleT]],
) -> Dict[str, int]:
    """Route this rank's slice of an update batch to the owning ranks.

    Each rank holds an arbitrary slice of the batch (tuples arrive
    wherever the client connected); one alltoall per relation delivers
    every tuple to its bucket/sub-bucket owner, which absorbs it against
    the retained full version.  Returns the *global* admitted-Δ size per
    relation (allreduced, so every rank sees the same pending set).
    """
    size = comm.Get_size()
    seeded: Dict[str, int] = {}
    for name in sorted(batch_parts):
        rel = state.store[name]
        sends: List[List[TupleT]] = [[] for _ in range(size)]
        for t in batch_parts[name]:
            sends[rel.dist.rank_of(t)].append(t)
        received = await comm.alltoall(sends)
        for batch in received:
            rel.load(sorted(batch))
        seeded[name] = await comm.allreduce(rel.advance())
    return seeded


async def _check_improvements_spmd(
    comm: AsyncComm,
    state: _RankState,
    names: Iterable[str],
    baselines: Mapping[str, Set[TupleT]],
) -> None:
    """Collectively abort if any rank's Δ improved a watched group.

    The check is local (full placement never moves mid-update), but the
    verdict must be symmetric — an allgather shares each rank's finding
    so every rank raises the identical error.
    """
    from repro.runtime.incremental import IncrementalUnsupportedError, improved_group

    found = await comm.allgather(improved_group(state.store, names, baselines))
    for reason in found:
        if reason:
            raise IncrementalUnsupportedError(reason)


async def _apply_update_spmd(
    comm: AsyncComm,
    state: _RankState,
    batch_parts: Mapping[str, List[TupleT]],
    watch: Set[str],
) -> None:
    """One incremental update batch: seed, resume strata, clear Δ."""
    from repro.runtime.incremental import watch_baselines

    store = state.store
    baselines = watch_baselines(store, watch)
    seeded = await _seed_update_spmd(comm, state, batch_parts)
    await _check_improvements_spmd(
        comm, state, set(seeded) & watch, baselines
    )
    pending = {n for n, c in seeded.items() if c}
    touched = set(batch_parts)

    for stratum in state.compiled.strata:
        update_pass = [
            (cr, i)
            for cr in state.compiled.rules_of(stratum)
            for i, n in enumerate(cr.body_names)
            if n in pending
        ]
        if not update_pass:
            continue
        if stratum.recursive:
            before = {name: store[name].as_set() for name in stratum.relations}
        await _stratum_loop(comm, state, stratum, update_pass)
        changed_names: Set[str] = set()
        if stratum.recursive:
            # Downstream Δ = final full-version growth, never the
            # transient Δs the loop burned through (paper §III-A); the
            # rows are already this rank's, so nothing is communicated.
            for name in stratum.relations:
                diff = sorted(store[name].as_set() - before[name])
                n_local = store[name].install_delta(
                    np.asarray(diff, dtype=np.int64) if diff else None
                )
                if await comm.allreduce(n_local):
                    changed_names.add(name)
        else:
            for name in sorted({cr.head_name for cr, _ in update_pass}):
                if await comm.allreduce(store[name].delta_size()):
                    changed_names.add(name)
        await _check_improvements_spmd(
            comm, state, changed_names & watch, baselines
        )
        pending |= changed_names
        touched |= changed_names

    for name in sorted(touched):
        store[name].install_delta(None)


async def _rank_program(
    comm: AsyncComm,
    compiled: CompiledProgram,
    config: EngineConfig,
    facts_by_rank: Mapping[str, List[List[TupleT]]],
    updates_by_rank: Sequence[Mapping[str, List[List[TupleT]]]] = (),
) -> RelationStore:
    state = _RankState(comm.Get_rank(), compiled, config)
    for name, parts in facts_by_rank.items():
        state.store[name].load(parts[comm.Get_rank()])
        state.store[name].advance()

    for stratum in compiled.strata:
        await _stratum_loop(
            comm, state, stratum,
            [(cr, None) for cr in compiled.rules_of(stratum)],
        )

    if updates_by_rank:
        from repro.runtime.incremental import improvable_watch

        watch = improvable_watch(compiled)
        for batch in updates_by_rank:
            parts = {
                name: rows[comm.Get_rank()] for name, rows in batch.items()
            }
            await _apply_update_spmd(comm, state, parts, watch)

    return state.store


def run_spmd_engine(
    program: Program,
    facts: Mapping[str, Iterable[TupleT]],
    config: Optional[EngineConfig] = None,
) -> Dict[str, Set[TupleT]]:
    """Evaluate ``program`` with true per-rank message-passing programs.

    Returns each relation's full contents (the union across ranks).
    Intended for validation and small/medium rank counts; for scaling
    studies use :class:`~repro.runtime.engine.Engine`.
    """
    return run_spmd_incremental(program, facts, (), config)


def run_spmd_incremental(
    program: Program,
    facts: Mapping[str, Iterable[TupleT]],
    updates: Sequence[Mapping[str, Iterable[TupleT]]],
    config: Optional[EngineConfig] = None,
) -> Dict[str, Set[TupleT]]:
    """Converge on ``facts``, then apply each update batch incrementally.

    The per-rank asynchronous twin of
    :class:`~repro.runtime.incremental.FixpointHandle`: every rank keeps
    its shards live after convergence, ingests its arbitrary slice of
    each update batch (round-robin, modeling clients connected to random
    ranks), alltoall-routes the tuples to their owners, and resumes the
    semi-naïve loop until quiescent — raising the same
    :class:`~repro.runtime.incremental.IncrementalUnsupportedError` on
    every rank for unsupported programs or batches.  Returns each
    relation's final full contents (union across ranks), bit-identical
    to :func:`run_spmd_engine` on the union EDB.
    """
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
    """Run the rank programs and return each rank's private store as it
    stood at exit: entry ``r`` holds exactly the shards rank ``r`` owns
    (what makes this driver a reference for the BSP one)."""
    from repro.runtime.incremental import check_batch_supported, check_program_supported

    config = config or EngineConfig()
    compiled = compile_program(
        program,
        subbuckets=config.subbuckets,
        default_subbuckets=config.default_subbuckets,
    )
    if updates:
        check_program_supported(compiled)
    seed = HashSeed().derive(config.seed)
    # Pre-partition the input facts exactly as a parallel loader would.
    facts_by_rank: Dict[str, List[List[TupleT]]] = {}
    for name, rows in facts.items():
        if name not in compiled.schemas:
            raise KeyError(f"unknown relation {name!r}")
        dist = Distribution(compiled.schemas[name], config.n_ranks, seed)
        parts: List[List[TupleT]] = [[] for _ in range(config.n_ranks)]
        for t in rows:
            parts[dist.rank_of(tuple(t))].append(tuple(t))
        facts_by_rank[name] = parts

    # Update batches are sliced round-robin — tuples arrive at whichever
    # rank the client happened to reach; the seed exchange moves them to
    # their owners.
    edb_names = {d.name for d in compiled.program.edb}
    updates_by_rank: List[Dict[str, List[List[TupleT]]]] = []
    for batch in updates:
        unknown = sorted(set(batch) - edb_names)
        if unknown:
            raise KeyError(
                f"update batch names non-EDB relations {unknown}; "
                f"EDB relations: {sorted(edb_names)}"
            )
        check_batch_supported(compiled, batch.keys())
        by_rank: Dict[str, List[List[TupleT]]] = {}
        for name, rows in batch.items():
            tuples = sorted(tuple(t) for t in rows)
            by_rank[name] = [
                tuples[r :: config.n_ranks] for r in range(config.n_ranks)
            ]
        updates_by_rank.append(by_rank)

    return run_spmd(
        config.n_ranks,
        _rank_program,
        compiled,
        config,
        facts_by_rank,
        updates_by_rank,
    )
