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
studies.  (This engine is for validation and moderate rank counts; it
shares the shard, distribution, and compiled-rule code with the BSP
engine, so there is exactly one implementation of the semantics.)
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.comm.asyncmpi import AsyncComm, run_spmd
from repro.core.local_agg import make_shard, _ShardBase
from repro.kernels.absorb import vector_combiner
from repro.kernels.route import decode_boxes, encode_boxes
from repro.planner.ast import Program
from repro.planner.compile_rules import CompiledProgram, CompiledRule, compile_program
from repro.relational.distribution import Distribution
from repro.runtime.config import EngineConfig
from repro.util.hashing import HashSeed

TupleT = Tuple[int, ...]
ShardKey = Tuple[int, int]


class _RankState:
    """One rank's private view: its shards of every relation."""

    def __init__(self, rank: int, compiled: CompiledProgram, config: EngineConfig):
        self.rank = rank
        self.config = config
        seed = HashSeed().derive(config.seed)
        self.dist: Dict[str, Distribution] = {
            name: Distribution(schema, config.n_ranks, seed)
            for name, schema in compiled.schemas.items()
        }
        self.shards: Dict[str, Dict[ShardKey, _ShardBase]] = {
            name: {} for name in compiled.schemas
        }
        self.compiled = compiled

    # ----------------------------------------------------------------- store

    def shard(self, name: str, key: ShardKey) -> _ShardBase:
        shards = self.shards[name]
        s = shards.get(key)
        if s is None:
            s = make_shard(self.compiled.schemas[name], self.config.use_btree)
            shards[key] = s
        return s

    def absorb(self, name: str, tuples: Iterable[TupleT]) -> int:
        dist = self.dist[name]
        admitted = 0
        for t in tuples:
            key = (dist.bucket_of(t), dist.sub_of(t))
            admitted += self.shard(name, key).absorb([t])
        return admitted

    def advance(self, names: Iterable[str]) -> int:
        total = 0
        for name in names:
            for shard in self.shards[name].values():
                total += shard.advance()
        return total

    def size(self, name: str, version: str) -> int:
        return sum(
            s.delta_size() if version == "delta" else s.full_size()
            for s in self.shards[name].values()
        )

    def tuples(self, name: str, version: str) -> List[TupleT]:
        out: List[TupleT] = []
        for key in sorted(self.shards[name]):
            shard = self.shards[name][key]
            out.extend(
                shard.iter_delta() if version == "delta" else shard.iter_full()
            )
        return out

    def inner_indexes(self, name: str, bucket: int, version: str) -> List[dict]:
        dist = self.dist[name]
        schema = self.compiled.schemas[name]
        out = []
        for s in range(schema.n_subbuckets):
            if dist.owner(bucket, s) == self.rank:
                shard = self.shards[name].get((bucket, s))
                if shard is not None:
                    out.append(shard.delta if version == "delta" else shard.full)
        return out

    def install_delta(self, name: str, tuples: Iterable[TupleT]) -> int:
        """Replace this rank's Δ of ``name`` with the given local tuples.

        Mirrors :meth:`repro.relational.storage.VersionedRelation.install_delta`
        for the SPMD store: every existing shard's Δ is cleared, then the
        rows are regrouped by (bucket, sub) and installed sorted — the
        caller passes tuples this rank already owns, so no communication
        happens here.
        """
        schema = self.compiled.schemas[name]
        empty = np.empty((0, schema.arity), dtype=np.int64)
        for shard in self.shards[name].values():
            shard.install_delta(empty)
        dist = self.dist[name]
        by_key: Dict[ShardKey, List[TupleT]] = {}
        for t in tuples:
            by_key.setdefault((dist.bucket_of(t), dist.sub_of(t)), []).append(t)
        total = 0
        for key in sorted(by_key):
            rows = np.asarray(sorted(by_key[key]), dtype=np.int64)
            total += self.shard(name, key).install_delta(rows)
        return total


async def _eval_direction(
    comm: AsyncComm,
    state: _RankState,
    cr: CompiledRule,
    delta_atom: Optional[int],
) -> None:
    size = comm.Get_size()
    if not cr.is_join:
        version = "delta" if delta_atom == 0 else "full"
        match = cr.matches[0]
        emitted = [
            cr.emit(t, ())
            for t in state.tuples(cr.body_names[0], version)
            if match is None or match(t)
        ]
        await _route_and_absorb(comm, state, cr.head_name, emitted)
        return

    lver = "delta" if delta_atom == 0 else "full"
    rver = "delta" if delta_atom == 1 else "full"
    lname, rname = cr.body_names
    # ---- Algorithm 1: one-word vote; ties on empty ranks abstain when
    # configured, encoded as (vote, participating) pairs.
    lsize, rsize = state.size(lname, lver), state.size(rname, rver)
    if state.config.dynamic_join:
        participating = 1 if (lsize or rsize or not state.config.vote_abstain_empty) else 0
        pair = (participating * (1 if lsize >= rsize else 0), participating)
        votes, voters = await comm.allreduce(
            pair, op=lambda a, b: (a[0] + b[0], a[1] + b[1])
        )
        threshold = (max(voters, 1) + 1) // 2
        outer_is_left = not (votes >= threshold)
    else:
        outer_is_left = state.config.static_outer == "left"

    if outer_is_left:
        outer_name, outer_ver, inner_name, inner_ver = lname, lver, rname, rver
        probe_get = cr.probe_get_left
        outer_match, inner_match = cr.matches[0], cr.matches[1]
    else:
        outer_name, outer_ver, inner_name, inner_ver = rname, rver, lname, lver
        probe_get = cr.probe_get_right
        outer_match, inner_match = cr.matches[1], cr.matches[0]
    inner_dist = state.dist[inner_name]
    n_sub = state.compiled.schemas[inner_name].n_subbuckets

    # ---- intra-bucket exchange: replicate outer tuples to the inner
    # bucket's sub-bucket owners.
    sends: List[List[Tuple[int, TupleT]]] = [[] for _ in range(size)]
    for t in state.tuples(outer_name, outer_ver):
        if outer_match is not None and not outer_match(t):
            continue
        jk = probe_get(t)
        b = inner_dist.bucket_of_key(jk)
        for dst in dict.fromkeys(inner_dist.owner(b, s) for s in range(n_sub)):
            sends[dst].append((b, t))
    received = await comm.alltoall(sends)

    # ---- local join against this rank's inner shards.
    emit = cr.emit
    emitted: List[TupleT] = []
    for batch in received:
        for b, t in batch:
            indexes = state.inner_indexes(inner_name, b, inner_ver)
            if not indexes:
                continue
            jk = probe_get(t)
            for index in indexes:
                group = index.get(jk)
                if not group:
                    continue
                for inner_t in group.values():
                    if inner_match is not None and not inner_match(inner_t):
                        continue
                    emitted.append(
                        emit(t, inner_t) if outer_is_left else emit(inner_t, t)
                    )
    await _route_and_absorb(comm, state, cr.head_name, emitted)


async def _route_and_absorb(
    comm: AsyncComm, state: _RankState, head_name: str, emitted: List[TupleT]
) -> None:
    size = comm.Get_size()
    dist = state.dist[head_name]
    sends: List[List[TupleT]] = [[] for _ in range(size)]
    for t in emitted:
        sends[dist.rank_of(t)].append(t)
    wire = state.config.wire
    if not wire.enabled:
        received = await comm.alltoall(sends)
        for batch in received:
            state.absorb(head_name, batch)
        return

    # Wire layer (mirrors the BSP engine, through the same batched
    # kernels): fold duplicates per independent key where the aggregate
    # lattice allows, ship compact encoded payloads, and let the modeled
    # collective autotune.
    schema = state.compiled.schemas[head_name]
    if schema.is_aggregate:
        comb = vector_combiner(schema.aggregator)
        can_combine = comb is not None and comb.combinable
    else:
        comb, can_combine = None, True
    n_rows, payloads = encode_boxes(
        [
            np.asarray(batch, dtype=np.int64).reshape(-1, schema.arity)
            for batch in sends
        ],
        wire.codec,
        n_indep=schema.n_indep,
        combiner=comb,
        combine=wire.sender_combine and can_combine,
    )
    received_packed = await comm.alltoall(
        list(zip(n_rows, payloads)), collective=wire.alltoallv
    )
    for rows in decode_boxes(
        [payload for _n, payload in received_packed],
        [n for n, _payload in received_packed],
        schema.arity,
        wire.codec,
    ):
        if rows.shape[0]:
            state.absorb(head_name, [tuple(t) for t in rows.tolist()])


async def _recursive_loop(comm, state, stratum, rules, changed) -> None:
    """Drain one recursive stratum to quiescence (shared cold/incremental)."""
    config = state.config
    iterations = 0
    while changed and iterations < config.max_iterations:
        iterations += 1
        for cr in rules:
            for i, rel_name in enumerate(cr.body_names):
                if rel_name in stratum.relations:
                    await _eval_direction(comm, state, cr, delta_atom=i)
        local_new = state.advance(stratum.relations)
        changed = await comm.allreduce(local_new)
    if changed:
        raise RuntimeError(
            f"stratum {stratum.relations} did not converge on rank "
            f"{comm.Get_rank()}"
        )


async def _cold_fixpoint(comm, state, compiled) -> None:
    """Run every stratum from the currently loaded EDB to fixpoint."""
    for stratum in compiled.strata:
        rules = compiled.rules_of(stratum)
        for cr in rules:
            await _eval_direction(comm, state, cr, delta_atom=None)
        local_new = state.advance(stratum.relations)
        changed = await comm.allreduce(local_new)
        if stratum.recursive:
            await _recursive_loop(comm, state, stratum, rules, changed)


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
        dist = state.dist[name]
        sends: List[List[TupleT]] = [[] for _ in range(size)]
        for t in batch_parts[name]:
            sends[dist.rank_of(tuple(t))].append(tuple(t))
        received = await comm.alltoall(sends)
        for batch in received:
            state.absorb(name, sorted(batch))
        state.advance([name])
        seeded[name] = await comm.allreduce(state.size(name, "delta"))
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
    detail = ""
    for name in sorted(names):
        schema = state.compiled.schemas[name]
        n = schema.n_indep
        keys = baselines[name]
        for t in state.tuples(name, "delta"):
            if t[:n] in keys:
                detail = (
                    f"update improved existing group {t[:n]} of aggregate "
                    f"relation {name!r}, which is read outside its own "
                    "stratum — downstream tuples derived from the old "
                    "value cannot be retracted by insertion-only "
                    "maintenance"
                )
                break
        if detail:
            break
    found = await comm.allgather(detail)
    for msg in found:
        if msg:
            from repro.runtime.incremental import IncrementalUnsupportedError

            raise IncrementalUnsupportedError(msg)


async def _apply_update_spmd(
    comm: AsyncComm,
    state: _RankState,
    compiled: CompiledProgram,
    batch_parts: Mapping[str, List[TupleT]],
    watch: Set[str],
) -> None:
    """One incremental update batch: seed, resume strata, clear Δ."""
    baselines: Dict[str, Set[TupleT]] = {}
    for name in sorted(watch):
        n = compiled.schemas[name].n_indep
        baselines[name] = {t[:n] for t in state.tuples(name, "full")}

    seeded = await _seed_update_spmd(comm, state, batch_parts)
    await _check_improvements_spmd(
        comm, state, set(seeded) & watch, baselines
    )
    pending = {n for n, c in seeded.items() if c}
    touched = set(batch_parts)

    for stratum in compiled.strata:
        rules = compiled.rules_of(stratum)
        relevant = [
            (cr, [i for i, n in enumerate(cr.body_names) if n in pending])
            for cr in rules
        ]
        relevant = [(cr, idxs) for cr, idxs in relevant if idxs]
        if not relevant:
            continue
        if stratum.recursive:
            before = {
                name: set(state.tuples(name, "full"))
                for name in stratum.relations
            }
        for cr, idxs in relevant:
            for i in idxs:
                await _eval_direction(comm, state, cr, delta_atom=i)
        local_new = state.advance(stratum.relations)
        changed_count = await comm.allreduce(local_new)
        changed_names: Set[str] = set()
        if stratum.recursive:
            await _recursive_loop(comm, state, stratum, rules, changed_count)
            # Downstream Δ = final full-version growth, never the
            # transient Δs the loop burned through (paper §III-A).
            for name in stratum.relations:
                diff = set(state.tuples(name, "full")) - before[name]
                n_global = await comm.allreduce(
                    state.install_delta(name, diff)
                )
                if n_global:
                    changed_names.add(name)
        else:
            for name in sorted({cr.head_name for cr, _ in relevant}):
                if await comm.allreduce(state.size(name, "delta")):
                    changed_names.add(name)
        await _check_improvements_spmd(
            comm, state, changed_names & watch, baselines
        )
        pending |= changed_names
        touched |= changed_names

    for name in sorted(touched):
        state.install_delta(name, ())


async def _rank_program(
    comm: AsyncComm,
    program: Program,
    config: EngineConfig,
    facts_by_rank: Mapping[str, List[List[TupleT]]],
    updates_by_rank: Sequence[Mapping[str, List[List[TupleT]]]] = (),
) -> Dict[str, Set[TupleT]]:
    compiled = compile_program(
        program,
        subbuckets=config.subbuckets,
        default_subbuckets=config.default_subbuckets,
    )
    state = _RankState(comm.Get_rank(), compiled, config)
    for name, parts in facts_by_rank.items():
        state.absorb(name, parts[comm.Get_rank()])
        state.advance([name])

    await _cold_fixpoint(comm, state, compiled)

    if updates_by_rank:
        from repro.runtime.incremental import improvable_watch

        watch = improvable_watch(compiled)
        for batch in updates_by_rank:
            parts = {
                name: rows[comm.Get_rank()] for name, rows in batch.items()
            }
            await _apply_update_spmd(comm, state, compiled, parts, watch)

    return {
        name: set(state.tuples(name, "full")) for name in compiled.schemas
    }


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

    results = run_spmd(
        config.n_ranks,
        _rank_program,
        program,
        config,
        facts_by_rank,
        updates_by_rank,
    )
    merged: Dict[str, Set[TupleT]] = {}
    for per_rank in results:
        for name, tuples in per_rank.items():
            merged.setdefault(name, set()).update(tuples)
    return merged
