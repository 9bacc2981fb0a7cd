"""Incremental fixpoint maintenance: keep a converged run hot, apply
EDB insertion batches, resume semi-naïve iteration until quiescence.

PARALAGG's fused dedup/aggregation makes converged state *reusable*:
every relation's full version is a sound under-approximation of the
least fixpoint over any enlarged EDB, and lattice absorption is
inflationary, so resuming chaotic semi-naïve iteration from the retained
state converges to exactly the cold-recompute fixpoint — bit-identical
answers and full-relation multisets.  A :class:`FixpointHandle` retains
the distributed state an :class:`~repro.runtime.engine.Engine` built
(row stores, placement including sub-bucket maps and any
``exclude_ranks`` degraded overlay, join-index caches, checkpointed counters)
and accepts update batches via :meth:`FixpointHandle.update`.

Each update:

1. routes the new tuples through the normal bucket/sub-bucket placement
   (``incremental_seed`` phase, ``update`` CommMatrix channel,
   codec-encoded under the wire layer) and seeds Δ only on affected
   ranks;
2. runs each stratum's *update pass* — one semi-naïve direction per
   pending body atom — then resumes the recursive loop to quiescence,
   with the cold loop's own checkpoint/rollback, rebalance, and wire
   behavior;
3. installs each changed relation's *final* change set (a set difference
   of full versions, never the intermediate Δs — transient aggregate
   improvements must not leak downstream, paper §III-A) as Δ for later
   strata;
4. clears every seeded Δ so the next update starts clean.

Insertion-only maintenance has two soundness boundaries, both rejected
loudly with :class:`IncrementalUnsupportedError` instead of silently
diverging from the cold run:

* **Non-idempotent double-delta**: a rule with two or more pending body
  atoms over-delivers the Δ⋈Δ pairs (once per direction).  Idempotent
  lattices (MIN/MAX/ANY/UNION/MCOUNT) absorb the repeat harmlessly —
  exactly as the cold engine's two-recursive-atom iterations do — but
  SUM/COUNT heads would double-count.
* **Aggregate improvement visible downstream**: when an update improves
  an *existing* aggregate group, the old value conceptually retracts —
  but a downstream relation that already materialized tuples derived
  from it cannot un-derive them.  New groups are always fine; an
  improved group is only rejected when some rule outside the aggregate's
  own stratum reads it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

import numpy as np

from repro.comm.boxes import BoxTable
from repro.comm.wire import payload_codec
from repro.faults.plane import PermanentRankFailure, RankFailure
from repro.kernels.block import KeyIndex, lex_group
from repro.kernels.route import decode_wire_boxes, encode_wire_sends
from repro.planner.compile_rules import CompiledProgram
from repro.planner.stratify import Stratum
from repro.runtime.engine import P_SEED, Engine
from repro.runtime.result import FixpointResult

TupleT = Tuple[int, ...]


class IncrementalUnsupportedError(RuntimeError):
    """The program or update batch is outside insertion-only maintenance."""


def _defining_stratum(compiled: CompiledProgram) -> Dict[str, int]:
    """relation name → index of the stratum whose loop defines it."""
    out: Dict[str, int] = {}
    for stratum in compiled.strata:
        for name in stratum.relations:
            out[name] = stratum.index
    return out


def check_program_supported(compiled: CompiledProgram) -> None:
    """Structural gate: reject programs incremental resume cannot replay.

    A plain (set-semantics) head that reads an aggregate relation of its
    *own* recursive stratum records that aggregate's transient value
    trajectory — trajectory-dependent even cold, and a resumed trajectory
    is legitimately different.  Everything else is trajectory-independent
    (the least fixpoint is unique) and supported.
    """
    for stratum in compiled.strata:
        if not stratum.recursive:
            continue
        for cr in compiled.rules_of(stratum):
            head = compiled.schemas[cr.head_name]
            if head.is_aggregate:
                continue
            for body in cr.body_names:
                if (
                    body in stratum.relations
                    and compiled.schemas[body].is_aggregate
                ):
                    raise IncrementalUnsupportedError(
                        f"rule {cr.rule!r}: plain head {cr.head_name!r} "
                        f"reads aggregate {body!r} of its own recursive "
                        "stratum — its contents depend on the Δ "
                        "trajectory, which incremental resume does not "
                        "preserve"
                    )


def improvable_watch(compiled: CompiledProgram) -> Set[str]:
    """Aggregate relations whose group *improvements* have readers.

    An aggregate read only inside its defining stratum participates in
    the lattice fixpoint (improvements are absorbed, order-independent).
    One read from outside — a later stratum, or any rule at all for an
    aggregate EDB — materializes derived tuples insertion-only
    maintenance cannot retract, so those relations are watched per
    update: an improvement of an existing group there aborts the update.
    """
    defined_in = _defining_stratum(compiled)
    watch: Set[str] = set()
    for stratum in compiled.strata:
        for cr in compiled.rules_of(stratum):
            for body in cr.body_names:
                if not compiled.schemas[body].is_aggregate:
                    continue
                home = defined_in.get(body)
                if home is None or home != stratum.index:
                    watch.add(body)
    return watch


def check_batch_supported(
    compiled: CompiledProgram, batch_names: Iterable[str]
) -> None:
    """Per-batch gate: reject non-idempotent double-delta evaluation.

    Propagates a conservative pending set through the strata (every
    relation the batch could possibly change) and rejects any rule that
    would evaluate two pending directions into a non-idempotent
    (SUM/COUNT) head — those Δ⋈Δ pairs are delivered once per direction
    and would double-count.  Pure: raises before anything is mutated.
    """
    pending = set(batch_names)
    for stratum in compiled.strata:
        touched = False
        for cr in compiled.rules_of(stratum):
            idxs = [i for i, n in enumerate(cr.body_names) if n in pending]
            if not idxs:
                continue
            touched = True
            head = compiled.schemas[cr.head_name]
            if len(idxs) >= 2 and head.is_aggregate and not head.aggregator.idempotent:
                raise IncrementalUnsupportedError(
                    f"rule {cr.rule!r}: update batch makes {len(idxs)} body "
                    f"atoms pending at once, and head aggregator "
                    f"{head.aggregator.name} is not idempotent — the Δ⋈Δ "
                    "join pairs would be double-counted; split the batch "
                    "so only one body relation changes per update"
                )
        if touched:
            pending |= set(stratum.relations)
            pending |= {
                cr.head_name
                for cr in compiled.rules_of(stratum)
                if any(n in pending for n in cr.body_names)
            }


def full_index(rel, n_cols: int) -> KeyIndex:
    """An exact index over the first ``n_cols`` columns of every row of
    ``rel``'s full version: the pre-update snapshot an update's membership
    tests read (group keys, or whole rows)."""
    return KeyIndex(rel.table.stored()[0][:, :n_cols])


class FixpointHandle:
    """A converged fixpoint kept hot for incremental EDB updates.

    Wraps an :class:`~repro.runtime.engine.Engine` *after* convergence
    (constructing a handle on an un-run engine runs it first; a run
    engine's last result is reused) and keeps
    every piece of distributed state live: shards, sub-bucket placement,
    degraded-mode overlays, join-index caches, and the checkpointed counters —
    so each :meth:`update` resumes exactly where the last fixpoint
    stopped.

    The correctness contract is absolute: after any update sequence,
    :meth:`result` is bit-identical (answers and final full-relation
    multisets) to a cold recompute on the union of all EDB facts ever
    loaded.  Updates that would break that contract raise
    :class:`IncrementalUnsupportedError` *before* answering wrong, and
    poison the handle (the retained state may be half-updated).
    """

    def __init__(self, engine: Engine, result: Optional[FixpointResult] = None):
        self.engine = engine
        check_program_supported(engine.compiled)
        if result is None:
            result = engine.last_result or engine.run()
        self._result = result
        self._edb_names = {d.name for d in engine.compiled.program.edb}
        self._watch = improvable_watch(engine.compiled)
        self._updates = 0
        self._poisoned: Optional[str] = None

    # ------------------------------------------------------------ construct

    @classmethod
    def converge(
        cls,
        program,
        facts: Mapping[str, Iterable[TupleT]],
        config=None,
    ) -> "FixpointHandle":
        """Build an engine, load ``facts``, run to fixpoint, retain state."""
        engine = Engine(program, config)
        for name, rows in facts.items():
            engine.load(name, rows)
        return cls(engine)

    # -------------------------------------------------------------- queries

    def result(self) -> FixpointResult:
        """The current :class:`FixpointResult` (refreshed by every update)."""
        self._check_alive()
        return self._result

    def query(self, name: str) -> Set[TupleT]:
        """A relation's current full contents as a set of tuples."""
        self._check_alive()
        return self.engine.store[name].as_set()

    @property
    def updates(self) -> int:
        """Number of update batches applied so far."""
        return self._updates

    def _check_alive(self) -> None:
        if self._poisoned is not None:
            raise IncrementalUnsupportedError(
                f"handle poisoned by a failed update: {self._poisoned}; "
                "re-run cold on the union EDB"
            )

    # -------------------------------------------------------------- updates

    def update(
        self, edb_deltas: Mapping[str, Iterable[TupleT]]
    ) -> FixpointResult:
        """Apply one batch of EDB insertions and resume to quiescence.

        ``edb_deltas`` maps EDB relation names to new fact tuples (sets;
        duplicates of already-loaded facts are absorbed away).  Returns
        the refreshed :class:`FixpointResult`; modeled time grows only by
        the update's own cost, so ``result().modeled_seconds()`` deltas
        measure incremental speed.
        """
        self._check_alive()
        engine = self.engine
        unknown = sorted(set(edb_deltas) - self._edb_names)
        if unknown:
            raise KeyError(
                f"update batch names non-EDB relations {unknown}; "
                f"EDB relations: {sorted(self._edb_names)}"
            )
        check_batch_supported(engine.compiled, edb_deltas.keys())
        batch = {
            name: engine.store[name].rows_of(rows)
            for name, rows in edb_deltas.items()
        }
        n_rows = sum(a.shape[0] for a in batch.values())
        with engine.tracer.span(
            "update",
            cat="run",
            attrs={
                "batch": self._updates,
                "relations": sorted(batch),
                "tuples": n_rows,
            },
        ):
            # Pre-update group keys of every watched aggregate relation.
            baselines = {
                name: full_index(engine.store[name], engine.store[name].schema.n_indep)
                for name in self._watch
            }
            try:
                seeded = self._seed_update(batch)
                touched = set(batch)
                self._check_improvements(
                    set(seeded) & self._watch, baselines
                )
                pending = {n for n, c in seeded.items() if c}
                for stratum in engine.compiled.strata:
                    changed = self._resume_stratum(stratum, pending)
                    self._check_improvements(
                        set(changed) & self._watch, baselines
                    )
                    pending |= set(changed)
                    touched |= set(changed)
            except IncrementalUnsupportedError as exc:
                self._poisoned = str(exc)
                raise
            # Leave no Δ behind: the next update (or plain queries over
            # the retained state) must see a quiescent store.
            for name in sorted(touched):
                engine.store[name].install_delta(None)
        engine.counters["updates"] += 1
        engine.counters["update_batch_tuples"] += n_rows
        self._updates += 1
        self._result = engine._build_result()
        return self._result

    def _seed_update(self, edb_deltas: Dict[str, np.ndarray]) -> Dict[str, int]:
        """Route one EDB insertion batch to its home shards (update seed).

        Models the batch arriving round-robin across ranks and being
        alltoallv'd to owner ranks through the normal bucket/sub-bucket
        placement — charged to the ``incremental_seed`` phase with its own
        ledger kind and CommMatrix ``update`` channel, payloads codec-
        encoded when the wire layer is on.  Each relation's stale Δ (the
        full content ``Engine.load`` leaves behind, or a previous
        update's seed) is flushed first; afterwards Δ holds exactly the
        batch rows newly admitted on the affected ranks.

        A restartable rank crash during the exchange retries after
        ``FaultPlane.mark_restarted`` — nothing has been absorbed yet, so
        the retry replays bit-identically.  Returns each relation's
        global Δ size.
        """
        engine = self.engine
        cluster, wire = engine.cluster, engine.wire
        cost = cluster.cost
        n_ranks = engine.config.n_ranks
        out: Dict[str, int] = {}
        for name in sorted(edb_deltas):
            rel = engine.store[name]
            arr = edb_deltas[name]
            rel.install_delta(None)  # flush the stale Δ left by load()
            if not arr.shape[0]:
                out[name] = 0
                continue
            arr = np.unique(arr, axis=0)  # distinct rows, lexicographic
            with engine.timer.phase(P_SEED):
                dst_arr = rel.dist.rank_of_rows(arr)
                src_arr = np.arange(arr.shape[0], dtype=np.int64) % n_ranks
                order, starts, counts = lex_group(
                    np.column_stack([src_arr, dst_arr])
                )
                heads = order[starts]
                sends = BoxTable(
                    src_arr[heads], dst_arr[heads], counts, rows=arr[order]
                )
                codec = payload_codec(wire)
                if wire:
                    sends = encode_wire_sends(sends, codec=codec)
                attempts = 0
                while True:
                    try:
                        recv = cluster.alltoallv(
                            sends,
                            arity=rel.schema.arity,
                            phase=P_SEED,
                            kind="incremental_seed",
                            channel="update",
                            autotune=wire,
                        )
                        break
                    except PermanentRankFailure:
                        raise
                    except RankFailure as failure:
                        # Nothing absorbed yet: restart the rank and replay
                        # the exchange, within the fault plane's own retry
                        # budget (then escalate).
                        attempts += 1
                        faults = engine.config.faults.config
                        if faults is None or attempts > faults.max_retries:
                            raise
                        engine.fault_plane.mark_restarted(failure.rank)
                        engine.counters["update_seed_retries"] += 1
                # Owners load the rows delivered to them: distinct (a
                # duplicated delivery loads once) and in lexicographic
                # order, the batch's own order.
                runs = decode_wire_boxes(recv, rel.schema.arity, codec)
                rel.load(np.unique(
                    np.concatenate([rows for _boxes, rows, _header in runs])
                    if runs else arr[:0],
                    axis=0,
                ))
                rel.advance()
                per_rank_adm = rel.sizes_by_rank("delta")
                cluster.ledger.add_compute_step(
                    P_SEED,
                    np.bincount(dst_arr, minlength=n_ranks)
                    * (cost.tuple_agg * cost.compute_scale)
                    + per_rank_adm * (cost.tuple_insert * cost.compute_scale),
                )
            n = self._agreed_sizes({name: per_rank_adm}).get(name, 0)
            engine.counters["update_seed_tuples"] += n
            out[name] = n
        return out

    def _agreed_sizes(self, by_rank: Dict[str, np.ndarray]) -> Dict[str, int]:
        """Global Δ size of each relation in ``by_rank`` (its per-rank Δ
        sizes) that has one — every rank reads them uncharged (``agree``)
        to decide what is pending next."""
        engine = self.engine
        names = sorted(by_rank)
        rows = engine.cluster.agree([
            tuple(int(by_rank[name][r]) for name in names)
            for r in range(engine.config.n_ranks)
        ])
        totals = [sum(col) for col in zip(*rows)]
        return {name: n for name, n in zip(names, totals) if n}

    def _resume_stratum(self, stratum: Stratum, pending: Set[str]) -> Dict[str, int]:
        """Resume one stratum from converged state after new Δs.

        Runs the engine's one stratum loop with the *update pass* as its
        first pass — each rule once per pending body position, absorbing
        into heads exactly as a cold iteration would — instead of the
        naive seed pass; recursive strata then continue the normal
        semi-naïve iterations to quiescence, with the loop's own
        checkpoint/rollback, rebalance and wire behavior.  Because the
        converged state is a sound under-approximation of the union-EDB
        least fixpoint and absorption is inflationary, resuming from it
        converges to the same lattice point a cold recompute reaches.

        Afterwards the stratum's *change set* — the set difference of
        each relation's full version against its pre-update contents, not
        the intermediate Δs (transient aggregate improvements must never
        leak downstream) — is installed as Δ for later strata, in
        lexicographic order: the full rows an exact index over the
        pre-update rows misses.  The index is host-side bookkeeping
        standing in for the touched-group tracking a real rank keeps
        during absorption, so only the installed change rows are charged
        (``incremental_seed`` phase).
        A stratum no pending Δ reaches is skipped for free.  Returns
        ``{relation: installed Δ size}`` for relations that changed.
        """
        engine = self.engine
        update_pass = [
            (cr, i)
            for cr in engine.compiled.rules_of(stratum)
            for i, name in enumerate(cr.body_names)
            if name in pending
        ]
        if not update_pass:
            return {}
        if not stratum.recursive:
            engine._stratum_loop(stratum, update_pass)
            return self._agreed_sizes({
                name: engine.store[name].sizes_by_rank("delta")
                for name in {cr.head_name for cr, _ in update_pass}
            })
        names = sorted(stratum.relations)
        with engine.timer.phase(P_SEED):
            before = {
                name: full_index(engine.store[name], engine.store[name].schema.arity)
                for name in names
            }
        engine._stratum_loop(stratum, update_pass)
        by_rank: Dict[str, np.ndarray] = {}
        with engine.timer.phase(P_SEED):
            for name in names:
                rel = engine.store[name]
                full = rel.table.stored()[0]
                diff = full[before[name].find(full, sort=True) < 0]
                rel.install_delta(np.unique(diff, axis=0) if diff.shape[0] else None)
                by_rank[name] = rel.sizes_by_rank("delta")
        out = self._agreed_sizes(by_rank)
        if out:
            per_rank = sum(by_rank.values())
            cost = engine.cluster.cost
            engine.cluster.ledger.add_compute_step(
                P_SEED, per_rank * (cost.tuple_insert * cost.compute_scale)
            )
        return out

    def _check_improvements(
        self, names: Set[str], baselines: Dict[str, KeyIndex]
    ) -> None:
        """Abort if the Δ of any of ``names`` improves a group that
        existed before the update (``baselines``).

        The check is local to each rank's shards; the verdict is every
        rank's (``agree``), so all of them abort together.
        """
        engine = self.engine
        found = None
        for name in sorted(names):
            rel = engine.store[name]
            keys = rel.table.version_block("delta")[:, : rel.schema.n_indep]
            hit = np.flatnonzero(baselines[name].find(keys) >= 0)
            if hit.shape[0]:
                found = (
                    f"update improved existing group "
                    f"{tuple(keys[hit[0]].tolist())} of aggregate relation "
                    f"{name!r}, which is read outside its own stratum — "
                    "downstream tuples derived from the old value cannot "
                    "be retracted by insertion-only maintenance"
                )
                break
        for reason in engine.cluster.agree([found] * engine.config.n_ranks):
            if reason is not None:
                raise IncrementalUnsupportedError(reason)  # update() poisons
