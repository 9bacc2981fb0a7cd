"""A bulk-synchronous simulated MPI cluster.

:class:`SimCluster` models ``P`` logical ranks executing BSP supersteps.
It is the substrate under the PARALAGG runtime: the engine partitions data
into per-rank structures and uses the cluster's collectives to move it.

Two properties make the simulation *honest*:

1.  **Payloads are real.**  ``alltoallv`` receives a table of boxes and
    physically routes them; nothing reaches a rank except through a
    collective.  Communication volume is measured from actual payload
    sizes.
2.  **Costs are charged where the paper pays them.**  Every collective
    charges the :class:`~repro.comm.costmodel.CostModel` and the
    :class:`~repro.comm.ledger.PhaseLedger`, so modeled time reflects the
    algorithm's true message pattern (e.g. Algorithm 1's 1-byte allreduce
    per join per iteration).

Sparse representation: with 16,384 ranks almost all send matrices are
sparse, so an exchange is a :class:`~repro.comm.boxes.BoxTable` — one
entry per box, with its source and destination rank as columns — not a
dense rank × rank matrix.  Sizing it (each rank's bytes and peers, one
message per distinct remote ``(src, dst)``) is a handful of
``np.bincount`` and grouping passes over those columns, and the delivery
is box indices, not copies.  Message faults take the same path: the
fault plane draws every wire message's fate at once, the receiver
rejects each corrupted copy (a per-message CRC-32 detects its one
flipped bit), and the delivery is the fault-free order with each
message's boxes repeated once per intact copy.

The cluster offers the three collectives the engine calls (``allreduce``,
``allgather``, ``alltoallv``) plus the uncharged ``agree``, under both
engine drivers: the BSP engine owns all its ranks, the per-rank driver
(:mod:`repro.runtime.spmd`) runs one engine per rank over one cluster.
"""

from __future__ import annotations

import random as _random
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

import numpy as np

from repro.comm.boxes import BoxTable, Delivery
from repro.comm.costmodel import BYTES_PER_WORD, CommEvent, CostModel
from repro.comm.ledger import PhaseLedger
from repro.faults.invariants import check_conservation
from repro.faults.plane import FaultPlane, classify_loss
from repro.kernels.block import concat_ranges, group_columns
from repro.obs.tracer import NULL_TRACER


class SimCluster:
    """``P`` logical ranks plus cost accounting.

    Parameters
    ----------
    n_ranks:
        Number of logical MPI ranks (processes) to simulate.
    cost_model:
        Interconnect/compute cost model; default approximates Theta.
    tracer:
        Observability sink (:class:`repro.obs.tracer.Tracer`).  The
        cluster's ledger emits per-rank ``comm`` spans — one lane entry
        per rank per collective, tagged with bytes moved and modeled
        seconds — through it.  Defaults to the zero-overhead no-op.
    comm_recorder:
        Diagnostics hook (:class:`repro.obs.analysis.CommMatrixRecorder`).
        When set, every :meth:`alltoallv` captures its rank×rank traffic
        matrix (bytes + tuple counts, retransmits in a separate channel).
        Observation only — charges and results are bit-identical with or
        without it.
    """

    def __init__(
        self,
        n_ranks: int,
        cost_model: Optional[CostModel] = None,
        *,
        reorder_seed: Optional[int] = None,
        tracer: Optional[object] = None,
        fault_plane: Optional[FaultPlane] = None,
        comm_recorder: Optional[object] = None,
    ):
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        self.n_ranks = n_ranks
        self.cost = cost_model or CostModel()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.ledger = PhaseLedger(n_ranks, tracer=self.tracer)
        # Failure injection: when set, every alltoallv delivery buffer is
        # shuffled before being handed to the receiver — modeling the
        # non-deterministic message arrival order of a real network.  A
        # correct engine must produce identical results (tested).
        self._reorder_rng = (
            None if reorder_seed is None else _random.Random(reorder_seed)
        )
        #: Deterministic fault injector (crash / drop / dup / corrupt /
        #: stragglers); None = perfect network, zero overhead.
        self.faults = fault_plane
        if fault_plane is not None:
            self.ledger.rank_scale = fault_plane.straggler_scale()
        #: Optional per-exchange rank×rank traffic capture (diagnostics).
        self.comm_recorder = comm_recorder
        #: Wire-layer accounting for route exchanges (PR 7): bytes the
        #: exchange *would* have shipped un-combined and un-encoded
        #: (``BoxTable.pre_rows`` × raw tuple size) vs bytes it actually put
        #: on the wire, plus collective-autotune outcomes.  Monotone for
        #: the cluster's lifetime; ``Engine._wire_exchange`` reads them
        #: as per-exchange deltas into its own counters, which rollback
        #: rewinds.
        self.route_precombine_bytes = 0
        self.route_wire_bytes = 0
        self.collective_counts: Dict[str, int] = {"direct": 0, "bruck": 0}

    @classmethod
    def from_config(cls, config, *, tracer=None, comm_recorder=None) -> "SimCluster":
        """The cluster an ``EngineConfig`` describes (cost model, fault
        plane with its stragglers, delivery reordering), for both drivers."""
        faults = config.faults.config
        return cls(
            config.n_ranks,
            config.cost_model,
            reorder_seed=config.reorder_messages_seed,
            tracer=tracer,
            fault_plane=None if faults is None else FaultPlane(faults, config.n_ranks),
            comm_recorder=comm_recorder,
        )

    # --------------------------------------------------------------- faults

    def _superstep(self, kind: str) -> int:
        """Advance the fault clock at a collective rendezvous.

        A due (or still-unrecovered) crash surfaces here as
        :class:`~repro.faults.plane.RankFailure` — the survivors time out
        waiting for the dead rank, so one barrier's worth of detection
        latency is charged to the ``recovery`` phase first.
        """
        plane = self.faults
        if plane is None:
            return 0
        step = plane.begin_superstep(kind)
        try:
            plane.check_alive(step, kind)
        except Exception:
            self.ledger.add_comm(
                CommEvent(
                    kind="fault_detect",
                    phase="recovery",
                    nbytes=0,
                    messages=self.n_ranks,
                    seconds=self.cost.barrier(self.n_ranks),
                )
            )
            raise
        return step

    # ------------------------------------------------------------ collectives

    def agree(self, per_rank_values: List[Any]) -> List[Any]:
        """Every rank's value, seen by every rank, uncharged: the identity
        here, composed from each rank's owner on a per-rank driver's slice.
        Each call site is a collective a real system would pay for."""
        return list(per_rank_values)

    def allreduce(
        self,
        per_rank_values: Mapping[int, Any] | List[Any],
        op: Callable[[Iterable[Any]], Any] = sum,
        *,
        nbytes: int = BYTES_PER_WORD,
        phase: str = "comm",
    ) -> Any:
        """Reduce one value per rank; every rank observes the result.

        ``per_rank_values`` may be a dense list of length ``P`` or a sparse
        mapping (absent ranks contribute nothing — the reduction ``op``
        receives only present values, callers supply identity semantics).
        """
        self._superstep("allreduce")
        if isinstance(per_rank_values, Mapping):
            values: Iterable[Any] = per_rank_values.values()
        else:
            if len(per_rank_values) != self.n_ranks:
                raise ValueError(
                    f"expected {self.n_ranks} values, got {len(per_rank_values)}"
                )
            values = per_rank_values
        result = op(values)
        self.ledger.add_comm(
            CommEvent(
                kind="allreduce",
                phase=phase,
                nbytes=nbytes * self.n_ranks,
                messages=self.n_ranks,
                seconds=self.cost.allreduce(self.n_ranks, nbytes),
            )
        )
        return result

    def allgather(
        self,
        per_rank_values: List[Any],
        *,
        nbytes_per_rank: int = BYTES_PER_WORD,
        phase: str = "comm",
    ) -> List[Any]:
        """Every rank contributes one value; all ranks see the full list."""
        self._superstep("allgather")
        if len(per_rank_values) != self.n_ranks:
            raise ValueError(
                f"expected {self.n_ranks} values, got {len(per_rank_values)}"
            )
        self.ledger.add_comm(
            CommEvent(
                kind="allgather",
                phase=phase,
                nbytes=nbytes_per_rank * self.n_ranks,
                messages=self.n_ranks,
                seconds=self.cost.allgather(self.n_ranks, nbytes_per_rank),
            )
        )
        return list(per_rank_values)

    def alltoallv(
        self,
        sends: "BoxTable | Mapping[int, Mapping[int, List[Any]]]",
        *,
        arity: int,
        phase: str = "comm",
        autotune: bool = False,
        kind: str = "alltoallv",
        channel: str = "data",
    ) -> Delivery:
        """Sparse all-to-all of a :class:`~repro.comm.boxes.BoxTable`.

        Parameters
        ----------
        sends:
            The exchange's boxes; a hand-written ``sends[src][dst]`` list
            of tuples is read as one box per tuple
            (:meth:`BoxTable.from_sends`).  Every ``(src, dst)`` pair with
            a box is one message.
        arity:
            Tuple width, for the raw size of boxes without ``nbytes``.
        autotune:
            Off, charge the pairwise ``direct`` algorithm (the historical
            behavior).  On, charge the cheaper of ``direct`` and Bruck
            under the α–β model from this exchange's observed message
            sizes.  The payload routing is identical either way (the
            simulation moves data once); only the charged seconds change,
            and each autotuned decision is recorded in
            ``collective_counts`` and as a ``collective_choice`` instant
            span.
        kind:
            Ledger/recorder tag for this exchange (the CommEvent kind and
            the CommMatrix kind).  A resize's redistribution passes
            ``"rebalance"`` so migration traffic stays separable from the
            fixpoint's own all-to-alls.
        channel:
            CommMatrix channel the charged traffic is recorded into
            (default ``"data"``; the rebalance exchange uses its own
            ``"rebalance"`` channel).

        A box is charged its ``nbytes`` (the wire layer's encoded size),
        else ``n_rows × arity`` words.  A table with ``pre_rows`` also
        accounts the counterfactual un-combined traffic — into the
        recorder's ``precombine`` channel and ``route_precombine_bytes``
        — so combining/codec savings stay measurable per edge and in
        total.

        Returns
        -------
        A :class:`~repro.comm.boxes.Delivery`: per receiving rank, the
        boxes addressed to it ordered by source rank, each message's
        boxes in table order (deterministic); receivers in the order a
        source-major sweep of the messages first reaches them.

        Local "sends" (``src == dst``) are delivered but cost nothing on the
        wire, as in MPI implementations that shortcut self-messages.

        Under an active fault plane every wire message's fate is drawn
        at once (:meth:`FaultPlane.fates`).  A corrupted copy fails the
        receiver's CRC-32 and is rejected; a message with no intact copy
        is retransmitted (bounded by ``FaultConfig.max_retries``, extra
        traffic charged to the ledger), and a duplicated one is
        delivered twice.  The
        delivery is the fault-free order with each message's boxes
        repeated once per intact copy, so the duplicates lie adjacent to
        their original.  Both paths finish with a tuple-conservation
        check — everything sent must arrive, plus exactly the counted
        duplicates.
        """
        table = sends if isinstance(sends, BoxTable) else BoxTable.from_sends(sends)
        plane = self.faults
        step = self._superstep("alltoallv")
        matrix = (
            self.comm_recorder.begin(kind, phase)
            if self.comm_recorder is not None
            else None
        )
        n_ranks = self.n_ranks
        src, dst = table.src, table.dst
        for ranks, what in ((dst, "destination"), (src, "source")):
            outside = (ranks < 0) | (ranks >= n_ranks)
            if outside.any():
                raise ValueError(f"{what} rank {int(ranks[outside][0])} out of range")
        # Messages: one per distinct (src, dst), in (src, dst) order; a
        # message's boxes keep their table order.
        order, starts, counts = group_columns([src, dst])
        heads = order[starts]
        m_src, m_dst = src[heads], dst[heads]
        m_rows = _message_sums(table.n_rows, order, starts)
        tuple_bytes = self.cost.tuple_bytes
        m_bytes = (
            tuple_bytes(m_rows, arity)
            if table.nbytes is None
            else _message_sums(table.nbytes, order, starts)
        )
        remote = m_src != m_dst
        r_src, r_dst, r_bytes = m_src[remote], m_dst[remote], m_bytes[remote]
        wire_messages = int(r_src.shape[0])
        wire_bytes = int(r_bytes.sum())
        # Each rank's bytes sent plus received, and its peers.
        weights = r_bytes.astype(np.float64)
        busiest = int((
            np.bincount(r_src, weights, n_ranks) + np.bincount(r_dst, weights, n_ranks)
        ).max())
        max_peers = int((
            np.bincount(r_src, minlength=n_ranks) + np.bincount(r_dst, minlength=n_ranks)
        ).max())
        if table.pre_rows is not None:
            m_pre = _message_sums(table.pre_rows, order, starts)
            pre_bytes = np.where(remote, tuple_bytes(m_pre, arity), 0)
            self.route_precombine_bytes += int(pre_bytes.sum())
            self.route_wire_bytes += wire_bytes
            if matrix is not None:
                matrix.add_messages(m_src, m_dst, pre_bytes, m_pre, "precombine")
        if matrix is not None:
            matrix.add_messages(
                m_src, m_dst, np.where(remote, m_bytes, 0), m_rows, channel
            )
        seconds = self.cost.alltoallv(n_ranks, busiest, max_peers)
        if autotune and n_ranks > 1:
            # Collective autotune: same observed message sizes, two
            # algorithm costs, charge the cheaper.  Data movement is
            # identical either way.
            direct_seconds = seconds
            bruck_seconds = self.cost.alltoallv_bruck(n_ranks, busiest)
            chosen = "bruck" if bruck_seconds < direct_seconds else "direct"
            saved = 0.0
            if chosen == "bruck":
                saved = direct_seconds - bruck_seconds
                seconds = bruck_seconds
            self.collective_counts[chosen] += 1
            self.tracer.instant(
                "collective_choice",
                cat="wire",
                attrs={
                    "phase": phase,
                    "chosen": chosen,
                    "direct_seconds": direct_seconds,
                    "bruck_seconds": bruck_seconds,
                    "saved_seconds": saved,
                    "max_rank_bytes": busiest,
                    "max_rank_peers": max_peers,
                    "messages": wire_messages,
                },
            )
        self.ledger.add_comm(
            CommEvent(
                kind=kind,
                phase=phase,
                nbytes=wire_bytes,
                messages=wire_messages,
                seconds=seconds,
            )
        )
        # Receivers in the order the (src, dst) sweep first reaches them,
        # each one's messages by source.
        receivers, first = np.unique(m_dst, return_index=True)
        key = np.zeros(n_ranks, dtype=np.int64)
        key[receivers] = first
        by_dst = np.argsort(key[m_dst], kind="stable")
        n_sent = int(table.n_rows.sum())
        msgs, n_delivered, n_dup_tuples = by_dst, n_sent, 0
        faulty = plane is not None and plane.has_message_faults
        if faulty:
            copies = self._intact_copies(
                plane, step, phase, matrix, m_src, m_dst, m_rows, m_bytes
            )
            msgs = np.repeat(by_dst, copies[by_dst])
            n_dup_tuples = int(((copies - 1) * m_rows).sum())
        delivered = order[concat_ranges(starts[msgs], counts[msgs])]
        if faulty:
            n_delivered = int(table.n_rows[delivered].sum())
        check_conservation(n_sent, n_delivered, n_dup_tuples)
        if self._reorder_rng is not None:
            shuffled: List[int] = []
            for _d, boxes in Delivery(table, delivered).boxes():
                buf = boxes.tolist()
                self._reorder_rng.shuffle(buf)
                shuffled += buf
            delivered = np.asarray(shuffled, dtype=np.int64)
        return Delivery(table, delivered)

    def _intact_copies(
        self, plane, step, phase, matrix, m_src, m_dst, m_rows, m_bytes
    ) -> np.ndarray:
        """How many intact copies of each message (grouped as in
        :meth:`alltoallv`) reach its receiver under message faults.

        Self-sends shortcut the wire: one copy, no draw.  Each wire
        message takes the plane's fate; every corrupted copy fails the
        receiver's CRC-32 and is rejected.  A message with no intact
        copy is retransmitted with fresh draws, one charged
        ``retransmit`` round per attempt; exhausting
        ``FaultConfig.max_retries`` raises
        :class:`~repro.faults.plane.MessageLossError`, escalated to
        :class:`~repro.faults.plane.PermanentRankFailure` when the peer
        is permanently dead (the failure detector's classification).
        """
        copies = np.ones(m_src.shape[0], dtype=np.int64)
        pending = np.flatnonzero(m_src != m_dst)
        attempt = 0
        while True:
            drawn, corrupted = plane.fates(
                step, m_src[pending], m_dst[pending], m_rows[pending], attempt
            )
            plane.stats.detected_corruptions += int(corrupted.sum())
            drawn -= corrupted
            copies[pending] = drawn
            pending = pending[drawn == 0]
            if not pending.shape[0]:
                return copies
            attempt += 1
            if attempt > plane.config.max_retries:
                lost = pending[0]
                raise classify_loss(plane, int(m_src[lost]), int(m_dst[lost]), attempt)
            round_bytes = m_bytes[pending]
            plane.stats.retransmits += pending.shape[0]
            plane.stats.retransmitted_bytes += int(round_bytes.sum())
            if matrix is not None:
                matrix.add_messages(
                    m_src[pending], m_dst[pending], round_bytes, m_rows[pending],
                    "retransmit",
                )
            self.ledger.add_comm(
                CommEvent(
                    kind="retransmit",
                    phase=phase,
                    nbytes=int(round_bytes.sum()),
                    messages=int(pending.shape[0]),
                    seconds=self.cost.alltoallv(self.n_ranks, int(round_bytes.max()), 1),
                )
            )


def _message_sums(
    values: np.ndarray, order: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Per message (``group_columns`` groups ``order``/``starts``), the sum
    of its boxes' ``values``."""
    if not starts.shape[0]:
        return np.zeros(0, dtype=np.int64)
    return np.add.reduceat(values[order], starts)
