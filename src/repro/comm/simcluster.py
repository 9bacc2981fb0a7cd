"""A bulk-synchronous simulated MPI cluster.

:class:`SimCluster` models ``P`` logical ranks executing BSP supersteps.
It is the substrate under the PARALAGG runtime: the engine partitions data
into per-rank structures and uses the cluster's collectives to move it.

Two properties make the simulation *honest*:

1.  **Payloads are real.**  ``alltoallv`` receives per-destination lists of
    tuples and physically routes them; nothing reaches a rank except through
    a collective.  Communication volume is measured from actual payload
    sizes.
2.  **Costs are charged where the paper pays them.**  Every collective
    charges the :class:`~repro.comm.costmodel.CostModel` and the
    :class:`~repro.comm.ledger.PhaseLedger`, so modeled time reflects the
    algorithm's true message pattern (e.g. Algorithm 1's 1-byte allreduce
    per join per iteration).

Sparse representation: with 16,384 ranks almost all send matrices are
sparse, so sends are ``dict[dst, payload]`` per source, not dense lists.

The cluster offers the three collectives the engine calls (``allreduce``,
``allgather``, ``alltoallv``) plus the uncharged ``agree``, under both
engine drivers: the BSP engine owns all its ranks, the per-rank driver
(:mod:`repro.runtime.spmd`) runs one engine per rank over one cluster.
"""

from __future__ import annotations

import random as _random
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.comm.costmodel import BYTES_PER_WORD, CommEvent, CostModel
from repro.comm.ledger import PhaseLedger
from repro.faults.invariants import check_conservation
from repro.faults.plane import FaultPlane, classify_loss, payload_checksum
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
        #: (``pre_count_of`` × raw tuple size) vs bytes it actually put
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
        faults = config.faults
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
        sends: Mapping[int, Mapping[int, List[Any]]],
        *,
        arity: int,
        phase: str = "comm",
        count_of: Optional[Callable[[Any], int]] = None,
        nbytes_of: Optional[Callable[[Any], int]] = None,
        pre_count_of: Optional[Callable[[Any], int]] = None,
        autotune: bool = False,
        kind: str = "alltoallv",
        channel: str = "data",
    ) -> Dict[int, List[Any]]:
        """Sparse all-to-all of tuple payloads.

        Parameters
        ----------
        sends:
            ``sends[src][dst]`` is the list of tuples rank ``src`` sends to
            rank ``dst``.  Sparse: absent entries send nothing.
        arity:
            Tuple width, for serialized-size accounting.
        count_of:
            When payload items are *batches* rather than single tuples,
            maps an item to its tuple count (size accounting stays exact).
        nbytes_of:
            Per-item wire size override.  Default charges the raw tuple
            size (``count × arity × 8``); the wire layer passes the
            *encoded* size of each box instead, so codecs are charged for
            the bytes they actually ship.
        pre_count_of:
            Per-item *pre-combine* tuple count.  When given, the exchange
            also accounts the counterfactual un-optimized traffic — into
            the recorder's ``precombine`` channel and the cluster's
            ``route_precombine_bytes`` — so combining/codec savings stay
            measurable per edge and in total.
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
            the CommMatrix kind).  The rebalancer's redistribution passes
            ``"rebalance"`` so migration traffic stays separable from the
            fixpoint's own all-to-alls.
        channel:
            CommMatrix channel the charged traffic is recorded into
            (default ``"data"``; the rebalance exchange uses its own
            ``"rebalance"`` channel).

        Returns
        -------
        ``recv[dst]`` — concatenation of all payloads addressed to ``dst``,
        ordered by source rank (deterministic).

        Local "sends" (``src == dst``) are delivered but cost nothing on the
        wire, as in MPI implementations that shortcut self-messages.

        Under an active fault plane every wire message carries a CRC-32
        envelope: dropped or corrupted copies are detected by the receiver
        and retransmitted (bounded by ``FaultConfig.max_retries``, extra
        traffic charged to the ledger); duplicated copies are delivered
        twice.  Each delivery keeps its send-loop sequence number, so after
        retransmission the receive buffers are reassembled in the exact
        order a fault-free exchange would produce (duplicates adjacent to
        their original).  Both paths finish with a tuple-conservation
        check — everything sent must arrive, plus exactly the counted
        duplicates.
        """
        plane = self.faults
        step = self._superstep("alltoallv")
        matrix = (
            self.comm_recorder.begin(kind, phase)
            if self.comm_recorder is not None
            else None
        )
        recv: Dict[int, List[Any]] = {}
        sent_bytes: Dict[int, int] = {}
        recv_bytes: Dict[int, int] = {}
        peers: Dict[int, int] = {}
        wire_messages = 0
        wire_bytes = 0
        n_sent = 0
        n_delivered = 0
        n_dup_tuples = 0
        faulty = plane is not None and plane.has_message_faults
        #: Deliveries under faults: slots[dst] holds (seq, payload) pairs,
        #: reassembled into source order once retransmission settles.
        slots: Dict[int, List[Tuple[int, Any]]] = {}
        #: Wire messages with zero intact deliveries: (seq, src, dst,
        #: payload, checksum, n_tuples, nbytes) awaiting retransmission.
        pending: List[Tuple[int, int, int, Any, int, int, int]] = []
        seq = 0
        tuple_bytes = self.cost.tuple_bytes
        for src in sorted(sends):
            for dst, payload in sorted(sends[src].items()):
                if not payload:
                    continue
                if not 0 <= dst < self.n_ranks:
                    raise ValueError(f"destination rank {dst} out of range")
                if nbytes_of is None and pre_count_of is None:
                    n_tuples = (
                        len(payload)
                        if count_of is None
                        else sum(map(count_of, payload))
                    )
                    pre_tuples = n_tuples
                    nbytes = tuple_bytes(n_tuples, arity)
                else:
                    # Wire boxes: all three totals in one pass (a route
                    # exchange at 64 ranks sizes ~4k messages a superstep).
                    n_tuples = pre_tuples = nbytes = 0
                    for item in payload:
                        n = 1 if count_of is None else count_of(item)
                        n_tuples += n
                        pre_tuples += n if pre_count_of is None else pre_count_of(item)
                        nbytes += (
                            tuple_bytes(n, arity)
                            if nbytes_of is None
                            else nbytes_of(item)
                        )
                n_sent += n_tuples
                seq += 1
                if src == dst:
                    # Self-sends shortcut the wire; faults cannot hit them.
                    if matrix is not None:
                        matrix.add(src, dst, 0, n_tuples, channel=channel)
                        if pre_count_of is not None:
                            matrix.add(
                                src, dst, 0, pre_tuples, channel="precombine"
                            )
                    if faulty:
                        slots.setdefault(dst, []).append((seq, payload))
                    else:
                        recv.setdefault(dst, []).extend(payload)
                    n_delivered += n_tuples
                    continue
                if pre_count_of is not None:
                    pre_nbytes = tuple_bytes(pre_tuples, arity)
                    self.route_precombine_bytes += pre_nbytes
                    self.route_wire_bytes += nbytes
                    if matrix is not None:
                        matrix.add(
                            src, dst, pre_nbytes, pre_tuples, channel="precombine"
                        )
                if matrix is not None:
                    matrix.add(src, dst, nbytes, n_tuples, channel=channel)
                sent_bytes[src] = sent_bytes.get(src, 0) + nbytes
                recv_bytes[dst] = recv_bytes.get(dst, 0) + nbytes
                peers[src] = peers.get(src, 0) + 1
                peers[dst] = peers.get(dst, 0) + 1
                wire_messages += 1
                wire_bytes += nbytes
                if not faulty:
                    recv.setdefault(dst, []).extend(payload)
                    n_delivered += n_tuples
                    continue
                checksum = payload_checksum(payload)
                good = self._deliver_copies(
                    plane, slots, seq, step, src, dst, payload, checksum, 0
                )
                if good == 0:
                    pending.append(
                        (seq, src, dst, payload, checksum, n_tuples, nbytes)
                    )
                else:
                    n_delivered += good * n_tuples
                    n_dup_tuples += (good - 1) * n_tuples
        busiest = 0
        for r in set(sent_bytes) | set(recv_bytes):
            busiest = max(busiest, sent_bytes.get(r, 0) + recv_bytes.get(r, 0))
        max_peers = max(peers.values(), default=0)
        seconds = self.cost.alltoallv(self.n_ranks, busiest, max_peers)
        if autotune and self.n_ranks > 1:
            # Collective autotune: same observed message sizes, two
            # algorithm costs, charge the cheaper.  Data movement is
            # identical either way.
            direct_seconds = seconds
            bruck_seconds = self.cost.alltoallv_bruck(self.n_ranks, busiest)
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
        if pending:
            n_delivered, n_dup_tuples = self._retransmit(
                plane, slots, step, phase, pending, n_delivered, n_dup_tuples
            )
        if faulty:
            # Reassemble each receive buffer in send-loop order, so the
            # absorbed tuple sequence — and every downstream counter — is
            # exactly what a fault-free exchange would have produced.
            for dst, entries in slots.items():
                buf = recv.setdefault(dst, [])
                for _seq, copy_payload in sorted(entries, key=lambda e: e[0]):
                    buf.extend(copy_payload)
        check_conservation(n_sent, n_delivered, n_dup_tuples)
        if self._reorder_rng is not None:
            for buf in recv.values():
                self._reorder_rng.shuffle(buf)
        return recv

    @staticmethod
    def _deliver_copies(
        plane: FaultPlane,
        slots: Dict[int, List[Tuple[int, Any]]],
        seq: int,
        step: int,
        src: int,
        dst: int,
        payload: Any,
        checksum: int,
        attempt: int,
    ) -> int:
        """Deliver one wire message's planned copies; returns intact count.

        Copies whose CRC no longer matches the sender's envelope are
        discarded at the receiver (counted as detected corruptions) — the
        caller retransmits if nothing intact got through.  Intact copies
        land in ``slots[dst]`` tagged with the message's send sequence
        number so the caller can reassemble source order.
        """
        good = 0
        for copy_payload, intact in plane.deliveries(step, src, dst, payload, attempt):
            if not intact and payload_checksum(copy_payload) != checksum:
                plane.stats.detected_corruptions += 1
                continue
            slots.setdefault(dst, []).append((seq, copy_payload))
            good += 1
        return good

    def _retransmit(
        self,
        plane: FaultPlane,
        slots: Dict[int, List[Tuple[int, Any]]],
        step: int,
        phase: str,
        pending: List[Tuple[int, int, int, Any, int, int, int]],
        n_delivered: int,
        n_dup_tuples: int,
    ) -> Tuple[int, int]:
        """Bounded retry of messages with no intact delivery.

        Each round re-sends every still-missing message (new fault draws
        keyed by attempt number) and charges the extra traffic as one
        ``retransmit`` event.  Exhausting the budget raises
        :class:`~repro.faults.plane.MessageLossError` — escalated to
        :class:`~repro.faults.plane.PermanentRankFailure` when the peer is
        permanently dead (the failure detector's classification).
        """
        attempt = 0
        while pending:
            attempt += 1
            if attempt > plane.config.max_retries:
                src, dst = pending[0][1], pending[0][2]
                raise classify_loss(plane, src, dst, attempt)
            round_bytes = 0
            round_busiest = 0
            still: List[Tuple[int, int, int, Any, int, int, int]] = []
            for seq, src, dst, payload, checksum, n_tuples, nbytes in pending:
                plane.stats.retransmits += 1
                plane.stats.retransmitted_bytes += nbytes
                round_bytes += nbytes
                round_busiest = max(round_busiest, nbytes)
                if self.comm_recorder is not None:
                    self.comm_recorder.record(
                        src, dst, nbytes, n_tuples, retransmit=True
                    )
                good = self._deliver_copies(
                    plane, slots, seq, step, src, dst, payload, checksum, attempt
                )
                if good == 0:
                    still.append(
                        (seq, src, dst, payload, checksum, n_tuples, nbytes)
                    )
                else:
                    n_delivered += good * n_tuples
                    n_dup_tuples += (good - 1) * n_tuples
            self.ledger.add_comm(
                CommEvent(
                    kind="retransmit",
                    phase=phase,
                    nbytes=round_bytes,
                    messages=len(pending),
                    seconds=self.cost.alltoallv(self.n_ranks, round_busiest, 1),
                )
            )
            pending = still
        return n_delivered, n_dup_tuples
