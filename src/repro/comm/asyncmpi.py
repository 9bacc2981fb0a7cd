"""An mpi4py-flavoured SPMD interface over asyncio, for hand-written rank
programs.

It is not the engine's substrate: both engine drivers, BSP and per-rank
(:mod:`repro.runtime.spmd`), run on
:class:`~repro.comm.simcluster.SimCluster`.  This is for a user who wants
to write *rank programs* in the familiar MPI style (see the mpi4py
tutorial's idioms, which this API mirrors: lowercase methods communicate
pickled Python objects):

.. code-block:: python

    async def program(comm):
        rank, size = comm.Get_rank(), comm.Get_size()
        data = await comm.bcast({"k": 1} if rank == 0 else None, root=0)
        total = await comm.allreduce(rank, op=sum)
        return total

    results = run_spmd(4, program)

Every rank runs as an asyncio task; collectives are rendezvous points
(all ranks must call them in the same order, as in MPI), and point-to-point
``send``/``recv`` match on ``(source, tag)`` with MPI's non-overtaking
guarantee per (source, dest, tag) channel.

Deadlocks (a rank waiting on a message that never comes) are detected: when
every unfinished rank is blocked and no progress is possible, ``run_spmd``
raises :class:`DeadlockError` instead of hanging.
"""

from __future__ import annotations

import asyncio
import pickle
from collections import deque
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.comm.costmodel import CommEvent, CostModel
from repro.comm.ledger import PhaseLedger
from repro.faults.plane import (
    FaultPlane,
    RankFailure,
    classify_loss,
    payload_checksum,
)

ANY_SOURCE = -1
ANY_TAG = -1


class DeadlockError(RuntimeError):
    """All live ranks are blocked on communication that cannot complete.

    The message carries a per-rank diagnosis (which call each rank is
    blocked in, and on which ``(source, tag)`` or collective); it is also
    available structured as :attr:`diagnosis`.
    """

    def __init__(self, message: str, diagnosis: Optional[Dict[int, str]] = None):
        super().__init__(message)
        self.diagnosis: Dict[int, str] = diagnosis or {}


class _Collective:
    """Rendezvous for one collective call site (created lazily per epoch)."""

    def __init__(self, world: "_World", key: Tuple[str, int], step: int):
        self.world = world
        self.key = key
        #: Fault-plane superstep assigned when this rendezvous was created.
        self.step = step
        self.size = world.size
        self.values: Dict[int, Any] = {}
        self.done = asyncio.Event()
        self.result: Any = None
        #: Set when a rank died before the rendezvous completed; every
        #: waiter raises it instead of deadlocking.
        self.error: Optional[BaseException] = None

    def _check_failure(self, rank: int) -> None:
        plane = self.world.faults
        if plane is None:
            return
        dead = plane.crash_due(self.step)
        if dead is not None:
            self.world.kill_rank(dead, self.step, self.key[0])
        failed = plane.failed_rank()
        if failed is not None:
            raise plane.failure_for(failed, self.step, self.key[0])

    async def arrive(self, rank: int, value: Any, finish: Callable[[Dict[int, Any]], Any]) -> Any:
        self.world.progress += 1  # reaching a collective is forward motion
        self._check_failure(rank)
        if self.error is not None:
            raise self.error
        self.values[rank] = value
        if len(self.values) == self.size:
            self.result = finish(self.values)
            self.world.progress += 1
            self.done.set()
        else:
            self.world.blocked += 1
            self.world.blocked_on[rank] = (
                f"{self.key[0]} (epoch {self.key[1]}, "
                f"{len(self.values)}/{self.size} arrived)"
            )
            try:
                await self.done.wait()
            finally:
                self.world.blocked -= 1
                self.world.blocked_on.pop(rank, None)
        if self.error is not None:
            raise self.error
        return self.result


class _World:
    """Shared state for one SPMD execution."""

    def __init__(
        self,
        size: int,
        cost: CostModel,
        faults: Optional[FaultPlane] = None,
        comm_recorder: Optional[Any] = None,
    ):
        self.size = size
        self.cost = cost
        self.faults = faults
        #: Optional rank×rank traffic capture (diagnostics; observation
        #: only).  Point-to-point sends and retransmissions are recorded;
        #: collectives are charged to the ledger but not per-edge.
        self.comm_recorder = comm_recorder
        self.ledger = PhaseLedger(size)
        if faults is not None:
            self.ledger.rank_scale = faults.straggler_scale()
        # mailbox[dst] maps (src, tag) -> deque of payloads
        self.mailboxes: List[Dict[Tuple[int, int], deque]] = [dict() for _ in range(size)]
        self.mail_arrived: List[asyncio.Event] = [asyncio.Event() for _ in range(size)]
        # Pristine copies of wire messages with no intact delivery
        # (sender-side retransmission buffer): lost[dst][(src, tag)] holds
        # (chan_seq, obj, checksum) in send order.
        self.lost: List[Dict[Tuple[int, int], deque]] = [dict() for _ in range(size)]
        # Per-channel wire sequence numbers (sender side) and the next
        # sequence each receiver will accept: under faults, mailbox
        # entries carry their channel sequence so delivery stays FIFO per
        # (source, tag) even when drops force out-of-band retransmission.
        self.chan_seq: List[Dict[Tuple[int, int], int]] = [dict() for _ in range(size)]
        self.recv_seq: List[Dict[Tuple[int, int], int]] = [dict() for _ in range(size)]
        # collectives keyed by (name, epoch-counter per name)
        self.collectives: Dict[Tuple[str, int], _Collective] = {}
        self.coll_epoch: Dict[str, List[int]] = {}
        self.blocked = 0
        self.finished = 0
        #: rank -> human-readable description of the call it is blocked in
        #: (deadlock diagnosis; absent = not currently blocked).
        self.blocked_on: Dict[int, str] = {}
        #: Monotone counter bumped on every send, receive match, and
        #: collective arrival/completion — the deadlock detector's
        #: liveness signal.
        self.progress = 0
        #: Monotone wire-message counter: the fault plane's per-message
        #: decision key for point-to-point traffic.
        self.msg_seq = 0

    @property
    def message_faults(self) -> bool:
        return self.faults is not None and self.faults.has_message_faults

    def collective(self, name: str, rank: int) -> _Collective:
        """Get the rendezvous instance for this rank's next call to ``name``."""
        epochs = self.coll_epoch.setdefault(name, [0] * self.size)
        key = (name, epochs[rank])
        epochs[rank] += 1
        coll = self.collectives.get(key)
        if coll is None:
            step = self.faults.begin_superstep(name) if self.faults else 0
            coll = _Collective(self, key, step)
            self.collectives[key] = coll
        return coll

    def kill_rank(self, rank: int, step: int, where: str) -> None:
        """Propagate a rank death: fail every pending rendezvous and wake
        every blocked receiver so no survivor deadlocks waiting for the
        dead rank."""
        failure = (
            self.faults.failure_for(rank, step, where)
            if self.faults is not None
            else RankFailure(rank, step, where)
        )
        for coll in self.collectives.values():
            if not coll.done.is_set():
                coll.error = failure
                coll.done.set()
        for event in self.mail_arrived:
            event.set()

    def charge(self, kind: str, nbytes: int, messages: int, seconds: float) -> None:
        self.ledger.add_comm(
            CommEvent(kind=kind, phase="comm", nbytes=nbytes, messages=messages, seconds=seconds)
        )


def _obj_nbytes(obj: Any) -> int:
    """Serialized size of a Python object (mpi4py lowercase methods pickle)."""
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64  # unpicklable sentinel; charge a nominal envelope


class AsyncComm:
    """Communicator handle passed to each rank program."""

    def __init__(self, world: _World, rank: int):
        self._world = world
        self._rank = rank

    # ------------------------------------------------------------- identity

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self._world.size

    @property
    def ledger(self) -> PhaseLedger:
        return self._world.ledger

    # ------------------------------------------------------- point to point

    async def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send a pickled Python object (buffered, non-blocking delivery).

        Under an active fault plane each wire message may be dropped,
        duplicated or corrupted; mailbox entries then carry a CRC-32
        envelope, and a pristine copy of any message with no intact
        delivery is kept in the sender-side retransmission buffer for
        :meth:`recv` to recover.
        """
        world = self._world
        if not 0 <= dest < world.size:
            raise ValueError(f"dest {dest} out of range")
        box = world.mailboxes[dest]
        nbytes = _obj_nbytes(obj)
        if world.message_faults and dest != self._rank:
            plane = world.faults
            world.msg_seq += 1
            key = (self._rank, tag)
            cseq = world.chan_seq[dest].get(key, 0)
            world.chan_seq[dest][key] = cseq + 1
            checksum = payload_checksum(obj)
            intact_delivered = 0
            for copy_obj, intact in plane.deliveries(
                world.msg_seq, self._rank, dest, obj
            ):
                box.setdefault(key, deque()).append((cseq, copy_obj, checksum))
                if intact:
                    intact_delivered += 1
            if intact_delivered == 0:
                world.lost[dest].setdefault(key, deque()).append(
                    (cseq, obj, checksum)
                )
        elif world.message_faults:
            # Self-sends shortcut the wire but still carry the envelope
            # (and a sequence) so the receive path stays uniform.
            key = (self._rank, tag)
            cseq = world.chan_seq[dest].get(key, 0)
            world.chan_seq[dest][key] = cseq + 1
            box.setdefault(key, deque()).append(
                (cseq, obj, payload_checksum(obj))
            )
        else:
            box.setdefault((self._rank, tag), deque()).append(obj)
        world.progress += 1
        world.charge("p2p", nbytes, 1, world.cost.p2p(nbytes))
        if world.comm_recorder is not None:
            # Self-sends are charged like wire traffic here (the lowercase
            # API pickles regardless), so record their true size too.
            world.comm_recorder.record(self._rank, dest, nbytes, 1)
        world.mail_arrived[dest].set()
        await asyncio.sleep(0)  # yield so receivers can progress

    def _retransmit_lost(self, source: int, tag: int) -> bool:
        """Recover one lost message matching ``(source, tag)`` from the
        sender-side buffer into the mailbox; returns True if one was found.

        Only a channel's *next expected* message is pulled — it is the
        one the receiver is blocked on; later lost messages retransmit on
        their turn, keeping delivery FIFO per channel.
        """
        world = self._world
        lost = world.lost[self._rank]
        recv_seq = world.recv_seq[self._rank]
        for (src, t), q in lost.items():
            if not q or source not in (ANY_SOURCE, src) or tag not in (ANY_TAG, t):
                continue
            if q[0][0] != recv_seq.get((src, t), 0):
                continue
            entry = q.popleft()
            world.mailboxes[self._rank].setdefault(
                (src, t), deque()
            ).appendleft(entry)
            nbytes = _obj_nbytes(entry[1])
            world.faults.stats.retransmits += 1
            world.faults.stats.retransmitted_bytes += nbytes
            world.charge("retransmit", nbytes, 1, world.cost.p2p(nbytes))
            if world.comm_recorder is not None:
                world.comm_recorder.record(
                    src, self._rank, nbytes, 1, retransmit=True
                )
            world.progress += 1
            return True
        return False

    async def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Receive one message matching ``(source, tag)`` (blocking).

        Under the fault plane, receives are guarded: envelopes failing
        their checksum are discarded (detected corruption), and waits use
        a bounded retry loop under the shared
        :class:`~repro.faults.retry.RetryPolicy` — each timeout triggers
        one retransmission from the sender's buffer of lost messages,
        with capped, jittered exponential backoff between rounds, up to
        ``max_retries`` attempts before
        :class:`~repro.faults.plane.MessageLossError` (escalated to
        :class:`~repro.faults.plane.PermanentRankFailure` when the peer
        is permanently dead).
        """
        world = self._world
        box = world.mailboxes[self._rank]
        event = world.mail_arrived[self._rank]
        faulty = world.message_faults
        plane = world.faults
        attempt = 0
        n_timeouts = 0
        policy = plane.config.retry_policy() if faulty else None
        while True:
            if plane is not None:
                failed = plane.failed_rank()
                if failed is not None:
                    raise plane.failure_for(failed, plane.superstep, "recv")
            rescan = False
            for (src, t), q in box.items():
                if not q or source not in (ANY_SOURCE, src) or tag not in (ANY_TAG, t):
                    continue
                if not faulty:
                    world.progress += 1
                    return q.popleft()
                key = (src, t)
                expected = world.recv_seq[self._rank].get(key, 0)
                # Discard stale duplicates of already-delivered messages.
                while q and q[0][0] < expected:
                    q.popleft()
                if not q or q[0][0] != expected:
                    # Gap: the next message on this channel was dropped;
                    # the retransmission path below pulls it back.
                    continue
                _seq, obj, checksum = q.popleft()
                if payload_checksum(obj) != checksum:
                    # Corrupted on the wire: drop it.  A duplicate copy
                    # with the same sequence may still be queued; if not,
                    # the pristine copy sits in the sender's lost buffer.
                    plane.stats.detected_corruptions += 1
                    attempt += 1
                    if policy.exhausted(attempt):
                        raise classify_loss(plane, src, self._rank, attempt)
                    self._retransmit_lost(source, tag)
                    rescan = True
                    break
                world.recv_seq[self._rank][key] = expected + 1
                world.progress += 1
                return obj
            if rescan:
                continue
            if faulty and self._retransmit_lost(source, tag):
                attempt += 1
                if policy.exhausted(attempt):
                    raise classify_loss(plane, source, self._rank, attempt)
                continue
            event.clear()
            world.blocked += 1
            world.blocked_on[self._rank] = f"recv(source={source}, tag={tag})"
            try:
                if policy is None:
                    await event.wait()
                else:
                    # Capped, jittered exponential backoff: patience grows
                    # per timeout round but never past the policy cap, and
                    # the jitter (keyed by receiver rank) desynchronises
                    # concurrent receivers' probe schedules.
                    timeout = policy.timeout_for(n_timeouts, key=self._rank)
                    try:
                        await asyncio.wait_for(event.wait(), timeout)
                        # Progress arrived; keep the current patience.
                    except asyncio.TimeoutError:
                        # Nothing arrived: escalate patience for the next
                        # probe (the retransmission check at loop top
                        # fires first).
                        n_timeouts += 1
            finally:
                world.blocked -= 1
                world.blocked_on.pop(self._rank, None)

    async def sendrecv(self, obj: Any, dest: int, source: int = ANY_SOURCE,
                       sendtag: int = 0, recvtag: int = ANY_TAG) -> Any:
        await self.send(obj, dest, tag=sendtag)
        return await self.recv(source=source, tag=recvtag)

    # ------------------------------------------------------------ collectives

    async def barrier(self) -> None:
        world = self._world
        coll = world.collective("barrier", self._rank)
        await coll.arrive(self._rank, None, lambda values: None)
        if self._rank == 0:
            world.charge("barrier", 0, world.size, world.cost.barrier(world.size))

    async def bcast(self, obj: Any, root: int = 0) -> Any:
        world = self._world
        coll = world.collective("bcast", self._rank)

        def finish(values: Dict[int, Any]) -> Any:
            payload = values[root]
            world.charge("bcast", _obj_nbytes(payload), world.size - 1,
                         world.cost.bcast(world.size, _obj_nbytes(payload)))
            return payload

        return await coll.arrive(self._rank, obj, finish)

    async def gather(self, obj: Any, root: int = 0) -> Optional[List[Any]]:
        world = self._world
        coll = world.collective("gather", self._rank)

        def finish(values: Dict[int, Any]) -> List[Any]:
            ordered = [values[r] for r in range(world.size)]
            nbytes = sum(_obj_nbytes(v) for v in ordered)
            world.charge("gather", nbytes, world.size - 1,
                         world.cost.allgather(world.size, max(1, nbytes // world.size)))
            return ordered

        result = await coll.arrive(self._rank, obj, finish)
        return result if self._rank == root else None

    async def allgather(self, obj: Any) -> List[Any]:
        world = self._world
        coll = world.collective("allgather", self._rank)

        def finish(values: Dict[int, Any]) -> List[Any]:
            ordered = [values[r] for r in range(world.size)]
            nbytes = sum(_obj_nbytes(v) for v in ordered)
            world.charge("allgather", nbytes, world.size,
                         world.cost.allgather(world.size, max(1, nbytes // world.size)))
            return ordered

        return await coll.arrive(self._rank, obj, finish)

    async def scatter(self, objs: Optional[List[Any]], root: int = 0) -> Any:
        world = self._world
        coll = world.collective("scatter", self._rank)

        def finish(values: Dict[int, Any]) -> List[Any]:
            payload = values[root]
            if payload is None or len(payload) != world.size:
                raise ValueError("scatter root must supply one value per rank")
            nbytes = sum(_obj_nbytes(v) for v in payload)
            world.charge("scatter", nbytes, world.size - 1,
                         world.cost.allgather(world.size, max(1, nbytes // world.size)))
            return payload

        result = await coll.arrive(self._rank, objs, finish)
        return result[self._rank]

    async def allreduce(self, value: Any, op: Callable[[Any, Any], Any] | None = None) -> Any:
        """Reduce with a binary ``op`` (default: ``+``); result on all ranks."""
        world = self._world
        coll = world.collective("allreduce", self._rank)

        def finish(values: Dict[int, Any]) -> Any:
            ordered = [values[r] for r in range(world.size)]
            acc = ordered[0]
            for v in ordered[1:]:
                acc = op(acc, v) if op is not None else acc + v
            world.charge("allreduce", _obj_nbytes(acc) * world.size, world.size,
                         world.cost.allreduce(world.size, _obj_nbytes(acc)))
            return acc

        return await coll.arrive(self._rank, value, finish)

    async def reduce(self, value: Any, op: Callable[[Any, Any], Any] | None = None,
                     root: int = 0) -> Any:
        result = await self.allreduce(value, op)
        return result if self._rank == root else None

    async def alltoall(self, objs: List[Any]) -> List[Any]:
        """Each rank supplies one object per destination; receives one per source."""
        world = self._world
        if len(objs) != world.size:
            raise ValueError(f"alltoall needs {world.size} entries, got {len(objs)}")
        coll = world.collective("alltoall", self._rank)

        def finish(values: Dict[int, Any]) -> Dict[int, List[Any]]:
            nbytes = sum(_obj_nbytes(v) for vs in values.values() for v in vs)
            per_rank = {
                dst: [values[src][dst] for src in range(world.size)]
                for dst in range(world.size)
            }
            busiest = max(
                (sum(_obj_nbytes(v) for v in row) for row in per_rank.values()),
                default=0,
            )
            world.charge("alltoallv", nbytes, world.size * (world.size - 1),
                         world.cost.alltoallv(world.size, busiest, world.size - 1))
            return per_rank

        result = await coll.arrive(self._rank, objs, finish)
        return result[self._rank]


#: Supervisor cycles of all-blocked + zero progress before declaring
#: deadlock.  A live system bumps the progress counter within a cycle or
#: two of any wake-up; a deadlocked one never will.  Samples only occur
#: when the loop is otherwise idle, so the threshold costs microseconds.
_DEADLOCK_STAGNANT_CYCLES = 64


async def _supervise(tasks: List[asyncio.Task], world: _World) -> None:
    """Watch for global deadlock: every rank comm-blocked and *no*
    forward progress (sends, receives, collective arrivals) over many
    scheduler cycles.

    Note that "all ranks blocked at a sample point" alone is the normal
    state of a healthy lock-step pipeline — the supervisor only ever runs
    when no task is mid-step — so detection additionally requires the
    world's progress counter to stay frozen.
    """
    stagnant = 0
    last_progress = -1
    while True:
        await asyncio.sleep(0)
        unfinished = [t for t in tasks if not t.done()]
        if not unfinished:
            return
        if world.blocked == len(unfinished) and world.progress == last_progress:
            stagnant += 1
            if stagnant >= _DEADLOCK_STAGNANT_CYCLES:
                if world.faults is not None:
                    failed = world.faults.failed_rank()
                    if failed is not None:
                        raise world.faults.failure_for(
                            failed, world.faults.superstep, "stalled cluster"
                        )
                diagnosis = {
                    r: world.blocked_on.get(r, "running (not blocked)")
                    for r, t in enumerate(tasks)
                    if not t.done()
                }
                detail = "\n".join(
                    f"  rank {r}: blocked in {where}"
                    for r, where in sorted(diagnosis.items())
                )
                raise DeadlockError(
                    f"{len(unfinished)} rank(s) blocked on communication "
                    "that can never complete (missing send or mismatched "
                    f"collective):\n{detail}",
                    diagnosis=diagnosis,
                )
        else:
            stagnant = 0
            last_progress = world.progress


def run_spmd(
    n_ranks: int,
    fn: Callable[..., Awaitable[Any]],
    *args: Any,
    cost_model: Optional[CostModel] = None,
    return_ledger: bool = False,
    fault_plane: Optional[FaultPlane] = None,
    comm_recorder: Optional[Any] = None,
) -> List[Any] | Tuple[List[Any], PhaseLedger]:
    """Run ``fn(comm, *args)`` on ``n_ranks`` simulated ranks; gather returns.

    When a rank raises (including injected :class:`RankFailure`), every
    sibling rank task is cancelled *and awaited* before the exception
    propagates — no task is ever left pending on loop shutdown.

    Raises
    ------
    DeadlockError
        If every live rank is blocked on communication that can never
        complete (a receive without a matching send, or a collective that
        some rank never reaches).  The message diagnoses each rank.
    RankFailure
        If ``fault_plane`` kills a rank; detected at the next rendezvous.
    """
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    world = _World(
        n_ranks,
        cost_model or CostModel(),
        faults=fault_plane,
        comm_recorder=comm_recorder,
    )

    async def drain(tasks: List[asyncio.Task]) -> None:
        """Cancel and await every unfinished task (exceptions swallowed)."""
        for t in tasks:
            if not t.done():
                t.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    async def main() -> List[Any]:
        tasks = [
            asyncio.ensure_future(fn(AsyncComm(world, r), *args))
            for r in range(n_ranks)
        ]
        gathered = asyncio.ensure_future(asyncio.gather(*tasks))
        supervisor = asyncio.ensure_future(_supervise(tasks, world))
        done, _ = await asyncio.wait(
            {gathered, supervisor}, return_when=asyncio.FIRST_COMPLETED
        )
        if supervisor in done and supervisor.exception() is not None:
            gathered.cancel()
            await drain(tasks)
            try:
                await gathered
            except asyncio.CancelledError:
                pass
            raise supervisor.exception()  # DeadlockError / RankFailure
        supervisor.cancel()
        try:
            await supervisor
        except asyncio.CancelledError:
            pass
        try:
            return await gathered
        finally:
            # One failed rank must not strand its siblings mid-collective.
            await drain(tasks)

    results = asyncio.run(main())
    if return_ledger:
        return results, world.ledger
    return results
