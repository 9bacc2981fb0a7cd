"""The box-table exchange against the dict-of-lists exchange it replaced.

``SimCluster.alltoallv`` sizes, charges, faults and delivers one
:class:`~repro.comm.boxes.BoxTable` with whole-column operations.  The
reference below is the per-message loop it replaced, kept as it ran over
``sends[src][dst] = [items]`` dicts with per-item sizing callbacks.  On
random exchanges — 1–16 ranks, self-sends, empty boxes, several boxes a
message, every box form the engine ships, the table in any order that
keeps each message's boxes in sequence — under autotune, delivery
reordering, drop/dup/corrupt faults and a traffic recorder, both must
charge the same events, count the same collectives and bytes, draw the
same faults, record the same matrix cells and deliver the same items in
the same order (or raise the same error).  Under faults the reference
draws each message's fate alone (:meth:`FaultPlane.fates` of one
message) and walks its copies one by one.
"""

from typing import Any, Dict, List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.boxes import BoxTable
from repro.comm.costmodel import CommEvent
from repro.comm.simcluster import SimCluster
from repro.comm.wire import WIRE_HEADER_WORDS
from repro.faults.config import FaultConfig
from repro.faults.invariants import check_conservation
from repro.faults.plane import FaultPlane, classify_loss
from repro.obs.analysis import CommMatrixRecorder
from repro.obs.tracer import Tracer


def reference_alltoallv(
    cluster,
    sends,
    *,
    arity,
    phase="comm",
    count_of=None,
    nbytes_of=None,
    pre_count_of=None,
    autotune=False,
    kind="alltoallv",
    channel="data",
):
    """``cluster.alltoallv`` as it ran before box tables: one pass over the
    messages of a dict of lists, three sizing callbacks per item."""
    plane = cluster.faults
    step = cluster._superstep("alltoallv")
    matrix = (
        cluster.comm_recorder.begin(kind, phase)
        if cluster.comm_recorder is not None
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
    #: payload, n_tuples, nbytes) awaiting retransmission.
    pending: List[Tuple[int, int, int, Any, int, int]] = []
    seq = 0
    tuple_bytes = cluster.cost.tuple_bytes
    for src in sorted(sends):
        for dst, payload in sorted(sends[src].items()):
            if not payload:
                continue
            if not 0 <= dst < cluster.n_ranks:
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
            # Receivers in the order the sweep reaches them, whatever the
            # fates.
            recv.setdefault(dst, [])
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
                cluster.route_precombine_bytes += pre_nbytes
                cluster.route_wire_bytes += nbytes
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
            good = _ref_deliver_copies(
                plane, slots, seq, step, src, dst, payload, n_tuples, 0
            )
            if good == 0:
                pending.append((seq, src, dst, payload, n_tuples, nbytes))
            else:
                n_delivered += good * n_tuples
                n_dup_tuples += (good - 1) * n_tuples
    busiest = 0
    for r in set(sent_bytes) | set(recv_bytes):
        busiest = max(busiest, sent_bytes.get(r, 0) + recv_bytes.get(r, 0))
    max_peers = max(peers.values(), default=0)
    seconds = cluster.cost.alltoallv(cluster.n_ranks, busiest, max_peers)
    if autotune and cluster.n_ranks > 1:
        # Collective autotune: same observed message sizes, two
        # algorithm costs, charge the cheaper.  Data movement is
        # identical either way.
        direct_seconds = seconds
        bruck_seconds = cluster.cost.alltoallv_bruck(cluster.n_ranks, busiest)
        chosen = "bruck" if bruck_seconds < direct_seconds else "direct"
        saved = 0.0
        if chosen == "bruck":
            saved = direct_seconds - bruck_seconds
            seconds = bruck_seconds
        cluster.collective_counts[chosen] += 1
        cluster.tracer.instant(
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
    cluster.ledger.add_comm(
        CommEvent(
            kind=kind,
            phase=phase,
            nbytes=wire_bytes,
            messages=wire_messages,
            seconds=seconds,
        )
    )
    if pending:
        n_delivered, n_dup_tuples = _ref_retransmit(cluster, 
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
    if cluster._reorder_rng is not None:
        for buf in recv.values():
            cluster._reorder_rng.shuffle(buf)
    return recv



def _ref_deliver_copies(
    plane: FaultPlane,
    slots: Dict[int, List[Tuple[int, Any]]],
    seq: int,
    step: int,
    src: int,
    dst: int,
    payload: Any,
    n_tuples: int,
    attempt: int,
) -> int:
    """Deliver one wire message's planned copies; returns intact count.

    A corrupted copy fails the receiver's CRC and is discarded (counted
    as a detected corruption) — the caller retransmits if nothing intact
    got through.  Intact copies land in ``slots[dst]`` tagged with the
    message's send sequence number so the caller can reassemble source
    order.
    """
    one = lambda v: np.asarray([v], dtype=np.int64)  # noqa: E731
    copies, corrupted = plane.fates(step, one(src), one(dst), one(n_tuples), attempt)
    good = 0
    for copy in range(int(copies[0])):
        if copy < corrupted[0]:
            plane.stats.detected_corruptions += 1
            continue
        slots.setdefault(dst, []).append((seq, payload))
        good += 1
    return good

def _ref_retransmit(
    cluster,
    plane: FaultPlane,
    slots: Dict[int, List[Tuple[int, Any]]],
    step: int,
    phase: str,
    pending: List[Tuple[int, int, int, Any, int, int]],
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
        still: List[Tuple[int, int, int, Any, int, int]] = []
        for seq, src, dst, payload, n_tuples, nbytes in pending:
            plane.stats.retransmits += 1
            plane.stats.retransmitted_bytes += nbytes
            round_bytes += nbytes
            round_busiest = max(round_busiest, nbytes)
            if cluster.comm_recorder is not None:
                cluster.comm_recorder.record(
                    src, dst, nbytes, n_tuples, retransmit=True
                )
            good = _ref_deliver_copies(
                plane, slots, seq, step, src, dst, payload, n_tuples, attempt
            )
            if good == 0:
                still.append((seq, src, dst, payload, n_tuples, nbytes))
            else:
                n_delivered += good * n_tuples
                n_dup_tuples += (good - 1) * n_tuples
        cluster.ledger.add_comm(
            CommEvent(
                kind="retransmit",
                phase=phase,
                nbytes=round_bytes,
                messages=len(pending),
                seconds=cluster.cost.alltoallv(cluster.n_ranks, round_busiest, 1),
            )
        )
        pending = still
    return n_delivered, n_dup_tuples


# ------------------------------------------------------------ the property

#: Box forms, as the engine ships them: encoded route boxes, raw route
#: boxes, raw row blocks (the intra-bucket exchange) and encoded row
#: blocks (the update seed), with the sizing the reference took for each.
FORMS = {
    "wire": dict(
        count_of=lambda box: box[2],
        nbytes_of=lambda box: len(box[4]) + 8 * WIRE_HEADER_WORDS,
        pre_count_of=lambda box: box[3],
    ),
    "route": dict(count_of=lambda box: len(box[2])),
    "rows": dict(count_of=len),
    "seed": dict(
        count_of=lambda box: box[0].shape[0],
        nbytes_of=lambda box: len(box[1]) + 8 * WIRE_HEADER_WORDS,
    ),
}


@st.composite
def exchanges(draw):
    """(n_ranks, form, arity, boxes in table order): each box
    ``(src, dst, bucket, sub, rows, pre_rows, payload)``."""
    n_ranks = draw(st.integers(1, 16))
    form = draw(st.sampled_from(sorted(FORMS)))
    arity = draw(st.integers(1, 3))
    rank = st.integers(0, n_ranks - 1)
    messages = draw(st.lists(
        st.tuples(rank, rank, st.integers(1, 4)), max_size=12,
        unique_by=lambda m: m[:2],
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    boxes = []
    for src, dst, n_boxes in messages:
        for _ in range(n_boxes):
            n = int(rng.integers(0, 5))  # empty boxes included
            boxes.append((
                src, dst, int(rng.integers(0, 50)), int(rng.integers(0, 4)),
                rng.integers(-9, 9, (n, arity)), n + int(rng.integers(0, 3)),
                rng.integers(0, 256, int(rng.integers(0, 12))).astype(np.uint8).tobytes(),
            ))
    # Any table order that keeps every message's boxes in sequence.
    slots = rng.permutation(len(boxes))
    placed = [None] * len(boxes)
    for key in {box[:2] for box in boxes}:
        mine = [i for i, box in enumerate(boxes) if box[:2] == key]
        for i, slot in zip(mine, sorted(slots[mine].tolist())):
            placed[slot] = boxes[i]
    return n_ranks, form, arity, placed


def _item(form, box):
    _src, _dst, b, s, rows, pre, payload = box
    return {
        "wire": (b, s, rows.shape[0], pre, payload),
        "route": (b, s, rows),
        "rows": rows,
        "seed": (rows, payload),
    }[form]


def _table(form, arity, boxes):
    """The table the engine builds for ``boxes``."""
    col = lambda i: np.asarray([box[i] for box in boxes], dtype=np.int64)  # noqa: E731
    n_rows = np.asarray([box[4].shape[0] for box in boxes], dtype=np.int64)
    rows = np.concatenate([box[4] for box in boxes] or [np.zeros((0, arity))])
    kw: Dict[str, Any] = {"rows": rows.astype(np.int64)}
    if form in ("wire", "route"):
        kw.update(bucket=col(2), sub=col(3))
    if form == "wire":
        kw["pre_rows"] = col(5)
    if form in ("wire", "seed"):
        byte_len = np.asarray([len(box[6]) for box in boxes], dtype=np.int64)
        kw.update(
            payload=np.frombuffer(b"".join(box[6] for box in boxes), np.uint8),
            byte_len=byte_len,
            nbytes=byte_len + 32,
        )
    return BoxTable(col(0), col(1), n_rows, **kw)


def _sends(form, boxes):
    sends: Dict[int, Dict[int, List[Any]]] = {}
    for box in boxes:
        sends.setdefault(box[0], {}).setdefault(box[1], []).append(_item(form, box))
    return sends


def _canon(obj):
    if isinstance(obj, np.ndarray):
        return ("array", obj.shape, obj.tolist())
    if isinstance(obj, (tuple, list)):
        return tuple(_canon(x) for x in obj)
    return obj


def _outcome(cluster: SimCluster, exchange):
    """Everything an exchange leaves behind on ``cluster``."""
    try:
        recv = exchange()
        delivered: Tuple = tuple(
            (dst, _canon(items)) for dst, items in recv.items()
        )
    except Exception as exc:  # the same error on both sides
        delivered = (type(exc).__name__, str(exc))
    plane = cluster.faults
    recorder = cluster.comm_recorder
    return {
        "delivered": delivered,
        "events": list(cluster.ledger.comm.events),
        "phase_seconds": dict(cluster.ledger.phase_seconds),
        "collective_counts": dict(cluster.collective_counts),
        "route_bytes": (cluster.route_precombine_bytes, cluster.route_wire_bytes),
        "injected": None if plane is None else plane.stats.as_dict(),
        "matrices": None if recorder is None else [
            m.to_dict() for m in recorder.matrices
        ],
        "spans": [
            (sp.name, sp.cat, sp.rank, sp.attrs) for sp in cluster.tracer.spans
        ],
    }


@given(
    case=exchanges(),
    autotune=st.booleans(),
    reorder_seed=st.one_of(st.none(), st.integers(0, 99)),
    faults=st.one_of(st.none(), st.builds(
        FaultConfig,
        seed=st.integers(0, 99),
        drop=st.sampled_from([0.0, 0.2]),
        dup=st.sampled_from([0.0, 0.3]),
        corrupt=st.sampled_from([0.0, 0.3]),
        max_retries=st.just(12),
    )),
    record=st.booleans(),
)
@settings(deadline=None)
def test_table_exchange_equals_the_dict_exchange(
    case, autotune, reorder_seed, faults, record
):
    n_ranks, form, arity, boxes = case

    def cluster():
        return SimCluster(
            n_ranks,
            reorder_seed=reorder_seed,
            tracer=Tracer(),
            fault_plane=None if faults is None else FaultPlane(faults, n_ranks),
            comm_recorder=CommMatrixRecorder(n_ranks) if record else None,
        )

    ref, new = cluster(), cluster()
    want = _outcome(ref, lambda: reference_alltoallv(
        ref, _sends(form, boxes), arity=arity, autotune=autotune, **FORMS[form]
    ))
    got = _outcome(new, lambda: new.alltoallv(
        _table(form, arity, boxes), arity=arity, autotune=autotune
    ))
    assert got == want

