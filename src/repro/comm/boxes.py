"""What an all-to-all moves: one table of boxes.

An exchange cuts its rows into *boxes*: one home shard's rows from one
source (the route exchange), one old shard version's rows bound for one
new shard (the reshard), one batch's rows from one source to one
sub-bucket owner (the intra-bucket exchange, the update seed), or one
item of a hand-written ``sends[src][dst]`` list.  A message is every box
of one ``(src, dst)`` pair.

:class:`BoxTable` holds an exchange's boxes as int64 columns over one
row block and, once encoded, one ``uint8`` payload buffer, so building,
encoding, sizing and delivering an exchange each run once per column,
not once per box.  :class:`Delivery` is what
:meth:`~repro.comm.simcluster.SimCluster.alltoallv` returns: box indices
grouped by receiving rank, and a ``recv[dst]`` mapping view of them.

A box is a Python object only as an item of a hand-written rank
program's send dict (:meth:`BoxTable.from_sends`, one tuple a box, read
back through the mapping view: ``examples/spmd_style.py`` and
:class:`~repro.runtime.spmd.SliceComm`).  Message faults act on whole
messages, so a faulted exchange needs no per-box object either.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.kernels.block import concat_ranges, offsets

_COLUMNS = ("src", "dst", "n_rows", "bucket", "sub", "pre_rows", "row_lo",
            "byte_lo", "byte_len", "nbytes")


class BoxTable:
    """An exchange's boxes, one entry per box in each column.

    ``src``, ``dst``, ``n_rows``
        sender, receiver and tuple count of every box;
    ``bucket``, ``sub``
        a route box's home shard;
    ``pre_rows``
        the rows a route box stood for before the sender fold; with it
        the exchange also accounts the un-combined traffic;
    ``rows``, ``row_lo``
        box ``k``'s rows are ``rows[row_lo[k] : row_lo[k] + n_rows[k]]``
        (``row_lo`` defaults to the boxes laid end to end);
    ``payload``, ``byte_lo``, ``byte_len``
        its encoded payload in one ``uint8`` buffer, likewise (the
        boxes' payloads end to end);
    ``nbytes``
        the wire bytes a box is charged; absent, its raw tuple size;
    ``items``
        the objects of a hand-written send dict.
    """

    __slots__ = _COLUMNS + ("rows", "payload", "items")

    def __init__(self, src, dst, n_rows, *, bucket=None, sub=None,
                 pre_rows=None, rows=None, row_lo=None, payload=None,
                 byte_len=None, nbytes=None, items=None):
        self.src, self.dst, self.n_rows = src, dst, n_rows
        self.bucket, self.sub, self.pre_rows = bucket, sub, pre_rows
        self.rows, self.payload, self.items = rows, payload, items
        self.row_lo = offsets(n_rows)[:-1] if rows is not None and row_lo is None else row_lo
        self.byte_len, self.nbytes = byte_len, nbytes
        self.byte_lo = None if payload is None else offsets(byte_len)[:-1]

    @classmethod
    def from_sends(cls, sends: Mapping) -> "BoxTable":
        """The table of a hand-written ``sends[src][dst] = [items]`` dict:
        one box of one tuple per item, in ``(src, dst)`` order, charged
        its raw tuple size."""
        src, dst, items = [], [], []
        for s in sorted(sends):
            for d, payload in sorted(sends[s].items()):
                src += [s] * len(payload)
                dst += [d] * len(payload)
                items += payload
        return cls(
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            np.ones(len(items), dtype=np.int64),
            items=items,
        )

    def __len__(self) -> int:
        return self.src.shape[0]

    def item(self, k: int):
        """Box ``k`` as a Python object, the form the exchanges always
        shipped: a hand-written item as given; a route box as
        ``(bucket, sub, n_rows, pre_rows, payload)`` once encoded, else
        ``(bucket, sub, rows)``; any other box as its rows, or ``(rows,
        payload)`` once encoded."""
        if self.items is not None:
            return self.items[k]
        rows = payload = None
        if self.rows is not None:
            lo = int(self.row_lo[k])
            rows = self.rows[lo : lo + int(self.n_rows[k])]
        if self.payload is not None:
            lo = int(self.byte_lo[k])
            payload = self.payload[lo : lo + int(self.byte_len[k])].tobytes()
        if self.bucket is None:
            return rows if payload is None else (rows, payload)
        b, s = int(self.bucket[k]), int(self.sub[k])
        if payload is None:
            return b, s, rows
        return b, s, int(self.n_rows[k]), int(self.pre_rows[k]), payload

    def rows_of(self, boxes: np.ndarray) -> np.ndarray:
        """The rows of ``boxes`` laid end to end."""
        return _ranges(self.rows, self.row_lo[boxes], self.n_rows[boxes])

    def payload_of(self, boxes: np.ndarray) -> np.ndarray:
        """The payload bytes of ``boxes`` laid end to end."""
        return _ranges(self.payload, self.byte_lo[boxes], self.byte_len[boxes])

    def take(self, boxes: np.ndarray) -> "BoxTable":
        """The table of ``boxes`` only, over the same row block and payload."""
        out = BoxTable.__new__(BoxTable)
        for name in _COLUMNS:
            col = getattr(self, name)
            setattr(out, name, None if col is None else col[boxes])
        out.rows, out.payload = self.rows, self.payload
        out.items = None if self.items is None else [self.items[k] for k in boxes.tolist()]
        return out

    @classmethod
    def concat(cls, tables: Sequence["BoxTable"]) -> "BoxTable":
        """One table of every table's boxes, in order, row blocks and
        payloads concatenated; a table without boxes adds nothing."""
        tables = [t for t in tables if len(t)] or tables[:1]
        if len(tables) == 1:
            return tables[0]
        out = cls.__new__(cls)
        for name in _COLUMNS:
            cols = [getattr(t, name) for t in tables]
            setattr(out, name, None if cols[0] is None else np.concatenate(cols))
        for block, lo in (("rows", "row_lo"), ("payload", "byte_lo")):
            blocks = [getattr(t, block) for t in tables]
            if blocks[0] is not None:
                base = offsets(np.asarray([b.shape[0] for b in blocks]))[:-1]
                setattr(out, lo, np.concatenate(
                    [getattr(t, lo) + b for t, b in zip(tables, base.tolist())]
                ))
            setattr(out, block, None if blocks[0] is None else np.concatenate(blocks))
        out.items = None
        if tables[0].items is not None:
            out.items = [item for t in tables for item in t.items]
        return out


def _ranges(block: np.ndarray, lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``block[lo[i] : lo[i] + n[i]]`` for every ``i``, laid end to end: a
    view when the ranges lie consecutively in ``block``, else one gather."""
    if lo.shape[0] and (lo[1:] == lo[:-1] + n[:-1]).all():
        return block[lo[0] : lo[-1] + n[-1]]
    return block[concat_ranges(lo, n)]


class Delivery(Mapping):
    """An all-to-all's deliveries: ``order`` lists the delivered boxes of
    ``table`` (a duplicated message's boxes twice), every receiving
    rank's contiguously, in delivery order.

    As a mapping it is the ``recv`` dict the exchange always returned:
    ``recv[dst]`` is the list of items delivered to ``dst``
    (:meth:`BoxTable.item`), receivers in delivery order.
    """

    def __init__(self, table: BoxTable, order: np.ndarray):
        self.table = table
        self.order = order
        dst = table.dst[order]
        heads = np.flatnonzero(np.diff(dst, prepend=-1))  # ranks are >= 0
        #: Every receiving rank in delivery order, and where its boxes lie
        #: in ``order``: receiver ``i``'s are ``order[bounds[i] :
        #: bounds[i + 1]]``.
        self.dsts = dst[heads]
        self.bounds = np.append(heads, order.shape[0])

    def boxes(self) -> Iterator[Tuple[int, np.ndarray]]:
        """``(dst, delivered box indices)`` per receiving rank."""
        yield from zip(self.dsts.tolist(), np.split(self.order, self.bounds[1:-1]))

    def only(self, dst: int) -> "Delivery":
        """What rank ``dst`` received, alone."""
        return Delivery(self.table, self.order[self.table.dst[self.order] == dst])

    def __getitem__(self, dst: int) -> list:
        for d, boxes in self.boxes():
            if d == dst:
                return [self.table.item(k) for k in boxes.tolist()]
        raise KeyError(dst)

    def __iter__(self) -> Iterator[int]:
        return iter(self.dsts.tolist())

    def __len__(self) -> int:
        return self.dsts.shape[0]
