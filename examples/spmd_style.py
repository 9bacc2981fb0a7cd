#!/usr/bin/env python3
"""Writing a rank program by hand, on the comm the engine itself uses.

The engine normally hides the cluster, but
:func:`repro.runtime.spmd.run_ranks` runs any function once per simulated
rank, one thread each, in lockstep over one
:class:`~repro.comm.simcluster.SimCluster` — the same comm the per-rank
engine driver runs on.  A rank program calls the cluster's collectives on
its ``comm``, contributing its own part: its row of the send matrix to
``alltoallv``, its own value to ``allreduce``.  Every message then gets the
cluster's CRC envelope, retransmission, fault injection and α–β ledger.

This example counts triangles: each rank ships its share of the edges,
oriented low → high, to the owner of the low end; each owner ships every
wedge it sees to the rank that can close it; an ``allreduce`` sums the
closed wedges.  It runs on a perfect network and again under dropped,
duplicated and corrupted messages, and gets the reference count both times.

Run:  python examples/spmd_style.py
"""

import itertools

from repro import EngineConfig
from repro.api import FaultOptions
from repro.faults import FaultConfig
from repro.graphs import erdos_renyi
from repro.runtime.spmd import run_ranks


def triangle_count(comm, edges):
    rank, size = comm.rank, comm.n_ranks

    # Every rank reads the input and takes its stripe of it.
    boxes = {}
    for u, v in edges[rank::size]:
        low, high = min(u, v), max(u, v)
        boxes.setdefault(low % size, []).append((low, high))
    recv = comm.alltoallv({rank: boxes}, arity=2)
    higher = {}
    for low, high in recv.get(rank, []):
        higher.setdefault(low, set()).add(high)

    # Triangle a < b < c is the wedge (b, c) at apex a, closed by the edge
    # b -> c, which only b's owner holds.
    wedges = {}
    for a, neighbours in higher.items():
        for b, c in itertools.combinations(sorted(neighbours), 2):
            wedges.setdefault(b % size, []).append((a, b, c))
    recv = comm.alltoallv({rank: wedges}, arity=3)
    # A duplicated message is delivered twice: count each wedge once.
    wedges = set(recv.get(rank, []))
    closed = sum(1 for _a, b, c in wedges if c in higher.get(b, ()))
    return comm.allreduce({rank: closed})


def main() -> None:
    g = erdos_renyi(60, 500, seed=7).symmetrized()
    edges = sorted({tuple(sorted((int(u), int(v)))) for u, v in g.edges})

    # Reference count for validation.
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    expected = sum(
        1
        for u, v, w in itertools.combinations(sorted(adj), 3)
        if v in adj[u] and w in adj[u] and w in adj[v]
    )
    print(f"reference triangle count: {expected}")

    faulty = FaultConfig(drop=0.3, dup=0.1, corrupt=0.1, max_retries=8, seed=3)
    for label, faults in (("perfect network", None), ("drop/dup/corrupt", faulty)):
        counts, cluster = run_ranks(
            EngineConfig(n_ranks=8, faults=FaultOptions(config=faults)),
            triangle_count, edges,
        )
        comm = cluster.ledger.comm
        plane = cluster.faults
        retransmits = 0 if plane is None else plane.stats.retransmits
        print(
            f"{label}: {counts[0]} triangles on every rank, "
            f"{comm.bytes_total} bytes in {comm.messages} messages, "
            f"{retransmits} retransmits, "
            f"modeled {cluster.ledger.total_seconds() * 1e6:.1f} µs"
        )
        assert counts == [expected] * 8


if __name__ == "__main__":
    main()
