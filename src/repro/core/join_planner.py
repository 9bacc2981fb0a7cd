"""Dynamic join planning — Algorithm 1 of the paper (§IV-D).

Before each iteration's binary join, every rank compares the local sizes of
the two relations and votes for the smaller one to be the **outer**
relation — the side that is serialized and transmitted during intra-bucket
communication, and that is scanned tuple-by-tuple against the inner side's
index during the local join.  A single ``MPI_Allreduce`` of one small
integer tallies the votes; majority wins, so all ranks agree on one layout.

The payoff (paper Fig. 2): with a static layout, iterations where the
recursive Δ is tiny but the static Edge relation is huge would serialize
and linearly scan a billion edges; the vote flips the layout so the join
cost tracks ``|Δ| · log |Edge|`` instead.
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.comm.simcluster import SimCluster


class JoinSide(enum.Enum):
    """Which body atom of a binary join plays the outer role."""

    LEFT_OUTER = 0
    RIGHT_OUTER = 1


def vote_outer_relation(
    cluster: SimCluster,
    left_sizes: Sequence[int],
    right_sizes: Sequence[int],
    *,
    phase: str = "vote",
    abstain_empty: bool = False,
) -> JoinSide:
    """Run Algorithm 1: per-rank size comparison + one-word allreduce.

    Parameters
    ----------
    cluster:
        The simulated cluster (charged one small allreduce).
    left_sizes / right_sizes:
        Per-rank local tuple counts of the two candidate relations.
    abstain_empty:
        Extension beyond the paper: ranks holding no tuples of either
        relation abstain instead of casting the tie vote for the right
        side.  The paper's exact algorithm (default) lets empty ranks
        vote, which at low occupancy can elect the *larger* relation —
        harmless at the paper's scale (relations are balanced across all
        ranks) but visible on tiny or extremely skewed inputs.

    Returns
    -------
    The agreed layout: ``LEFT_OUTER`` if a majority of ranks found the left
    relation smaller (so it should move), else ``RIGHT_OUTER``.

    Mirrors the paper's pseudocode: each rank sets a flag when
    ``relation1.size >= relation2.size`` (i.e. votes for relation2 = right
    as outer), the flags are summed, and the layout swaps when at least
    half the (participating) ranks want it.
    """
    if len(left_sizes) != cluster.n_ranks or len(right_sizes) != cluster.n_ranks:
        raise ValueError(
            f"need one size per rank ({cluster.n_ranks}), got "
            f"{len(left_sizes)}/{len(right_sizes)}"
        )
    if abstain_empty:
        # Who abstains, and so the threshold, is read off every rank's
        # sizes (``agree``: free here, a collective on a real machine).
        pairs = [
            (l, r)
            for l, r in cluster.agree(list(zip(left_sizes, right_sizes)))
            if l or r
        ]
        if not pairs:
            return JoinSide.LEFT_OUTER
        votes = [1 if l >= r else 0 for l, r in pairs]
        # Two words on the wire instead of one: the vote and a participation
        # flag (still O(1) bytes, same allreduce count).
        ranks_want_right_outer = cluster.allreduce(
            votes + [0] * (cluster.n_ranks - len(votes)), sum, nbytes=2, phase=phase
        )
        threshold = (len(pairs) + 1) // 2
    else:
        votes = [1 if l >= r else 0 for l, r in zip(left_sizes, right_sizes)]
        ranks_want_right_outer = cluster.allreduce(votes, sum, nbytes=1, phase=phase)
        threshold = (cluster.n_ranks + 1) // 2
    if ranks_want_right_outer >= threshold:
        return JoinSide.RIGHT_OUTER
    return JoinSide.LEFT_OUTER
