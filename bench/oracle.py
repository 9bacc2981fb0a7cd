"""Reference answers and per-operation failure accounting.

The expected answer of a workload is computed once, outside every timed
region, by the textbook algorithms in ``repro.graphs.reference``; each
repetition's answer is compared with it as a set of tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graphs import reference
from repro.graphs.types import Graph

TupleT = Tuple[int, ...]


def expected_answers(
    query: str, edges: np.ndarray, n_nodes: int, sources: Sequence[int]
) -> Set[TupleT]:
    """The tuples the query's answer relation must hold for these edges."""
    if query == "sssp":
        graph = Graph(edges, n_nodes)
        return {
            (int(s), t, d)
            for s in sources
            for t, d in reference.dijkstra(graph, int(s)).items()
        }
    if query == "cc":
        # The query labels every vertex that has an edge with the least
        # vertex id of its component; ``edges`` is already symmetric.
        labels = reference.connected_components(Graph(edges[:, :2], n_nodes))
        return {(v, labels[v]) for v in np.unique(edges[:, 0]).tolist()}
    raise ValueError(f"no oracle for query {query!r}")


@dataclass
class Tally:
    """Operations attempted and failed, with why.

    An operation is one repetition of a cold workload or one
    ``Session.update``; it fails if it raises, is refused
    (``IncrementalUnsupportedError`` is an exception like any other
    here), or leaves answers that differ from the oracle.
    """

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, operations: int, errors: Sequence[str]) -> None:
        """Count one repetition: ``errors`` holds one entry per failed op."""
        self.attempted += operations
        self.failed += len(errors)
        self.reasons.extend(errors)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_answers(answers: Set[TupleT], expected: Set[TupleT]) -> Optional[str]:
    """None if the answers match the oracle, else a one-line description."""
    if answers == expected:
        return None
    missing, extra = expected - answers, answers - expected
    return (
        f"answers differ from the oracle: {len(missing)} missing "
        f"(e.g. {sorted(missing)[:2]}), {len(extra)} unexpected "
        f"(e.g. {sorted(extra)[:2]})"
    )
