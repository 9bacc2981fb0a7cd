"""Relation schemas.

A :class:`Schema` fixes a relation's shape for the engine:

* ``arity`` — total column count; tuples are Python tuples of ints;
* ``n_dep`` — number of trailing *dependent* (aggregated) columns; zero
  for plain relations.  Following Listing 1/2 of the paper, dependent
  columns are the value carrier of a recursive aggregate (e.g. the path
  length of ``Spath``) and are **excluded from all hashing and indexing**;
* ``join_cols`` — the canonical index: independent columns whose values
  determine the tuple's bucket.  Both sides of a join must key the *same
  variable values*, so the planner assigns matching join columns to each
  body atom;
* ``aggregator`` — the :class:`~repro.core.aggregators.RecursiveAggregator`
  governing the dependent columns (required iff ``n_dep > 0``);
* ``n_subbuckets`` — spatial load-balancing factor (§IV-C); 1 disables
  sub-bucketing;
* ``heavy_keys`` — the join keys spread over the sub-buckets, sorted;
  every other key is *light* and keeps all its rows in sub-bucket 0,
  its bucket's home cell.
  ``None`` makes every key heavy, the paper's placement
  (:class:`~repro.relational.distribution.Distribution`).

The split/merge helpers define the storage layout: a tuple is decomposed
into its join key ``jk`` (bucket determinant), its remaining independent
columns ``other`` (sub-bucket determinant and group discriminator), and its
dependent value ``dep`` (the lattice element).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.aggregators import RecursiveAggregator


@dataclass(frozen=True)
class Schema:
    """Immutable description of one relation."""

    name: str
    arity: int
    join_cols: Tuple[int, ...]
    n_dep: int = 0
    aggregator: Optional["RecursiveAggregator"] = None
    n_subbuckets: int = 1
    heavy_keys: Optional[Tuple[Tuple[int, ...], ...]] = None
    #: Derived, cached in __post_init__ via object.__setattr__.
    other_cols: Tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError(f"{self.name}: arity must be >= 1, got {self.arity}")
        # n_dep == arity is legal: a global aggregate (e.g. Lsp) has no
        # independent columns at all — every tuple folds into one group.
        if not 0 <= self.n_dep <= self.arity:
            raise ValueError(
                f"{self.name}: n_dep must be in [0, arity], got {self.n_dep}"
            )
        n_indep = self.arity - self.n_dep
        jc = tuple(self.join_cols)
        if len(set(jc)) != len(jc):
            raise ValueError(f"{self.name}: duplicate join columns {jc}")
        if any(not 0 <= c < n_indep for c in jc):
            raise ValueError(
                f"{self.name}: join columns {jc} must index independent "
                f"columns [0, {n_indep}) — dependent columns are never hashed"
            )
        # jc may be empty: a relation with no independent columns (a global
        # aggregate such as Lsp) hashes the empty key — all tuples meet on
        # one rank, which is the correct semantics for a global fold.
        if (self.n_dep > 0) != (self.aggregator is not None):
            raise ValueError(
                f"{self.name}: aggregator must be supplied exactly when "
                f"n_dep > 0 (n_dep={self.n_dep})"
            )
        if self.aggregator is not None and self.aggregator.n_dep != self.n_dep:
            raise ValueError(
                f"{self.name}: aggregator handles {self.aggregator.n_dep} "
                f"dependent columns, schema declares {self.n_dep}"
            )
        if self.n_subbuckets < 1:
            raise ValueError(
                f"{self.name}: n_subbuckets must be >= 1, got {self.n_subbuckets}"
            )
        if self.heavy_keys is not None and any(
            len(key) != len(jc) for key in self.heavy_keys
        ):
            raise ValueError(
                f"{self.name}: every heavy key needs {len(jc)} join-column values"
            )
        object.__setattr__(
            self,
            "other_cols",
            tuple(c for c in range(n_indep) if c not in jc),
        )
        object.__setattr__(self, "join_cols", jc)

    # ------------------------------------------------------------- structure

    @property
    def n_indep(self) -> int:
        return self.arity - self.n_dep

    @property
    def dep_cols(self) -> Tuple[int, ...]:
        return tuple(range(self.n_indep, self.arity))

    @property
    def is_aggregate(self) -> bool:
        return self.n_dep > 0

    # ----------------------------------------------------------- split/merge

    def key_of(self, t: Tuple[int, ...]) -> Tuple[int, ...]:
        """Join-key values (bucket determinant)."""
        return tuple(t[c] for c in self.join_cols)

    def other_of(self, t: Tuple[int, ...]) -> Tuple[int, ...]:
        """Non-join independent values (sub-bucket / group discriminator)."""
        return tuple(t[c] for c in self.other_cols)

    def dep_of(self, t: Tuple[int, ...]) -> Tuple[int, ...]:
        """Dependent (aggregated) values — the lattice element."""
        return t[self.n_indep:]

    def indep_of(self, t: Tuple[int, ...]) -> Tuple[int, ...]:
        """All independent values in column order (the aggregation group)."""
        return t[: self.n_indep]

    def merge(
        self,
        jk: Tuple[int, ...],
        other: Tuple[int, ...],
        dep: Tuple[int, ...] = (),
    ) -> Tuple[int, ...]:
        """Reassemble a tuple from its split parts (inverse of the above)."""
        out = [0] * self.arity
        for pos, c in enumerate(self.join_cols):
            out[c] = jk[pos]
        for pos, c in enumerate(self.other_cols):
            out[c] = other[pos]
        for pos, c in enumerate(self.dep_cols):
            out[c] = dep[pos]
        return tuple(out)

    def check_tuple(self, t: Tuple[int, ...]) -> None:
        if len(t) != self.arity:
            raise ValueError(
                f"{self.name}: tuple {t!r} has arity {len(t)}, expected {self.arity}"
            )
