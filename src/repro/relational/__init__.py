"""Relations, schemas, and the double-hash tuple distribution.

This package is the BPRA substrate (paper §II-D): fixed-arity integer
tuples, relations versioned for semi-naïve evaluation (``full`` / ``delta``
/ ``new``), and the bucket / sub-bucket *double hash* placement that makes
joins local and — with the paper's restriction that aggregated columns are
never hashed — makes recursive aggregation communication-free.

Placement rules (paper §III, §IV-A):

* **bucket** = hash of the *join columns* (mod rank count) — all tuples
  that can meet in a join share a bucket;
* **sub-bucket** = hash of the remaining *independent* columns — spreads
  skewed keys across ranks (spatial load balancing, §IV-C);
* **dependent (aggregated) columns are never hashed** — so every tuple of
  one aggregation group lands on one rank and aggregation fuses with
  deduplication at zero communication cost.
"""

from repro.relational.schema import Schema
from repro.relational.distribution import Distribution

__all__ = ["Schema", "Distribution", "RelationStore", "VersionedRelation"]


def __getattr__(name: str):
    # storage depends on repro.core (shard implementations), which in turn
    # imports repro.relational.schema — importing it lazily here breaks the
    # cycle while keeping ``from repro.relational import RelationStore``
    # working.
    if name in ("RelationStore", "VersionedRelation"):
        from repro.relational import storage

        return getattr(storage, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
