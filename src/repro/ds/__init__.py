"""Core data structures.

:mod:`repro.ds.btree`
    An in-memory B-tree map/set.  PARALAGG stores the *inner* relation of
    every join in "a nested BTree data structure" (paper §IV-D) to get
    ``O(log n)`` probes during local joins; this module is that substrate.
"""

from repro.ds.btree import BTreeMap, BTreeSet

__all__ = ["BTreeMap", "BTreeSet"]
