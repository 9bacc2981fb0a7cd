"""Spatial load balancing — sub-bucketing analysis (paper §IV-C, Fig. 3).

Sub-bucketing is configured per relation (``Schema.n_subbuckets``) and the
placement itself lives in :class:`~repro.relational.distribution.Distribution`.
This module provides the *measurement* side:

* :func:`measure_imbalance` — the per-rank tuple distribution and its
  summary statistics (max/mean ratio, max/min ratio, CDF) used to draw the
  paper's Fig. 3;
* :func:`recommend_subbuckets` — the adaptive policy: grow the sub-bucket
  count while the projected imbalance exceeds a tolerance (the paper ships
  a static default of 8 sub-buckets; the adaptive mode is our
  implementation of its "if the data size ... is still imbalanced" rule).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from repro.relational.distribution import Distribution, heavy_keys
from repro.relational.schema import Schema
from repro.util.hashing import HashSeed


@dataclass(frozen=True)
class ImbalanceReport:
    """Summary of a tuple distribution across ranks."""

    n_ranks: int
    total_tuples: int
    max_tuples: int
    min_tuples: int
    mean_tuples: float
    #: max / mean — 1.0 is perfect balance; Fig. 3's headline number.
    ratio_max_mean: float
    #: max / min over *non-empty statistics*; the paper quotes "ten times
    #: more tuples than the smallest rank".
    ratio_max_min: float
    per_rank: Tuple[int, ...]

    def cdf(self) -> Tuple[np.ndarray, np.ndarray]:
        """Cumulative density of per-rank tuple counts (x: count, y: F(x))."""
        counts = np.sort(np.asarray(self.per_rank))
        y = np.arange(1, len(counts) + 1) / len(counts)
        return counts, y


def per_rank_counts(
    tuples: Iterable[Tuple[int, ...]], dist: Distribution
) -> np.ndarray:
    """Count tuples landing on each rank under ``dist`` (vectorized)."""
    rows = np.asarray(list(tuples), dtype=np.int64)
    counts = np.zeros(dist.n_ranks, dtype=np.int64)
    if rows.size:
        ranks = dist.rank_of_rows(rows)
        np.add.at(counts, ranks, 1)
    return counts


def measure_imbalance(
    tuples: Iterable[Tuple[int, ...]] | np.ndarray, dist: Distribution
) -> ImbalanceReport:
    """Project a relation onto ranks and summarize the imbalance."""
    if isinstance(tuples, np.ndarray):
        rows = tuples
        counts = np.zeros(dist.n_ranks, dtype=np.int64)
        if rows.size:
            np.add.at(counts, dist.rank_of_rows(rows), 1)
    else:
        counts = per_rank_counts(tuples, dist)
    total = int(counts.sum())
    mean = total / dist.n_ranks if dist.n_ranks else 0.0
    cmax = int(counts.max(initial=0))
    cmin = int(counts.min(initial=0))
    return ImbalanceReport(
        n_ranks=dist.n_ranks,
        total_tuples=total,
        max_tuples=cmax,
        min_tuples=cmin,
        mean_tuples=mean,
        ratio_max_mean=(cmax / mean) if mean > 0 else 1.0,
        ratio_max_min=(cmax / cmin) if cmin > 0 else float("inf"),
        per_rank=tuple(int(c) for c in counts),
    )


def recommend_subbuckets(
    rows: np.ndarray,
    schema: Schema,
    n_ranks: int,
    *,
    tolerance: float = 2.0,
    max_subbuckets: int = 64,
    seed: HashSeed | None = None,
) -> Tuple[int, ImbalanceReport]:
    """Adaptive sub-bucket sizing over a relation's ``(m, arity)`` rows.

    Doubles the sub-bucket count n until the projected max/mean imbalance
    drops under ``tolerance`` (the ~2× residual the paper reports for 8
    sub-buckets on Twitter) or ``max_subbuckets`` is reached.  A schema
    with a heavy-key set is projected with the set a resize to n would
    recount, the keys above m/(p·n) rows
    (:func:`~repro.relational.distribution.heavy_keys`); one without
    spreads every key.

    Returns the chosen count and the report at that count.
    """
    if tolerance < 1.0:
        raise ValueError(f"tolerance must be >= 1.0, got {tolerance}")
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, schema.arity)
    n_sub = 1
    best: Tuple[int, ImbalanceReport] | None = None
    while True:
        heavy = schema.heavy_keys
        if heavy is not None:
            heavy = heavy_keys(rows, schema.join_cols, n_ranks * n_sub)
        trial_schema = dataclasses.replace(
            schema, n_subbuckets=n_sub, heavy_keys=heavy
        )
        report = measure_imbalance(rows, Distribution(trial_schema, n_ranks, seed))
        if best is None or report.ratio_max_mean < best[1].ratio_max_mean:
            best = (n_sub, report)
        if report.ratio_max_mean <= tolerance or n_sub >= max_subbuckets:
            return best if report.ratio_max_mean > tolerance else (n_sub, report)
        # Clamp to the cap: a non-power-of-two ``max_subbuckets`` must still
        # be the *last* trial, not skipped by the doubling overshoot.
        n_sub = min(n_sub * 2, max_subbuckets)

