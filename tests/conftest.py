"""Shared fixtures and hypothesis configuration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# CI-friendly hypothesis defaults: the engine property tests run whole
# fixpoints per example, so keep example counts moderate and disable the
# per-example deadline (simulation time varies with the drawn graph).
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# The kernel-identity CI job's profile (``--hypothesis-profile=deep``):
# ten times tier-1's examples for every property that does not pin its
# own count — the fold, codec and key-index identities, cheap per example.
settings.register_profile(
    "deep",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_weighted_graph():
    """A fixed small weighted digraph with known shortest paths."""
    from repro.graphs.types import Graph

    edges = np.array(
        [
            (0, 1, 4), (0, 2, 9), (1, 2, 1), (2, 3, 2),
            (3, 1, 1), (1, 4, 7), (3, 4, 3), (5, 6, 1),
        ],
        dtype=np.int64,
    )
    return Graph(edges=edges, n_nodes=7, name="fixture")


@pytest.fixture
def medium_graph():
    """A reproducible RMAT graph big enough to exercise distribution."""
    from repro.graphs.generators import rmat

    return rmat(7, 4, seed=1)


@pytest.fixture
def medium_weighted_graph(medium_graph):
    return medium_graph.with_weights(np.random.default_rng(3), 10)
