"""SociaLite-style engine: single-node worker partitioning.

SociaLite (Seo et al., VLDB'13) evaluates Datalog-with-aggregates on a
single machine with per-worker relation partitions (the ``indexby``
manual partitioning the paper configures).  Architecturally, relative to
PARALAGG:

* **static join order** — plans are fixed at compile time;
* **no sub-bucketing** — a hub vertex pins its whole partition to one
  worker;
* **shared-memory messaging** — per-message latency is tiny (α of a
  queue handoff), but every tuple pays JVM boxing/allocation constants,
  and the central work queue serializes a slice of each step.

The paper measures SociaLite gaining little beyond 32 threads (Table I);
the serial fraction and constants below model exactly that saturation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.baselines.serial import SerialFractionLedger
from repro.comm.costmodel import CostModel
from repro.planner.ast import Program
from repro.runtime.config import EngineConfig
from repro.runtime.engine import Engine


def socialite_cost_model(compute_scale: float = 1.0) -> CostModel:
    """Cost constants for SociaLite's Java worker runtime.

    ``compute_scale`` is the shared work-density κ (see rasql_cost_model).
    """
    return CostModel(
        alpha=3.0e-6,        # concurrent-queue handoff, not a NIC
        beta=4.0e9,          # memcpy-ish intra-node transfer
        tuple_probe=3.0e-7,  # boxed-object hash probes
        tuple_emit=1.5e-7,
        tuple_insert=6.0e-7,
        tuple_agg=2.5e-7,
        tuple_serialize=6.0e-8,
        compute_scale=compute_scale,
    )


class SociaLiteLikeEngine(Engine):
    """Engine variant modeling SociaLite's evaluation strategy."""

    #: Fraction of each superstep serialized on the shared work queue.
    SERIAL_FRACTION = 0.10

    def __init__(self, program: Program, config: Optional[EngineConfig] = None):
        config = replace(
            config or EngineConfig(),
            dynamic_join=False,
            static_outer="left",
            subbuckets={},
            default_subbuckets=1,
        )
        if config.cost_model is None:
            config = replace(config, cost_model=socialite_cost_model())
        super().__init__(program, config)
        self.cluster.ledger = SerialFractionLedger(
            n_ranks=config.n_ranks,
            serial_fraction=self.SERIAL_FRACTION,
            tracer=self.tracer,
        )
