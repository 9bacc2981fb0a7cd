"""Experiment harnesses — one module per paper table/figure (§V).

Each module exposes ``run_*`` returning structured results and a
``render`` producing the paper-style table/series as text.  The scripts in
``benchmarks/`` and ``paralagg experiment`` both call these, so every
paper-side number in EXPERIMENTS.md is regenerable two ways.  They are the
reproduction, not a ruler: the repo's own performance is measured by
``bench/`` (``BENCHMARK.json``) and nowhere else.

Scaling knobs (environment variables, read at call time):

``REPRO_SCALE_SHIFT``
    Extra graph down-scaling for quick runs (default: per-experiment).
``REPRO_FULL``
    Set to ``1`` to run every rank count / dataset the paper uses
    (longer); default sweeps a representative subset.
"""

from repro.experiments.common import (
    ExperimentDefaults,
    defaults_from_env,
    format_mmss,
    render_table,
)
from repro.experiments import fig2, fig3, fig4, fig5, fig6, fig7, table1, table2, ablations

__all__ = [
    "ExperimentDefaults",
    "defaults_from_env",
    "format_mmss",
    "render_table",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table1",
    "table2",
    "ablations",
]
