"""Shared experiment plumbing: env knobs, configs, and table rendering."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.comm.costmodel import CostModel
from repro.runtime.config import EngineConfig

#: Work-density calibration used by the strong-scaling experiments: each
#: simulated tuple op is charged as κ ops so the compute-to-communication
#: ratio at a given rank count approximates the paper's (whose graphs are
#: orders of magnitude larger).  See EXPERIMENTS.md "Calibration".
SCALING_COMPUTE_SCALE = 64.0


@dataclass(frozen=True)
class ExperimentDefaults:
    """Per-invocation experiment sizing."""

    scale_shift: int
    full: bool
    seed: int = 42

    def ranks(self, full_list: Sequence[int], quick_list: Sequence[int]) -> List[int]:
        return list(full_list if self.full else quick_list)


def defaults_from_env(default_shift: int = 1) -> ExperimentDefaults:
    """Read ``REPRO_SCALE_SHIFT`` / ``REPRO_FULL`` from the environment."""
    shift = int(os.environ.get("REPRO_SCALE_SHIFT", default_shift))
    full = os.environ.get("REPRO_FULL", "0") == "1"
    return ExperimentDefaults(scale_shift=shift, full=full)


def optimized_config(
    n_ranks: int,
    *,
    edge_subbuckets: int = 8,
    cost_model: Optional[CostModel] = None,
) -> EngineConfig:
    """PARALAGG with both §IV optimizations on (the paper's "O")."""
    return EngineConfig(
        n_ranks=n_ranks,
        dynamic_join=True,
        subbuckets={"edge": edge_subbuckets},
        cost_model=cost_model,
    )


def baseline_config(
    n_ranks: int,
    *,
    cost_model: Optional[CostModel] = None,
) -> EngineConfig:
    """The paper's "B": no vote, no sub-buckets, and the static layout
    that serializes the large static relation (§V-B: edges "mistakenly
    placed" on the transmitted side)."""
    return EngineConfig(
        n_ranks=n_ranks,
        dynamic_join=False,
        static_outer="right",
        default_subbuckets=1,
        cost_model=cost_model,
    )


def scaling_cost_model() -> CostModel:
    return CostModel(compute_scale=SCALING_COMPUTE_SCALE)


# ------------------------------------------------------------------ display


def format_mmss(seconds: float) -> str:
    """``m:ss`` like paper Table I (sub-second shown as 0:0s.mmm)."""
    if seconds < 0:
        raise ValueError(f"negative duration {seconds}")
    m, s = divmod(seconds, 60.0)
    if m >= 1:
        return f"{int(m)}:{s:04.1f}"
    return f"0:{s:04.1f}" if s >= 10 else f"0:0{s:.2f}"


def format_si(x: float) -> str:
    """1234567 → '1.2M' (paper Table II's Edges/Paths columns)."""
    for div, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if abs(x) >= div:
            return f"{x / div:.1f}{suffix}"
    return f"{x:.0f}"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Plain-text table with aligned columns."""
    table = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(table[0], widths)))
    lines.append(sep)
    for row in table[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(series: Dict[str, Dict[int, float]], x_label: str, y_label: str) -> str:
    """Render named series over an integer x-axis (scaling figures)."""
    xs = sorted({x for ys in series.values() for x in ys})
    headers = [x_label] + list(series)
    rows = []
    for x in xs:
        row: List[object] = [x]
        for name in series:
            v = series[name].get(x)
            row.append("-" if v is None else f"{v:.4f}")
        rows.append(row)
    return render_table(headers, rows, title=f"{y_label} by {x_label}")
