"""The trace format: Chrome trace-event JSON.

One span model (:class:`repro.obs.tracer.Span`), one file format: a JSON
object with a ``traceEvents`` array loadable in ``chrome://tracing`` or
Perfetto (https://ui.perfetto.dev).  Lane layout:

* ``pid 0`` — the **driver**, on the *host wall clock*: the engine's
  pipeline phases (vote / intra_bucket / local_join / comm / dedup_agg)
  plus stratum and iteration boundary spans, nested as executed.
* ``pid r+1`` — **rank r**, on the *modeled cluster clock*: that rank's
  share of every compute superstep and every collective it participates
  in.  Because the modeled clock advances only via ledger charges, rank
  lanes tile the BSP timeline: imbalance shows up as idle gaps before
  each synchronizing collective, exactly the pathology of paper Fig. 3/4.

The two clock domains share the one trace: timestamps are microseconds on
each lane's own clock.  Compare *within* a lane group, not across the
driver/rank boundary (every event also carries the other clock in its
``args``).

The file carries the spans and the caller's ``meta`` (``otherData``),
nothing derived: offline tools (``paralagg trace-report``) recompute what
they need from the spans — the comm-matrix reconciliation reads the
``nbytes`` of rank 0's comm spans, the same bytes the ledger charged.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.tracer import Span

_US = 1e6  # seconds -> microseconds (the trace-event time unit)


def _span_sort_key(sp: Span) -> Tuple[int, float, float]:
    # Rank lanes order by modeled time, the driver lane by wall time;
    # parents (equal start) come before children via -duration.
    if sp.rank is None:
        return (0, sp.wall_start, -(sp.wall_seconds))
    return (1, sp.modeled_start, -(sp.modeled_seconds))


def _pid_of(span: Span) -> int:
    return 0 if span.rank is None else span.rank + 1


def chrome_trace(
    spans: Sequence[Span], meta: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """Build the Chrome trace-event JSON object (Perfetto compatible)."""
    events: List[Dict[str, Any]] = []
    pids = sorted({_pid_of(sp) for sp in spans})
    for pid in pids:
        name = "driver (wall clock)" if pid == 0 else f"rank {pid - 1} (modeled)"
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "ts": 0,
            "name": "process_name", "args": {"name": name},
        })
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "ts": 0,
            "name": "process_sort_index", "args": {"sort_index": pid},
        })
    for sp in sorted(spans, key=_span_sort_key):
        on_wall = sp.rank is None
        start = sp.wall_start if on_wall else sp.modeled_start
        dur = sp.wall_seconds if on_wall else sp.modeled_seconds
        args: Dict[str, Any] = {
            "wall_seconds": sp.wall_seconds,
            "modeled_seconds": sp.modeled_seconds,
            "modeled_start": sp.modeled_start,
        }
        if sp.iteration is not None:
            args["iteration"] = sp.iteration
        if sp.stratum is not None:
            args["stratum"] = sp.stratum
        args.update(sp.attrs)
        # Round the *endpoints*, not (ts, dur) independently — adjacent
        # spans must share exact boundaries or viewers see micro-overlaps.
        ts = round(start * _US, 3)
        event: Dict[str, Any] = {
            "pid": _pid_of(sp),
            "tid": 0,
            "name": sp.name,
            "cat": sp.cat,
            "ts": ts,
            "args": args,
        }
        if sp.cat == "summary":
            event["ph"] = "i"
            event["s"] = "p"  # process-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = max(0.0, round((start + max(0.0, dur)) * _US, 3) - ts)
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"format": "repro-trace-chrome", **(dict(meta) if meta else {})},
    }


def write_trace(
    path: str, spans: Sequence[Span], meta: Optional[Mapping[str, Any]] = None
) -> int:
    """Write a Chrome trace file; returns the number of trace events."""
    obj = chrome_trace(spans, meta)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return len(obj["traceEvents"])


# ------------------------------------------------------------------- loaders

#: Args keys the Chrome exporter synthesizes; everything else in ``args``
#: round-trips back into ``Span.attrs``.
_CHROME_SYNTH_ARGS = (
    "wall_seconds", "modeled_seconds", "modeled_start", "iteration", "stratum",
)


def spans_from_chrome(obj: Mapping[str, Any]) -> List[Span]:
    """Rebuild :class:`Span` objects from a Chrome trace object.

    The Chrome format is lossy about the off-lane clock's *start* (a rank
    span's wall interval is exported as a duration only), so reconstructed
    spans are exact on their own lane's clock and duration-exact on the
    other — which is all the offline diagnostics consume.
    """
    spans: List[Span] = []
    for ev in obj.get("traceEvents", ()):
        ph = ev.get("ph")
        if ph not in ("X", "i"):
            continue
        args = dict(ev.get("args", {}))
        pid = int(ev.get("pid", 0))
        rank = None if pid == 0 else pid - 1
        modeled_start = float(args.get("modeled_start", 0.0))
        modeled_seconds = float(args.get("modeled_seconds", 0.0))
        wall_seconds = float(args.get("wall_seconds", 0.0))
        if rank is None:
            wall_start = float(ev.get("ts", 0.0)) / _US
        else:
            wall_start = 0.0
        attrs = {k: v for k, v in args.items() if k not in _CHROME_SYNTH_ARGS}
        spans.append(Span(
            name=str(ev.get("name", "")),
            cat=str(ev.get("cat", "phase")),
            rank=rank,
            iteration=args.get("iteration"),
            stratum=args.get("stratum"),
            wall_start=wall_start,
            wall_end=wall_start + wall_seconds,
            modeled_start=modeled_start,
            modeled_end=modeled_start + modeled_seconds,
            attrs=attrs,
        ))
    return spans


def load_trace(path: str) -> Tuple[List[Span], Dict[str, Any]]:
    """Load a saved trace: ``(spans, meta)``, ``meta`` being the trace's
    own ``otherData`` record."""
    with open(path) as fh:
        obj = json.load(fh)
    return spans_from_chrome(obj), dict(obj.get("otherData", {}))


# ----------------------------------------------------------------- validation


def validate_chrome_trace(obj: Any) -> Dict[str, Any]:
    """Check a Chrome trace object; returns summary stats or raises ValueError.

    Verifies the invariants Perfetto relies on: a ``traceEvents`` array
    holding at least one complete (``"X"``) event, complete events with
    non-negative ``ts``/``dur``, and — per lane — properly nested spans
    (an event begins only after every sibling that started earlier has
    either ended or encloses it).
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("traceEvents"), list):
        raise ValueError("not a Chrome trace: missing 'traceEvents' array")
    events = obj["traceEvents"]
    lanes: Dict[Tuple[int, int], List[Tuple[float, float, str]]] = {}
    names = set()
    for ev in events:
        if not isinstance(ev, dict) or "ph" not in ev:
            raise ValueError(f"malformed trace event: {ev!r}")
        if ev["ph"] not in ("X", "M", "i"):
            raise ValueError(f"unexpected event phase {ev['ph']!r}")
        if ev["ph"] != "X":
            continue
        for key in ("name", "pid", "tid", "ts", "dur"):
            if key not in ev:
                raise ValueError(f"complete event missing {key!r}: {ev!r}")
        if ev["ts"] < 0 or ev["dur"] < 0:
            raise ValueError(f"negative timestamp/duration: {ev!r}")
        names.add(ev["name"])
        lanes.setdefault((ev["pid"], ev["tid"]), []).append(
            (float(ev["ts"]), float(ev["dur"]), str(ev["name"]))
        )
    if not lanes:
        raise ValueError("no complete ('X') event: the trace holds no spans")
    eps = 2e-3  # endpoint rounding is 1e-3 us; allow one ulp on each side
    for lane, evs in lanes.items():
        evs.sort(key=lambda e: (e[0], -e[1]))
        stack: List[Tuple[float, float, str]] = []
        for ts, dur, name in evs:
            while stack and ts >= stack[-1][0] + stack[-1][1] - eps:
                stack.pop()
            if stack and ts + dur > stack[-1][0] + stack[-1][1] + eps:
                raise ValueError(
                    f"lane {lane}: span {name!r} [{ts}, {ts + dur}] overlaps "
                    f"{stack[-1][2]!r} ending at {stack[-1][0] + stack[-1][1]}"
                )
            stack.append((ts, dur, name))
    return {
        "events": len(events),
        "pids": sorted({pid for pid, _tid in lanes}),
        "rank_lanes": sorted(pid - 1 for pid, _tid in lanes if pid > 0),
        "names": names,
    }


def validate_trace_file(path: str) -> Dict[str, Any]:
    """Validate a Chrome trace file on disk (see :func:`validate_chrome_trace`)."""
    with open(path) as fh:
        return validate_chrome_trace(json.load(fh))
