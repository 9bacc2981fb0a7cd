"""Outside-in tracing: time the calls into each layer's public functions.

The benchmark owns these spans; nothing under ``src/`` knows about them.
``SpanRecorder.install`` walks a patch table and, for every target,
rebinds each ``repro.*`` module global and class attribute that *is* the
target to a timing wrapper, so call sites that did ``from x import y``
(``runtime/engine.py`` does) are covered as well as ``x.y(...)`` ones.
Spans stay in memory with a link to the span that was open when they
began; a layer's self time is its spans' duration minus the part their
child spans cover.

A target that no longer exists does not fail the run: its layer is listed
in ``SpanRecorder.untraced`` and reads 0 calls, and the end-to-end metrics
never pass through a wrapper at all.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import numpy as np

#: layer (a module name, plus the operation where a module has several)
#: -> the functions whose calls are that layer, as ``module:qualname``.
PATCH_TABLE: Dict[str, Tuple[str, ...]] = {
    "planner.compile_program": ("repro.planner.compile_rules:compile_program",),
    "relational.storage.load": ("repro.relational.storage:VersionedRelation.load",),
    "relational.storage.advance": (
        "repro.relational.storage:VersionedRelation.advance",
    ),
    "relational.distribution.hash": (
        "repro.relational.distribution:Distribution.bucket_sub_of_rows",
        "repro.relational.distribution:Distribution.rank_of_rows",
    ),
    "core.join_planner.vote": ("repro.core.join_planner:vote_outer_relation",),
    "kernels.route.build_intra_sends": ("repro.kernels.route:build_intra_sends",),
    "kernels.route.build_route_sends": ("repro.kernels.route:build_route_sends",),
    "kernels.route.encode_wire_sends": ("repro.kernels.route:encode_wire_sends",),
    "kernels.route.decode_wire_box": ("repro.kernels.route:decode_wire_box",),
    "kernels.absorb.combine_block": ("repro.kernels.absorb:combine_block",),
    "kernels.block.lex_group": ("repro.kernels.block:lex_group",),
    "comm.wire.encode_rows": ("repro.comm.wire:encode_rows",),
    "comm.wire.decode_rows": ("repro.comm.wire:decode_rows",),
    "comm.simcluster.alltoallv": ("repro.comm.simcluster:SimCluster.alltoallv",),
    "comm.simcluster.allreduce": ("repro.comm.simcluster:SimCluster.allreduce",),
    "kernels.join.index_build": ("repro.kernels.join:RankJoinIndex.build",),
    "kernels.join.probe": ("repro.kernels.join:RankJoinIndex.probe",),
    "kernels.absorb.absorb_block": (
        "repro.kernels.absorb:ColumnarPlainShard.absorb_block",
        "repro.kernels.absorb:ColumnarAggregateShard.absorb_block",
    ),
    "faults.checkpoint.capture": ("repro.faults.checkpoint:capture",),
    "faults.checkpoint.restore": ("repro.faults.checkpoint:restore",),
    "runtime.incremental.update": ("repro.runtime.incremental:FixpointHandle.update",),
}

#: Root spans the driver opens itself, around set-up and around each
#: ``Engine.run`` / ``Session.update``.  Their self time is what no traced
#: layer covers: the engine's own driver loop, for the second.
SETUP_ROOT = "bench.setup"
ENGINE_ROOT = "runtime.engine"


def _resolve(target: str):
    """The object a ``module:qualname`` target names, unwrapped to a function."""
    module_name, _, qualname = target.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = vars(obj)[part]
    return getattr(obj, "__func__", obj)  # classmethod / staticmethod -> function


def _rewrap(like, wrapper):
    """``wrapper`` dressed as ``like`` was: classmethod, staticmethod or plain."""
    if isinstance(like, (classmethod, staticmethod)):
        return type(like)(wrapper)
    return wrapper


class SpanRecorder:
    """Timing wrappers over a patch table, and the spans they record."""

    def __init__(self, table: Dict[str, Tuple[str, ...]] = PATCH_TABLE):
        self.table = table
        self.layers: List[str] = list(table) + [SETUP_ROOT, ENGINE_ROOT]
        #: Layers with a target that could not be found, with the reason.
        self.untraced: Dict[str, str] = {}
        # One entry per span, in the order spans began.
        self._layer: List[int] = []
        self._parent: List[int] = []
        self._start: List[int] = []
        self._end: List[int] = []
        self._open: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _wrap(self, layer: int, fn):
        layers, parents, starts, ends = (
            self._layer, self._parent, self._start, self._end,
        )
        open_, clock = self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            layers.append(layer)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0)
            open_.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_.pop()

        return traced

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """A span the caller opens by hand (the driver's two root spans)."""
        index = len(self._start)
        self._layer.append(self.layers.index(layer))
        self._parent.append(self._open[-1] if self._open else -1)
        self._end.append(0)
        self._open.append(index)
        self._start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self._end[index] = time.perf_counter_ns()
            self._open.pop()

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        """Rebind every binding of every target to its timing wrapper."""
        for layer, targets in self.table.items():
            for target in targets:
                try:
                    original = _resolve(target)
                except (ImportError, KeyError) as exc:
                    self.untraced[layer] = f"{target}: {exc!r}"
                    continue
                self._rebind(original, self._wrap(self.layers.index(layer), original))

    def _rebind(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                elif isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in list(vars(value).items()):
                        if getattr(cvalue, "__func__", cvalue) is original:
                            self._set(value, cattr, _rewrap(cvalue, wrapper))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put back every binding ``install`` replaced."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------ reporting

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, and self seconds (duration minus child spans)."""
        layer = np.asarray(self._layer, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        duration = np.asarray(self._end, dtype=np.int64) - np.asarray(
            self._start, dtype=np.int64
        )
        covered = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        n = len(self.layers)
        calls = np.bincount(layer, minlength=n)
        self_s = np.bincount(layer, weights=duration - covered, minlength=n) / 1e9
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.layers)
        }

    def dump(self) -> Dict[str, object]:
        """The spans themselves, for ``--out``: start/end in ns from the first."""
        epoch = self._start[0] if self._start else 0
        return {
            "layers": self.layers,
            "columns": ["layer", "parent", "start_ns", "end_ns"],
            "spans": [
                [la, pa, st - epoch, en - epoch]
                for la, pa, st, en in zip(
                    self._layer, self._parent, self._start, self._end
                )
            ],
            "untraced": self.untraced,
        }
