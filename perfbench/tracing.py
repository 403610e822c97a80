"""Per-layer spans and counters, recorded from outside the package.

Each traced public function is replaced, wherever a graspa module binds it,
by a wrapper that opens a span.  Spans nest on a stack, so a layer's self
time is its duration minus the time of the spans it called.  Counters are
taken from the arguments and results at the same boundaries.  Memory is
measured in a separate pass: ``MemoryProbe`` wraps chosen functions and
records the tracemalloc peak each call reaches above its entry level.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

FLOAT_BYTES = 8


def _size(x) -> int:
    return int(np.size(x))


def _node_count(nodes) -> int:
    return int(np.size(getattr(nodes, "nodes", nodes)))


def _kernel(prefix, m, n):
    """calls, entries (sum of m*n) and the bytes of one m*n float64 array."""
    return {prefix + ".calls": 1, prefix + ".entries": m * n,
            prefix + ".bytes_computed": FLOAT_BYTES * m * n}


def _cells(args, out):
    return {"experiments.cells": len(out.cells),
            "experiments.cells_failed": sum(not c.ok for c in out.cells)}


# (module, function, span name, counter(args, result) -> {key: increment})
TARGETS = (
    ("domain", "equispaced_nodes", "domain.nodes", None),
    ("domain", "partition_nodes", "domain.nodes", None),
    ("interpolation", "barycentric_weights", "interpolation.barycentric_weights",
     lambda a, out: {"interpolation.barycentric_weights.pairs":
                     out.size * (out.size - 1)}),
    ("interpolation", "build_interpolant", "interpolation.build_interpolant",
     lambda a, out: {"interpolation.build_interpolant.calls": 1}),
    ("interpolation", "eval_interpolant", "interpolation.eval_interpolant",
     lambda a, out: _kernel("interpolation.eval_interpolant", _size(a[1]), len(a[0]))),
    ("stability", "lebesgue_function", "stability.lebesgue_function",
     lambda a, out: _kernel("stability.lebesgue_function", _size(a[2]),
                            _node_count(a[0]))),
    ("stability", "lebesgue_grid", "stability.lebesgue_grid",
     lambda a, out: {"stability.lebesgue_grid.points": out.size}),
    ("stability", "lebesgue_constant", "stability.lebesgue_constant", None),
    ("stability", "lagrange_matrix", "stability.lagrange_matrix", None),
    ("stability", "limit_lebesgue_prediction", "stability.limit_lebesgue_prediction",
     None),
    # the benchmark functions, where called through the module attribute
    ("experiments", "f1", "experiments.functions", None),
    ("experiments", "f2", "experiments.functions", None),
    ("experiments", "build_figure", "experiments.build_figure", None),
    ("experiments", "run_comparison", "experiments.run_comparison", _cells),
    ("cli", "main", "cli.main", None),
    # CSV formatting is part of cli.main's own work: same span name, so its
    # time stays in cli.main's self time.
    ("cli", "_write_csv", "cli.main",
     lambda a, out: {"cli.csv_bytes": os.path.getsize(a[0])}),
    ("svgplot", "write_line_svg", "svgplot.write_line_svg",
     lambda a, out: {"svgplot.svg_bytes": os.path.getsize(a[0])}),
)

SPANS = tuple(sorted({t[2] for t in TARGETS} | {"maps.chain"}))
COUNTERS = {
    "stability.lebesgue_function.calls": "count",
    "stability.lebesgue_function.entries": "count",
    "stability.lebesgue_function.bytes_computed": "B",
    "stability.lebesgue_grid.points": "count",
    "interpolation.eval_interpolant.calls": "count",
    "interpolation.eval_interpolant.entries": "count",
    "interpolation.eval_interpolant.bytes_computed": "B",
    "interpolation.barycentric_weights.pairs": "count",
    "interpolation.build_interpolant.calls": "count",
    "maps.chain.calls": "count",
    "maps.chain.points": "count",
    "experiments.cells": "count",
    "experiments.cells_failed": "count",
    "cli.csv_bytes": "B",
    "svgplot.svg_bytes": "B",
}

MODULES = ("domain", "maps", "interpolation", "stability", "experiments", "cli",
           "svgplot")


class _Patches:
    """Replaces functions wherever graspa modules bind them; undo restores."""

    def __init__(self, graspa):
        self.graspa = graspa
        self.saved = []

    def modules(self):
        return [self.graspa] + [getattr(self.graspa, m) for m in MODULES]

    def replace(self, orig, wrapper) -> None:
        for mod in self.modules():
            for name, val in list(vars(mod).items()):
                if val is orig:
                    self.saved.append((mod, name, val))
                    setattr(mod, name, wrapper)

    def replace_attr(self, owner, name, wrapper) -> None:
        self.saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def undo(self) -> None:
        for owner, name, val in reversed(self.saved):
            setattr(owner, name, val)
        self.saved.clear()


class Tracer:
    """Span stack with self-time accounting and per-boundary counters."""

    def __init__(self, graspa):
        self.graspa = graspa
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[float] = []
        self._patches = _Patches(graspa)

    def _wrap(self, fn, span, counter):
        stack, self_s, counts = self._stack, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self_s[span] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if counter is not None:
                for key, amount in counter(args, out).items():
                    counts[key] += amount
            return out
        return wrapper

    def install(self) -> None:
        g = self.graspa
        for mod, name, span, counter in TARGETS:
            orig = getattr(getattr(g, mod), name)
            self._patches.replace(orig, self._wrap(orig, span, counter))

        def chain_points(args, out):
            return {"maps.chain.calls": 1, "maps.chain.points": _size(args[1])}
        chain_call = vars(g.maps.MapChain)["__call__"]
        self._patches.replace_attr(g.maps.MapChain, "__call__",
                                   self._wrap(chain_call, "maps.chain", chain_points))

    def uninstall(self) -> None:
        self._patches.undo()

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()


class MemoryProbe:
    """tracemalloc pass: the whole-pass peak and per-call peaks of chosen functions.

    A per-call peak is the highest traced size reached during the call minus
    the traced size at entry.  Resetting the tracemalloc peak at each call
    entry would lose the outer peak, so it is folded into ``peak_bytes``
    before every reset.
    """

    def __init__(self, graspa, per_call=()):
        self.graspa = graspa
        self.per_call = per_call
        self.call_peak = defaultdict(int)
        self.peak_bytes = 0
        self._patches = _Patches(graspa)

    def _wrap(self, fn, key):
        def wrapper(*args, **kwargs):
            cur, peak = tracemalloc.get_traced_memory()
            self.peak_bytes = max(self.peak_bytes, peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                _, inner = tracemalloc.get_traced_memory()
                self.peak_bytes = max(self.peak_bytes, inner)
                self.call_peak[key] = max(self.call_peak[key], inner - cur)
        return wrapper

    def __enter__(self):
        for mod, name in self.per_call:
            orig = getattr(getattr(self.graspa, mod), name)
            self._patches.replace(orig, self._wrap(orig, f"{mod}.{name}"))
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        self._patches.undo()
        return False
