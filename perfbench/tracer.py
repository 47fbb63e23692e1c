"""Per-module spans, recorded from outside the program.

`Tracer.install` wraps every public function of every program module, and
every public method of the classes those modules define, then points each
module's reference at the wrapper (a `from .linalg import solve_dense` in
`verify` is patched as well as `linalg.solve_dense` itself).  Dunder
methods (the `Root` operators) and properties are not wrapped: their time
counts as the self time of the layer that calls them.

A span's parent is the span open when it started.  On exit, a span's
duration is charged to its parent as child time, so a layer's self time is
the sum over its spans of duration minus child time.  Spans are aggregated
per layer as they close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from typing import Dict, List

PACKAGE = "adapted_pairs"


def _nnz(matrix) -> int:
    total = 0
    for row in matrix:
        total += len(row) if isinstance(row, dict) else sum(1 for x in row if x)
    return total


class Tracer:
    def __init__(self) -> None:
        self.layers: Dict[str, List[float]] = {}  # layer -> [calls, self_s]
        self.rows = 0
        self.nnz = 0
        self._stack: List[list] = []  # open spans: [layer, child_s]

    def _wrap(self, layer: str, fn):
        stack = self._stack
        per_layer = self.layers.setdefault(layer, [0, 0.0])
        clock = time.perf_counter
        counts_matrix = layer == "linalg"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if counts_matrix and args and (not stack or stack[-1][0] != "linalg"):
                self.rows += len(args[0])
                self.nnz += _nnz(args[0])
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                own = dur - frame[1]
                per_layer[0] += 1
                per_layer[1] += own
                if stack:
                    stack[-1][1] += dur

        return span

    def install(self) -> None:
        """Import every program module and wrap its public callables."""
        package = importlib.import_module(PACKAGE)
        modules = [
            importlib.import_module(f"{PACKAGE}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        replaced = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            setattr(obj, attr, self._wrap(layer, member))
                elif callable(obj):
                    replaced[id(obj)] = self._wrap(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and not inspect.ismodule(obj):
                    setattr(mod, name, replaced[id(obj)])

    def snapshot(self) -> Dict[str, float]:
        """Running totals: '<layer>.calls' and '<layer>.self_s' for every
        module with a wrapped callable, plus 'linalg.rows' and 'linalg.nnz'
        (rows and nonzeros of the matrices passed into linalg from other
        layers)."""
        out: Dict[str, float] = {"linalg.rows": self.rows, "linalg.nnz": self.nnz}
        for layer, (calls, self_s) in self.layers.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        return out
