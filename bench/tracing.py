"""Spans around the public functions of each tscal layer.

install() replaces every public function of a layer module at every module
binding (tscal.integral.evaluate, tscal.laws.t_alpha, the package's own
re-exports, ...) and every public TimeScale method with a wrapper that
records one span: name, start, end, parent. Spans stay in compact arrays in
memory; the runner writes them out after the run. Calls inside a layer to
its own public functions go through the module global, so they are spans too.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib.machinery
import sys
import time
import types
from array import array

LAYERS = ("expr", "timescale", "derivative", "integral", "laws", "cli")
SCALE_METHODS = ("contains", "sigma", "mu", "nearest", "classify", "in_kappa",
                 "decompose", "continuum_reach")

# How a span's result yields a work count.
_COUNTS = {
    "timescale.decompose": len,
    "integral.cauchy": lambda r: r.cells_used,
    "laws.run_law_suite": lambda r: r.cases_run,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.stack: list[int] = []

    def _wrap(self, fn, layer: str, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        counter = _COUNTS.get(f"{layer}.{fn.__name__}")
        ids, parents, starts, ends, counts, stack = (
            self.name_id, self.parent, self.start, self.end, self.count, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            counts.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter is not None:
                counts[i] = counter(result)
            return result
        return span

    @contextlib.contextmanager
    def importing(self):
        """Record one span per layer module while tscal is imported.

        An import span covers compiling and executing the module; a layer
        imported from another's body is its child. So every layer has a
        self time in every traced run, its import at least.
        """
        tracer = self

        class Finder:
            @staticmethod
            def find_spec(name, path=None, target=None):
                layer = name.rpartition(".")[2]
                if not name.startswith("tscal.") or layer not in LAYERS:
                    return None
                spec = importlib.machinery.PathFinder.find_spec(name, path, target)
                if spec is not None:
                    spec.loader.exec_module = tracer._wrap(
                        spec.loader.exec_module, layer, f"{layer}.import")
                return spec

        sys.meta_path.insert(0, Finder)
        try:
            yield
        finally:
            sys.meta_path.remove(Finder)

    def install(self, tscal) -> None:
        """Wrap the layers of an imported tscal package in place."""
        wrapped: dict[int, object] = {}
        # by sys.modules: the package's function tscal.derivative hides the module
        modules = [tscal] + [sys.modules[f"tscal.{layer}"] for layer in LAYERS]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType) or attr.startswith("_") \
                        or value.__name__.startswith("_"):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if value.__module__.partition(".")[0] != "tscal" or layer not in LAYERS:
                    continue
                if id(value) not in wrapped:
                    wrapped[id(value)] = self._wrap(value, layer, f"{layer}.{value.__name__}")
                setattr(module, attr, wrapped[id(value)])
        timescale = sys.modules["tscal.timescale"]
        for cls in vars(timescale).values():
            if isinstance(cls, type) and issubclass(cls, timescale.TimeScale):
                for attr in SCALE_METHODS:
                    if attr in vars(cls):
                        setattr(cls, attr, self._wrap(
                            vars(cls)[attr], "timescale", f"timescale.{cls.__name__}.{attr}"))

    def __len__(self) -> int:
        return len(self.name_id)

    def summary(self) -> dict:
        """Per-layer counts and self times over every recorded span."""
        n = len(self)
        layer = [self.layer_of[k] for k in self.name_id]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        agg = {f"{l}.{k}": 0 for l in LAYERS for k in ("calls", "self_s", "evals")}
        agg.update({"expr.evaluate.calls": 0, "expr.parse.calls": 0,
                    "expr.parse.self_s": 0.0, "timescale.decompose.cells": 0,
                    "integral.cells": 0,
                    "laws.trials": 0})
        # the layer that asked for each span, looking through expr itself
        asker = [""] * n
        for i in range(n):
            p = self.parent[i]
            own = layer[i]
            asker[i] = own if own != "expr" else (asker[p] if p >= 0 else "bench")
            dur = self.end[i] - self.start[i]
            agg[f"{own}.self_s"] += dur - child[i]
            name = self.names[self.name_id[i]]
            if (p < 0 or layer[p] != own) and not name.endswith(".import"):
                agg[f"{own}.calls"] += 1
            if name == "expr.evaluate":
                agg["expr.evaluate.calls"] += 1
                if p >= 0 and asker[p] in LAYERS:
                    agg[f"{asker[p]}.evals"] += 1
            elif name == "expr.parse":
                agg["expr.parse.calls"] += 1
                agg["expr.parse.self_s"] += dur
            elif name.endswith(".decompose"):
                agg["timescale.decompose.cells"] += self.count[i]
            elif name == "integral.cauchy":
                agg["integral.cells"] += self.count[i]
            elif name == "laws.run_law_suite":
                agg["laws.trials"] += self.count[i]
        for l in ("derivative", "integral"):
            calls = agg[f"{l}.calls"]
            agg[f"{l}.evals_per_call"] = agg[f"{l}.evals"] / calls if calls else 0.0
        return agg

    def write(self, path) -> None:
        """One line per span: id, parent, name, start and end in seconds, count."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_s\tend_s\tcount\n")
            for i in range(len(self)):
                out.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                          f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t"
                          f"{self.count[i]}\n")
