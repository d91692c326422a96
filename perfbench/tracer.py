"""Outside-in tracer for the bmofem layer modules.

While active, every public function of the six layer modules is replaced,
in every `bmofem` module namespace that binds it (and in module-level
dicts such as the harness's runner table), by a wrapper that records a
span: name, start, end and parent span.  Spans stay in memory; self time
is computed from child spans after the run.  Leaving the context restores
every original binding.

Counts recorded at the same boundaries:

* `quadrature.<f>.evals`: integrand points, counted at the outermost
  quadrature call only, by wrapping the integrand it was given.
* `fem.solve_spd.unknowns` and `fem.solve_spd.rel_residual_max`: the
  residual ||b - Ax|| / ||b|| is recomputed after the span closes, and the
  time spent on it is hidden from every open span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("mesh", "quadrature", "coeff", "fem", "hodge", "harness")
PACKAGE = "bmofem"


def _package_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def layer_functions() -> dict:
    """Span name -> function, for every public function defined in a layer
    module."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[f"{layer}.{name}"] = obj
    return out


class Tracer:
    """Context manager that patches the layer functions and records spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self.residual_max = 0.0
        self._stack = []
        self._hidden = 0.0  # seconds of tracer bookkeeping hidden from spans
        self._quadrature_depth = 0
        self._patches = []

    def _now(self) -> float:
        return time.perf_counter() - self._hidden

    # -- patching -----------------------------------------------------------

    def __enter__(self):
        originals = layer_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    self._patches.append((mod.__dict__, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in wrappers:
                            self._patches.append((val, key, item))
                            val[key] = wrappers[id(item)]
        return self

    def __exit__(self, *exc):
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()
        return False

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        if name == "fem.solve_spd":
            return self._wrap_solve(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer != "quadrature":
                return self._span(name, fn, args, kwargs)
            if self._quadrature_depth == 0:
                args, kwargs = self._count_integrand(name, args, kwargs)
            self._quadrature_depth += 1
            try:
                return self._span(name, fn, args, kwargs)
            finally:
                self._quadrature_depth -= 1

        return wrapper

    def _wrap_solve(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            x = self._span(name, fn, args, kwargs)
            t0 = time.perf_counter()
            system = args[0] if args else kwargs["system"]
            b = system.rhs
            b_norm = float(np.linalg.norm(b))
            if b_norm > 0.0:
                res = float(np.linalg.norm(b - system.matrix @ x)) / b_norm
                self.residual_max = max(self.residual_max, res)
            self.counts[f"{name}.unknowns"] += b.size
            self._hidden += time.perf_counter() - t0
            return x

        return wrapper

    def _count_integrand(self, name, args, kwargs):
        key = f"{name}.evals"

        def count(f):
            def counted(points, *rest):
                self.counts[key] += len(points)
                return f(points, *rest)

            return counted

        if args:
            return (count(args[0]),) + tuple(args[1:]), kwargs
        return args, dict(kwargs, f=count(kwargs["f"]))

    def _span(self, name, fn, args, kwargs):
        index = len(self.spans)
        span = [name, self._now(), None, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self._now()
            self._stack.pop()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-function `self_s`, `total_s` and `calls` for every layer
        function, the recorded counts, and `trace.coverage`: the summed self
        time of every span below the root spans over the root spans' time."""
        names = list(layer_functions())
        out = {}
        for name in names:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.total_s"] = 0.0
            out[f"{name}.calls"] = 0
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        root_s = 0.0
        covered_s = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            self_s = duration - child[i]
            out[f"{name}.self_s"] += self_s
            out[f"{name}.calls"] += 1
            if not self._inside_same_name(i):
                out[f"{name}.total_s"] += duration
            if parent < 0:
                root_s += duration
            else:
                covered_s += self_s
        out.update(self.counts)
        for name in names:
            if name.startswith("quadrature."):
                out.setdefault(f"{name}.evals", 0)
        out.setdefault("fem.solve_spd.unknowns", 0)
        out["fem.solve_spd.rel_residual_max"] = self.residual_max
        out["trace.coverage"] = covered_s / root_s if root_s > 0 else 0.0
        return out

    def _inside_same_name(self, i) -> bool:
        name = self.spans[i][0]
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
