"""Span recorder for the traced run, and the layer scaling table.

Tracing patches the package from outside: every public function of a
layer module is wrapped in a span, and the wrapper is installed under every
name that refers to it in any package module, because several modules
import functions by name (``functional.norm_sq``, ``operators.
cumulative_integral``, ``interval.integrate``, ``spectral.norm_sq``), so
wrapping ``grid.*`` alone would miss those calls.  Public classes get a
span around ``__init__``; the derivative closures of every
``AnalyticFunction`` subclass get an ``analytic.closure`` span that also
counts the points evaluated; the operator handed to
``estimate_operator_norm`` is replaced by a proxy that counts applies.

A span's self time is its duration minus the durations of its direct
children.  Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
import types
from collections import Counter, defaultdict

import numpy as np

import hardy_rellich
from hardy_rellich import (analytic, cli, constants, functional, grid, interval, operators,
                           spectral)
from hardy_rellich.analytic import AnalyticFunction

__all__ = ["SpanRecorder", "scale_table", "SCALE_SIZES"]

LAYER_MODULES = (constants, analytic, grid, operators, functional, interval, spectral, cli)
PACKAGE_MODULES = (hardy_rellich,) + LAYER_MODULES


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _public_names(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [k for k in vars(module) if not k.startswith("_")]
    return names


class _CountingOperator:
    """Forwards a discretized operator, counting apply and adjoint_apply."""

    def __init__(self, op, counts):
        self._op = op
        self._counts = counts
        self.quad_weights = op.quad_weights

    def apply(self, v):
        self._counts["operators.norm.applies"] += 1
        return self._op.apply(v)

    def adjoint_apply(self, v):
        self._counts["operators.norm.applies"] += 1
        return self._op.adjoint_apply(v)


class SpanRecorder:
    """Records (id, name, start, end, parent) spans and per-name aggregates."""

    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.errors = Counter()
        self._stack = []      # [id, name, start, child_seconds]
        self._next_id = 0
        self._patches = []    # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent = self._stack[-1][0] if self._stack else -1
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((span_id, name, start, end, parent))

    def error(self, layer: str, exc: BaseException) -> None:
        """Count a typed exception once, at the innermost span it left."""
        if not getattr(exc, "_bench_counted", False):
            self.errors[layer] += 1
            try:
                exc._bench_counted = True
            except AttributeError:
                pass

    def wrap(self, fn, name: str, layer: str, count=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.enter(name)
            try:
                if count is not None:
                    count(rec.counts, args, kwargs)
                return fn(*args, **kwargs)
            except Exception as exc:
                rec.error(layer, exc)
                raise
            finally:
                rec.exit()
        return wrapper

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function, constructor and closure of the package."""
        wrapped = {}
        for module in LAYER_MODULES:
            layer = _layer(module)
            for name in _public_names(module):
                obj = getattr(module, name)
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = self.wrap(obj, f"{layer}.{name}", layer,
                                                 _COUNTERS.get(f"{layer}.{name}"))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__ \
                        and "__init__" in vars(obj):
                    self._set(obj, "__init__", self.wrap(vars(obj)["__init__"],
                                                         f"{layer}.{name}", layer))
        for module in PACKAGE_MODULES:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._set(module, attr, wrapped[id(value)])
        norm = operators.estimate_operator_norm
        counts = self.counts

        def estimate_operator_norm(op, *args, **kwargs):
            return norm(_CountingOperator(op, counts), *args, **kwargs)
        for module in PACKAGE_MODULES:
            if vars(module).get("estimate_operator_norm") is norm:
                self._set(module, "estimate_operator_norm", estimate_operator_norm)
        for cls in _subclasses(AnalyticFunction):
            if "deriv" in vars(cls):
                self._set(cls, "deriv", self._traced_deriv(vars(cls)["deriv"]))

    def _traced_deriv(self, deriv):
        rec = self

        @functools.wraps(deriv)
        def traced(obj, j):
            closure = deriv(obj, j)

            def evaluate(x):
                rec.enter("analytic.closure")
                try:
                    rec.counts["analytic.points"] += int(np.size(x))
                    return closure(x)
                finally:
                    rec.exit()
            return evaluate
        return traced

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregates ----------------------------------------------------------

    def layer_self_ms(self) -> dict:
        out = defaultdict(float)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += 1e3 * seconds
        return out

    def layer_calls(self) -> Counter:
        out = Counter()
        for name, calls in self.calls.items():
            out[name.split(".", 1)[0]] += calls
        return out

    def self_ms(self, *names) -> float:
        return 1e3 * sum(self.self_s.get(name, 0.0) for name in names)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out += _subclasses(sub)
    return out


def _grid_nodes(counts, args, kwargs):
    f = args[0] if args else kwargs["f"]
    counts["grid.nodes"] += len(f.grid)


def _interval_nodes(counts, args, kwargs):
    panels = kwargs.get("panels", args[2] if len(args) > 2 else 4096)
    counts["interval.nodes"] += panels + panels % 2 + 1


_COUNTERS = {
    "grid.integrate": _grid_nodes,
    "grid.cumulative_integral": _grid_nodes,
    "interval.interval_ratio": _interval_nodes,
}


# ---------------------------------------------------------------------------
# scaling table: single calls at fixed sizes, min of repeats
# ---------------------------------------------------------------------------

SCALE_SIZES = (2**12, 2**16, 2**20)


def scale_table(repeats: int = 3) -> dict:
    """Wall time in ms of one call at each size, minimum over repeats.

    The calls are those of the layer table in ROADMAP item 1, plus the
    nested-integration oracle for T_4 that the table compares against.
    """
    f = analytic.gamma_class(1.5, 1.0)
    g = analytic.gamma_class(3.5, 1.0)
    out = {}
    for size in SCALE_SIZES:
        lg = grid.LogGrid.default(size)
        sampled = grid.GridFunction.from_callable(lg, f.deriv(0))
        calls = {
            "integrate": lambda: grid.integrate(sampled),
            "cumulative_integral": lambda: grid.cumulative_integral(sampled),
            "apply_cesaro4": lambda: operators.apply_cesaro(4, sampled),
            "apply_cesaro_nested4": lambda: operators.apply_cesaro_nested(4, sampled),
            "birman_ratio3": lambda: functional.birman_ratio(3, g, lg),
        }
        for name, call in calls.items():
            best = math.inf
            for _ in range(repeats if size < 2**20 else max(1, repeats - 1)):
                start = time.perf_counter()
                call()
                best = min(best, time.perf_counter() - start)
            out[f"scale.{name}.N{size}_ms"] = 1e3 * best
    return out
