"""Boundary tracer for the traced benchmark run.

``Tracer.install`` rebinds every function name that one ``qstarlike`` module
imports from another (``classes.criterion_weights``,
``analysis.coefficient_test``, the re-exports in the package namespace, ...)
to a wrapper that records a span.  The set is read from the module
namespaces at install time, so functions that later changes add or delete
need no edit here.  Calls inside one module are not boundaries and are not
recorded.  ``uninstall`` restores the original bindings.

``LayerStats.fold`` turns the spans of one op into per-layer calls, self
time, errors and work counts.  The layer of a span is the module that
defines the function.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import Counter

import numpy as np

LAYERS = ("qcore", "series", "classes", "analysis", "cli")


class Span:
    __slots__ = ("fn", "layer", "start", "end", "parent", "args", "kwargs", "result", "error")

    def __init__(self, fn, layer, start, parent, args, kwargs):
        self.fn = fn
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.args = args
        self.kwargs = kwargs
        self.result = None
        self.error = False

    @property
    def name(self) -> str:
        return self.fn.__name__


def _shape_only(value):
    """An array is kept as a zero-byte view of its shape, so a span does not
    hold the op's large sample arrays alive until the op ends."""
    if isinstance(value, np.ndarray):
        return np.broadcast_to(np.empty((), dtype=bool), value.shape)
    return value


class Tracer:
    """Records one span per call across a module boundary of ``package``."""

    def __init__(self, package: types.ModuleType):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(fn, layer, clock(), stack[-1] if stack else -1, args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                span.args = tuple(_shape_only(a) for a in args)
                span.kwargs = {k: _shape_only(a) for k, a in kwargs.items()}
            span.result = result if layer == "qcore" else _shape_only(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, entry_points: tuple[tuple[types.ModuleType, str], ...] = ()) -> None:
        """Wrap every cross-module function binding in the loaded modules of
        the package, plus ``entry_points``: functions the benchmark calls
        that no other module imports (such as ``cli.main``)."""
        prefix = self.package.__name__ + "."
        modules = [self.package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)
        ]
        targets = list(entry_points)
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith(prefix)
                    and obj.__module__ != mod.__name__
                ):
                    targets.append((mod, attr))
        for mod, attr in targets:
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded since the last call."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


_signature = functools.cache(inspect.signature)


def _bound(span: Span) -> dict:
    """The span's arguments by parameter name, defaults included."""
    bound = _signature(span.fn).bind(*span.args, **span.kwargs)
    bound.apply_defaults()
    return bound.arguments


def _qcore_keys(span: Span, size: int) -> list[tuple]:
    """Identity of each coefficient a qcore call returned: what it is, the
    parameters it depends on, and n (arrays run from n = 2)."""
    args = _bound(span)
    kind = "weight" if span.name.startswith("criterion_weight") else span.name
    params = args.pop("params", None)
    n = args.pop("n", None)
    args.pop("order", None)
    class_key = None if params is None else (params.q, params.lam, params.alpha, params.k)
    key = (kind, class_key, repr(sorted(args.items())))
    if n is not None:
        return [key + (n,)]
    return [key + (i + 2,) for i in range(size)]


def _degree(coeffs) -> int:
    order = getattr(coeffs, "order", None)
    return order if order is not None else np.size(coeffs) - 1


class LayerStats:
    """Per-layer totals over the ops folded so far."""

    def __init__(self):
        self.ops = 0
        self.c: Counter = Counter()

    def fold(self, spans: list[Span]) -> None:
        self.ops += 1
        c = self.c
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        distinct = set()
        for i, s in enumerate(spans):
            layer = s.layer
            parent = spans[s.parent].layer if s.parent >= 0 else None
            c[layer + ".calls"] += 1
            c[layer + ".self_ms"] += (s.end - s.start - child_time[i]) * 1e3
            c[layer + ".errors"] += s.error
            if s.error:
                continue
            if layer == "qcore":
                try:
                    values = np.atleast_1d(np.asarray(s.result, dtype=float))
                except (TypeError, ValueError):
                    continue
                c["qcore.weights_built"] += values.size
                c["qcore.nonfinite"] += int(np.count_nonzero(~np.isfinite(values)))
                distinct.update(_qcore_keys(s, values.size))
            elif layer == "series":
                args = _bound(s)
                if "z" in args:
                    points = np.size(args["z"])
                    coeffs = next(iter(args.values()))
                    c["series.point_terms"] += points * _degree(coeffs)
                    if parent == "analysis":
                        c["analysis.quadrature_nodes"] += points
                else:
                    out = getattr(s.result, "coeffs", s.result)
                    c["series.coeffs_transformed"] += int(np.size(out))
                    if parent == "classes" and s.name.startswith("ruscheweyh"):
                        c["classes.transforms"] += 1
            elif layer == "classes":
                grids = [a for a in _bound(s).values() if hasattr(a, "n_angles")]
                for g in grids:
                    c["classes.grid_points"] += len(g.radii) * g.n_angles
                    c["classes.margins"] += 1
                if s.name == "coefficient_test" and parent == "analysis":
                    c["analysis.recertifications"] += 1
        c["qcore.distinct"] += len(distinct)

    def metrics(self) -> dict[str, float]:
        """Per-op calls, self time, errors and work counts of every layer."""
        c, ops = self.c, max(self.ops, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = c[f"{layer}.calls"] / ops
            out[f"{layer}.self_ms"] = c[f"{layer}.self_ms"] / ops
            out[f"{layer}.errors"] = c[f"{layer}.errors"] / ops
        for key in (
            "qcore.weights_built",
            "qcore.nonfinite",
            "series.coeffs_transformed",
            "series.point_terms",
            "classes.grid_points",
            "analysis.quadrature_nodes",
            "analysis.recertifications",
        ):
            out[key] = c[key] / ops
        built = c["qcore.weights_built"]
        out["qcore.useful_ratio"] = c["qcore.distinct"] / built if built else 0.0
        margins = c["classes.margins"]
        out["classes.transforms_per_margin"] = c["classes.transforms"] / margins if margins else 0.0
        return out
