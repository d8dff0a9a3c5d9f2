"""Span recording around the public functions of every hermline module.

A :class:`Tracer` wraps each public function and method of the six
package modules (the layers) and records one span per call: name id,
parent span, start and end.  Spans live in flat arrays in memory and are
reduced to per-name call counts and self times when the pass ends.
Self time is a span's duration minus the durations of its direct child
spans, so summing self times over a layer never counts a nested call
twice.

The modules import each other's functions by name (``from .projline
import bartolone``), so a function wrapper replaces the name in every
hermline module that holds it; methods are replaced on their class.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array

LAYERS = ("fields", "matrices", "projline", "hermitian", "harness", "cli")

# Dunder methods that are layer entry points; other dunders (hash,
# equality, repr) are called per set or dict operation and stay unwrapped.
_DUNDERS = {
    "__init__": "init",
    "__mul__": "mul",
    "__add__": "add",
    "__sub__": "sub",
    "__neg__": "neg",
}

# Span names grouped under one metric name.  The field table build is
# part of make_field, the three relation tests form one span and the
# serialisers of CLI output belong to the cli layer.
ALIASES = {
    "fields.FieldSpec.init": "fields.make_field",
    "projline.is_distant": "projline.relation",
    "projline.is_adjacent": "projline.relation",
    "projline.arithmetical_distance": "projline.relation",
    "hermitian.SesquilinearForm.is_totally_isotropic": "hermitian.is_totally_isotropic",
    "harness.RelationGraph.bfs_distances": "harness.bfs_distances",
    "harness.report_to_json": "cli.serialise",
    "harness.RelationGraph.to_dot": "cli.serialise",
    "harness.RelationGraph.degrees_csv": "cli.serialise",
}

_BOOLEAN_RELATIONS = ("projline.is_distant", "projline.is_adjacent")


def _targets():
    """Yield (span name, owner, attribute, raw attribute) for every wrap site."""
    for layer in LAYERS:
        mod = importlib.import_module(f"hermline.{layer}")
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                for attr, raw in list(vars(obj).items()):
                    label = _DUNDERS.get(attr, None if attr.startswith("_") else attr)
                    func = getattr(raw, "__func__", raw)
                    if label is not None and isinstance(func, types.FunctionType):
                        yield f"{layer}.{name}.{label}", obj, attr, raw
            elif callable(obj):
                yield f"{layer}.{name}", mod, name, obj


class Tracer:
    """Wraps hermline's public callables and records their spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._current = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.bartolone_points: set = set()
        self.bartolone_distinct = 0
        self.relation_tests = 0
        self.relation_hits = 0

    def _wrap(self, fn, name: str):
        full = ALIASES.get(name, name)
        if full not in self._ids:
            self._ids[full] = len(self.names)
            self.names.append(full)
        nid = self._ids[full]
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        cur = self._current
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            prev = cur[0]
            names.append(nid)
            parents.append(prev)
            ends.append(0.0)
            cur[0] = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                cur[0] = prev

        if name == "projline.bartolone":
            points = self.bartolone_points

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                point = traced(*args, **kwargs)
                points.add(point)
                return point

            return counted
        if name in _BOOLEAN_RELATIONS:
            tracer = self

            @functools.wraps(fn)
            def tested(*args, **kwargs):
                hit = traced(*args, **kwargs)
                tracer.relation_tests += 1
                tracer.relation_hits += hit
                return hit

            return tested
        return traced

    def install(self) -> None:
        """Replace every public callable of the layers by a recording wrapper."""
        modules = [m for key, m in sys.modules.items() if key.startswith("hermline")]
        for name, owner, attr, raw in list(_targets()):
            if isinstance(owner, type):
                wrapped = self._wrap(getattr(raw, "__func__", raw), name)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(wrapped)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(raw, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._restore.append((mod, key, raw))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()
        self.bartolone_distinct += len(self.bartolone_points)
        self.bartolone_points.clear()

    def reduce(self) -> dict:
        """Per span name: calls and self seconds; plus the waste counters.

        A span nested directly in a span of the same name is not a new
        call: ``is_adjacent`` calling ``arithmetical_distance`` is one
        relation test, and ``make_field`` building a table is one call.
        """
        count = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = array("d", bytes(8 * count))
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(count):
            nid = names[i]
            self_s[nid] += ends[i] - starts[i] - child[i]
            p = parents[i]
            if p < 0 or names[p] != nid:
                calls[nid] += 1
        spans = {
            name: {"calls": calls[i], "self_s": self_s[i]}
            for i, name in enumerate(self.names)
            if calls[i]
        }
        return {
            "spans": spans,
            "span_count": count,
            "bartolone_distinct": self.bartolone_distinct,
            "relation_tests": self.relation_tests,
            "relation_hits": self.relation_hits,
        }
