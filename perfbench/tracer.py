"""Span recorder for the traced run.

``Tracer`` wraps the public callables of every qgha layer module: module
functions (plain or lru-cached), public methods, static methods and the
arithmetic dunders of the classes defined there.  A callable that several
namespaces bind (``structure`` and ``modules`` import ``linalg`` functions
by name, ``qgha/__init__`` re-exports nearly everything, ``Poly`` and
``FieldElement`` alias ``__rmul__ = __mul__``) gets one wrapper that is
patched into every binding.  ``linalg.rref`` is split by field kind and
counts the cells it eliminates.

Each call made inside an op records one span: label, start, end, parent
span and the op id, in parallel ``array`` columns kept in memory until the
run ends.  Calls outside ops (input generation, output checks) run
unrecorded.  Self time is a span's duration minus the durations of its
direct children.  The patches can be installed and removed repeatedly, so
a run can alternate traced and untraced blocks over one op stream.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import time
import types
from array import array

import numpy as np

# Tracing stops after the round in which the span store passes this many
# spans (28 bytes each), which keeps a traced run near 150 MB.
SPAN_CAP = 1_000_000

KINDS = ("Q", "GFp", "GFpk")
LAYERS = ("fields", "poly", "algebra", "linalg", "spectra", "structure", "modules", "parsing", "cli")

_ARITH = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__divmod__", "__pow__",
    "__call__",
}


def field_kind(spec) -> str:
    if spec.is_rationals:
        return "Q"
    return "GFp" if spec.is_prime_field else "GFpk"


class Spans:
    """All spans of a run, one row per call, as parallel columns."""

    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = [-1]
        self.counts: dict[str, int] = {}

    def label_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def wrap(self, fn, label: str):
        lid = self.label_id(label)
        labels, parents, ops, starts, ends = self.label, self.parent, self.op, self.start, self.end
        stack, current_op = self.stack, self.current_op
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if current_op[0] < 0:
                return fn(*args, **kwargs)
            i = len(starts)
            labels.append(lid)
            parents.append(stack[-1])
            ops.append(current_op[0])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def __len__(self):
        return len(self.start)

    def totals(self) -> dict[str, tuple[int, float]]:
        """label -> (calls, self seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        label = np.frombuffer(self.label, dtype=np.int32)
        calls = np.bincount(label, minlength=len(self.labels))
        self_s = np.bincount(label, weights=own, minlength=len(self.labels))
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.labels)}


class GcClock:
    """Collector pauses and generation-2 collections inside ops, from ``gc.callbacks``."""

    def __init__(self, current_op: list[int]):
        self.pause_s = 0.0
        self.gen2 = 0
        self._t0 = 0.0
        self._current_op = current_op

    def __call__(self, phase, info):
        if self._current_op[0] < 0:
            return
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._t0
        if info.get("generation") == 2:
            self.gen2 += 1


def _layer_of(obj) -> str | None:
    mod = getattr(obj, "__module__", None) or ""
    head, _, tail = mod.rpartition(".")
    return tail if head == "qgha" and tail in LAYERS else None


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


class Tracer:
    """Builds the wrappers once; ``install``/``remove`` toggle the patches."""

    def __init__(self):
        self.spans = Spans()
        self.gc = GcClock(self.spans.current_op)
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self.cached: dict[str, object] = {}
        namespaces = [sys.modules["qgha"]] + [sys.modules[f"qgha.{name}"] for name in LAYERS]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isclass(obj) and obj.__module__ == ns.__name__ and _layer_of(obj):
                    self._patch_class(obj)
                elif _is_function(obj) and not attr.startswith("_") and _layer_of(obj):
                    self._patches.append((ns, attr, obj, self._wrapper_for(obj)))
                if isinstance(obj, functools._lru_cache_wrapper) and _layer_of(obj):
                    self.cached[f"{_layer_of(obj)}.{obj.__name__}"] = obj

    def _wrapper_for(self, fn):
        key = id(fn)
        if key not in self._wrappers:
            label = f"{_layer_of(fn)}.{fn.__qualname__}"
            if label == "linalg.rref":
                self._wrappers[key] = self._split_rref(fn)
            else:
                self._wrappers[key] = self.spans.wrap(fn, label)
        return self._wrappers[key]

    def _split_rref(self, fn):
        by_kind = {kind: self.spans.wrap(fn, f"linalg.rref.{kind}") for kind in KINDS}
        counts, current_op = self.spans.counts, self.spans.current_op
        counts["linalg.rref.cells"] = 0

        @functools.wraps(fn)
        def rref(rows, spec):
            if current_op[0] >= 0:
                counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if len(rows) else 0)
            return by_kind[field_kind(spec)](rows, spec)

        return rref

    def _patch_class(self, cls):
        for attr, member in list(vars(cls).items()):
            if isinstance(member, (staticmethod, classmethod)):
                fn = member.__func__
                if attr.startswith("_") or inspect.isgeneratorfunction(fn):
                    continue
                new = type(member)(self._wrapper_for(fn))
            elif isinstance(member, types.FunctionType):
                if (attr.startswith("_") and attr not in _ARITH) or inspect.isgeneratorfunction(member):
                    continue
                new = self._wrapper_for(member)
            else:
                continue
            self._patches.append((cls, attr, member, new))

    @property
    def full(self) -> bool:
        return len(self.spans) >= SPAN_CAP

    def install(self):
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        gc.callbacks.append(self.gc)

    def remove(self):
        for owner, attr, old, _ in self._patches:
            setattr(owner, attr, old)
        gc.callbacks.remove(self.gc)

    def op_span(self, kind: str, op_id: int, run):
        """Run one op as a root span labelled ``op.<kind>``."""
        self.spans.current_op[0] = op_id
        try:
            return self.spans.wrap(run, f"op.{kind}")()
        finally:
            self.spans.current_op[0] = -1
