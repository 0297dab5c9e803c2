"""Span tracing of capinv from the outside, by rebinding its public functions.

Every public function defined in a capinv module is replaced, at every
place it is bound (module globals of every capinv module, including the
package namespace, and class attributes for methods), by one wrapper that
records a span: name, start, end, parent span, operation id and an
optional tag. Spans live in flat in-memory arrays until the run ends.

The wrappers are installed only around traced operations and removed
after them, so untraced operations in the same process run the original
code with no extra call layer.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types
from array import array

import numpy as np

# Spans whose statistics are split by an argument: inversions by search
# space, trainings by model kind and optimizer.
TAGGERS = {
    "inverse.inverse_predict": lambda args, kwargs: (args[0] if args else kwargs["model"]).space,
    "generative.train_model": lambda args, kwargs: f"{args[0].kind}_{args[2].optimizer}",
}


def _public_functions(owner):
    """(attribute, raw dict value, function) for each public function bound on owner."""
    for attr, raw in list(vars(owner).items()):
        if attr.startswith("_"):
            continue
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if isinstance(fn, types.FunctionType):
            yield attr, raw, fn


class Tracer:
    """Discovers capinv's public functions and records spans while installed."""

    def __init__(self, package: str = "capinv"):
        self.package = package
        self.modules = [m for n, m in sorted(sys.modules.items())
                        if m is not None and (n == package or n.startswith(package + "."))]
        self.span_names: list[str] = []
        self.tag_names: list[str] = []
        self._tag_index: dict[str, int] = {}
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self.names = array("l")
        self.ops = array("l")
        self.tags = array("l")
        self._stack: list[int] = []
        self._op = -1
        self._wrappers: dict[int, object] = {}  # id(original function) -> wrapper
        self._originals: set[int] = set()
        self._bindings: list[tuple] = []  # (owner, attribute, original raw value, wrapped raw value)
        self._discover()

    # -- discovery -------------------------------------------------------
    def _own(self, fn) -> bool:
        mod = getattr(fn, "__module__", "") or ""
        return mod == self.package or mod.startswith(self.package + ".")

    def _span_name(self, fn) -> str:
        mod = fn.__module__
        short = mod[len(self.package) + 1:] if mod.startswith(self.package + ".") else mod
        return f"{short}.{fn.__qualname__}"

    def _wrapper_for(self, fn):
        key = id(fn)
        if key not in self._wrappers:
            name = self._span_name(fn)
            self.span_names.append(name)
            self._wrappers[key] = self._make_wrapper(fn, len(self.span_names) - 1, TAGGERS.get(name))
            self._originals.add(key)
        return self._wrappers[key]

    def _rewrap(self, raw, fn):
        wrapper = self._wrapper_for(fn)
        if isinstance(raw, classmethod):
            return classmethod(wrapper)
        if isinstance(raw, staticmethod):
            return staticmethod(wrapper)
        return wrapper

    def _discover(self) -> None:
        classes = {}
        for module in self.modules:
            for attr, raw, fn in _public_functions(module):
                if self._own(fn):
                    self._bindings.append((module, attr, raw, self._rewrap(raw, fn)))
            for value in vars(module).values():
                if isinstance(value, type) and self._own(value):
                    classes[id(value)] = value
        for cls in classes.values():
            for attr, raw, fn in _public_functions(cls):
                if self._own(fn):
                    self._bindings.append((cls, attr, raw, self._rewrap(raw, fn)))

    # -- recording -------------------------------------------------------
    def _tag(self, text: str) -> int:
        if text not in self._tag_index:
            self._tag_index[text] = len(self.tag_names)
            self.tag_names.append(text)
        return self._tag_index[text]

    def _make_wrapper(self, fn, name_idx: int, tagger):
        starts, ends, parents, names, ops, tags = (
            self.starts, self.ends, self.parents, self.names, self.ops, self.tags)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(name_idx)
            ops.append(tracer._op)
            tags.append(tracer._tag(tagger(args, kwargs)) if tagger is not None else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def install(self, op_id: int) -> None:
        self._op = op_id
        for owner, attr, _raw, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw, _wrapped in self._bindings:
            setattr(owner, attr, raw)
        self._op = -1

    def missed_bindings(self) -> list[str]:
        """Places that would still bind an original capinv function while installed.

        Installs the wrappers, scans every capinv module's globals and every
        capinv class found in them, and uninstalls again; a hit means a call
        through that name would escape tracing.
        """
        self.install(-1)
        missed = []
        seen_classes = set()
        for module in self.modules:
            owners = [module]
            for value in vars(module).values():
                if isinstance(value, type) and self._own(value) and id(value) not in seen_classes:
                    seen_classes.add(id(value))
                    owners.append(value)
            for owner in owners:
                for attr, raw in vars(owner).items():
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if id(fn) in self._originals:
                        missed.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        self.uninstall()
        return missed

    # -- analysis --------------------------------------------------------
    def arrays(self) -> dict:
        """Span columns as numpy arrays, with duration and self time in ns."""
        start = np.frombuffer(self.starts, dtype=np.int64).copy() if len(self.starts) else np.zeros(0, np.int64)
        end = np.frombuffer(self.ends, dtype=np.int64).copy() if len(self.ends) else np.zeros(0, np.int64)
        parent = np.asarray(self.parents, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur), dtype=np.float64)
        has_parent = parent >= 0
        if has_parent.any():
            child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {
            "name": np.asarray(self.names, dtype=np.int64),
            "op": np.asarray(self.ops, dtype=np.int64),
            "tag": np.asarray(self.tags, dtype=np.int64),
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur.astype(np.float64),
            "self": dur - child,
        }

    def write(self, path) -> None:
        """All spans as gzipped JSON: name table plus one row per span."""
        rows = list(zip(self.names, self.starts, self.ends, self.parents, self.ops, self.tags))
        doc = {
            "columns": ["name", "start_ns", "end_ns", "parent", "op", "tag"],
            "names": self.span_names,
            "tags": self.tag_names,
            "spans": rows,
        }
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
