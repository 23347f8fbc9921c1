"""Span tracing of ``polyharm`` from outside the package.

Every public function of the package is replaced, in every ``polyharm``
module namespace that binds it, by a wrapper that records a span (name,
start, end, parent span, operation id); ``LUFactorization.solve`` is
wrapped on its class.  Wrapping only the defining module would miss the
calls other modules make through their own imported names, for example
``polyharm.bvp.lu_factor``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

# per-value helpers called thousands of times per operation; tracing them
# would cost more than the work they do and explain nothing
UNTRACED = {"binomial", "jsonable", "value_to_complex", "complex_to_value", "lu_solve"}


def _lu_columns(call, args):
    b = args[1]
    dims = getattr(b, "shape", None) or (len(b),)
    return call(), {"rhs_columns": 1 if len(dims) == 1 else dims[1]}


def _simulate_memory(call, args):
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, {"steps": out.occupancy.shape[0] - 1, "peak_alloc_mb": peak / 2**20}


HOOKS = {"linalg.lu_solve": _lu_columns, "simulate.simulate_hitting": _simulate_memory}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, extra]
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._wrappers: dict = {}

    def install(self):
        from polyharm.linalg import LUFactorization

        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "polyharm" and not mod_name.startswith("polyharm."):
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in UNTRACED or not inspect.isfunction(obj) \
                        or not obj.__module__.startswith("polyharm"):
                    continue
                if obj not in self._wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    self._wrappers[obj] = self._wrap(obj, name)
                self._patch(mod, attr, self._wrappers[obj])
        solve = LUFactorization.solve
        if solve not in self._wrappers:
            self._wrappers[solve] = self._wrap(solve, "linalg.lu_solve")
        self._patch(LUFactorization, "solve", self._wrappers[solve])

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, fn, name):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                out, rec[5] = hook(lambda: fn(*args, **kwargs), args)
                return out
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def layers(self, ops):
        """Per span name, over the spans whose operation id is in ``ops``:
        calls, self time in ms, and the hooks' extra figures (summed,
        except memory peaks, which take the maximum)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, op, extra) in enumerate(self.spans):
            if op not in ops:
                continue
            row = out[name]
            row["calls"] += 1
            row["self_ms"] += (end - start - child[i]) * 1e3
            for key, value in (extra or {}).items():
                row[key] = max(row[key], value) if key.startswith("peak") else row[key] + value
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
