"""Spans recorded from outside the program.

`Tracer.install` replaces every public function of the given cupstack
modules, in every module namespace that holds it, with a wrapper that
records a span (name, start, end, parent, request id).  A span is named
after the module that defines the function, so `cupstack.ecc2.gallai_edmonds`
and `cupstack.matching.gallai_edmonds` both record `matching.gallai_edmonds`.
Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, counters: dict | None = None):
        # counters: span name -> f(args, result) -> {count name: number}
        self.counters = counters or {}
        self.spans: list = []       # (name, start, end, parent, request)
        self.counts: dict[int, dict] = {}
        self.stack: list[int] = []
        self.request = -1
        self._patches: list = []

    # ------------------------------------------------------------ recording

    def _call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.request)
        counter = self.counters.get(name)
        if counter is not None:
            self.counts[idx] = counter(args, result)
        return result

    def call(self, name, fn, *args, **kwargs):
        """Run fn under a span of the benchmark's own (e.g. one request)."""
        return self._call(name, fn, args, kwargs)

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    def install(self, modules, methods=()):
        """Wrap the public functions of `modules` (module objects) wherever
        they appear among them, plus the given (class, attribute) methods."""
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("cupstack")):
                    continue
                if id(obj) not in wrapped:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__qualname__}"
                    wrapped[id(obj)] = self._wrapper(name, obj)
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrapped[id(obj)])
        for cls, attr in methods:
            fn = vars(cls)[attr]
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrapper(name, fn))

    def uninstall(self):
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    # ------------------------------------------------------------- analysis

    def _ancestors(self, idx):
        parent = self.spans[idx][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]

    def outermost(self, names, where=None):
        """Indices of spans named in `names` with no ancestor named in
        `names`; `where(span)` filters them further."""
        names = set(names)
        out = []
        for idx, sp in enumerate(self.spans):
            if sp[0] in names and (where is None or where(sp)):
                if not any(self.spans[a][0] in names for a in self._ancestors(idx)):
                    out.append(idx)
        return out

    def covered(self, names, where=None) -> float:
        """Seconds covered by spans named in `names` (nested ones once)."""
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self.outermost(names, where))

    def named(self, name, where=None) -> list[int]:
        """Indices of the spans called `name` that pass `where(span)`."""
        return [i for i, sp in enumerate(self.spans)
                if sp[0] == name and (where is None or where(sp))]

    def count(self, indices, key) -> int:
        """Sum of the count `key` recorded on the given spans."""
        return sum(self.counts.get(i, {}).get(key, 0) for i in indices)

    def names(self, prefix) -> set[str]:
        return {sp[0] for sp in self.spans if sp[0].startswith(prefix)}

    def self_times(self) -> dict:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by its direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[idx]
        return {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                for k, v in sorted(out.items())}

    def write(self, path):
        """One JSON array per line: name, start, end (seconds from the first
        span), parent index, request id; counts appended when present."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, req) in enumerate(self.spans):
                row = [name, round(start - t0, 7), round(end - t0, 7), parent, req]
                if idx in self.counts:
                    row.append(self.counts[idx])
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
