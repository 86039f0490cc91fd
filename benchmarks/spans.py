"""In-memory span tracing by wrapping public ``gridsec`` functions.

A target names a function where it is defined, e.g. ``("gridsec.loadflow",
"solve_loadflow")`` or a method, ``("gridsec.qubo", "Qubo.to_dense")``.
Patching replaces that object in every loaded ``gridsec`` module namespace
that holds it, so calls made through ``from .network import
is_spanning_tree`` in another module are seen too.  A target that no longer
exists is skipped and simply reports zero calls; a benchmark that outlives
a refactor is worth more than one that crashes on it.

Spans are ``(name, start_ns, end_ns, parent)`` tuples kept in a list and
written out once the run ends.  A span's self time is its duration minus
the durations of its direct children (calls nest, so children never
overlap).
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time

_clock = time.perf_counter_ns
CALIBRATION_CALLS = 20_000  # calls per timing in wrapper_cost_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start ns, end ns, parent index or -1)
        self.tags: dict[int, object] = {}
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, observe=None):
        """``fn`` recording one span per call.

        ``observe(args, kwargs, result)`` may return a tag kept with the
        span, or update :attr:`counters`; it runs after the span closes.
        """
        nid = self._name_id(name)
        spans, stack, tags = self.spans, self._stack, self.tags

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if observe is not None:
                tag = observe(args, kwargs, result)
                if tag is not None:
                    tags[idx] = tag
            return result

        return traced

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def reset(self) -> None:
        """Forget recorded spans, tags and counters; patches stay."""
        self.spans.clear()
        self.tags.clear()
        self.counters.clear()

    def patch(self, name: str, module: str, attr: str, observe=None) -> None:
        """Wrap ``module.attr`` (``Class.method`` allowed) everywhere it is bound."""
        try:
            owner = importlib.import_module(module)
        except ImportError:
            self.missing.append(name)
            return
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(leaf) if owner is not None else None
        if not callable(original):
            self.missing.append(name)
            return
        traced = self.wrap(original, name, observe)
        if path:
            self._set(owner, leaf, traced)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "gridsec" or mod_name.startswith("gridsec."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)

    def _set(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self, name: str) -> list[int]:
        """Indices of the spans recorded under ``name``."""
        if name not in self.names:
            return []
        nid = self.names.index(name)
        return [k for k, span in enumerate(self.spans) if span[0] == nid]

    def durations_ns(self, name: str) -> list[int]:
        return [self.spans[k][2] - self.spans[k][1] for k in self.by_name(name)]

    def dump(self, path) -> None:
        doc = {"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent"],
               "spans": self.spans, "missing": self.missing}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def wrapper_cost_ns() -> float:
    """Added cost of one traced call, measured on an empty function."""

    def empty():
        return None

    tracer = Tracer()
    traced = tracer.wrap(empty, "calibration")
    best = float("inf")
    for _ in range(5):
        start = _clock()
        for _ in range(CALIBRATION_CALLS):
            empty()
        bare = _clock() - start
        tracer.spans.clear()
        start = _clock()
        for _ in range(CALIBRATION_CALLS):
            traced()
        best = min(best, (_clock() - start - bare) / CALIBRATION_CALLS)
    return max(best, 0.0)
