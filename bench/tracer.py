"""In-memory span tracer that wraps functions from outside the traced package.

A span records (name, start, end, parent index). Spans are kept in a list
while a unit of work runs and reduced afterwards: a span's self time is its
duration minus the part of its interval that its child spans cover. Every
wrapper is installed where the function is looked up (a module global or a
class attribute), so the traced code is never edited, and `restore` puts the
originals back.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

ROOT = "bench"

# (name, start, end, parent index or -1)
Span = tuple[str, float, float, int]

# A counter gets the tracer, the wrapped call's result and its arguments.
Counter = Callable[["Tracer", Any, tuple, dict], None]


@dataclass(frozen=True)
class SpanStats:
    calls: int
    self_s: float


class Tracer:
    """Collects spans and counters for one unit of work at a time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        # span name, or counter_name(span name), -> why it could not be measured
        self.unmeasured: dict[str, str] = {}
        self.missing_sites: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack[:] = [-1]

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock
        counter_key = counter_name(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if counter is not None and counter_key not in self.unmeasured:
                    try:
                        counter(self, result, args, kwargs)
                    except Exception as exc:  # a changed signature must not stop the run
                        self.unmeasured[counter_key] = f"counter failed: {exc!r}"
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        traced.__wrapped__ = fn
        return traced

    def patch(
        self,
        name: str,
        sites: Sequence[tuple[str, str]],
        counter: Counter | None = None,
    ) -> None:
        """Wrap each (module name, attribute path) site, recording spans as `name`.

        A module or attribute that no longer exists is listed in
        `missing_sites` instead of raising; when no site of `name` exists,
        `name` is unmeasured. A refactor that moves a function thus blanks
        its layer rather than stopping the run. Classmethods and
        staticmethods are wrapped on their function.
        """
        missing = []
        for module, path in sites:
            owner, attr, original = _resolve(module, path)
            if original is None:
                missing.append(f"{module}.{path}")
                self.missing_sites.append(missing[-1])
                continue
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(self.wrap(name, original.__func__, counter))
            else:
                replacement = self.wrap(name, original, counter)
            setattr(owner, attr, replacement)
            self._patches.append((owner, attr, original))
        if len(missing) == len(sites):
            self.unmeasured[name] = "not found: " + ", ".join(missing)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def stats(self) -> dict[str, SpanStats]:
        return self_times(span for span in self.spans if span is not None)


def _resolve(module: str, path: str) -> tuple[Any, str, Any]:
    """(owner, attribute, raw attribute value or None) for a dotted site."""
    *parents, attr = path.split(".")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, attr, None
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr, None
    return owner, attr, vars(owner).get(attr)


def counter_name(span: str) -> str:
    """Key under which `Tracer.unmeasured` records a span's failed counters."""
    return f"{span}:counters"


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[str, SpanStats]:
    """Calls and summed self time per span name."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        own[name] += (end - start) - covered(children.get(index, ()), start, end)
    return {name: SpanStats(calls[name], own[name]) for name in calls}
