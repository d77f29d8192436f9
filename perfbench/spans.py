"""Span recording for traced runs.

Each wrapped library function records a span (name, start, end, parent span,
request id) while tracing is enabled.  Wrappers are installed by rebinding a
function's name in every bunncalc module that imported it, so calls between
modules go through the wrapper too.  Spans stay in memory; ``summary`` turns
them into per-layer self times (a span's duration minus its child spans) and
call counts.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request: int | None = None
        self.enabled = False
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, before=None, after=None):
        """Span-recording wrapper.  ``before(args)`` runs ahead of the span and
        its value goes to ``after(state, args, out)``, which runs after it."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            state = before(args) if before else None
            parent = stack[-1] if stack else None
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request)
            if after:
                after(state, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Call-counting wrapper without a span, for calls too small to time."""

        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> tuple[dict, Counter]:
        """(self milliseconds by span name, calls by span name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_ms: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_ms[name] += (end - start - child[i]) * 1e3
            calls[name] += 1
        return dict(self_ms), calls


def rebind(original, replacement, package: str = "bunncalc") -> int:
    """Point every name bound to ``original`` in the package's modules at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed
