"""Span recording around the pipeline's layer functions, from outside `src/`.

A `Tracer` replaces module attributes with wrappers that record one span per
call: name, layer, run id, parent span, start and end.  The attribute is
replaced where the caller looks it up (`expcli.stationary_scan`, not
`shift.stationary_scan`, because `expcli` imported the name), so every call
the pipeline makes goes through a wrapper.  Spans stay in memory until the
benchmark writes them out; `restore` puts the original functions back.

A span's layer is the module that defines the wrapped function, so
`tracekit.local_factor_grid` is arithmetic work called from the trace.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict


def public_functions(module) -> list[str]:
    """Names of the public functions defined in `module` itself."""
    return sorted(
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    )


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        # Each span is [name, layer, run, parent, start, end]; parent is the
        # index of the enclosing span or -1.
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, module, name: str, hook=None) -> None:
        """Wrap `module.name`; `hook(counts, args, kwargs, result)` adds counts.

        A name the module no longer has is skipped, so the benchmark keeps
        working when a later change removes a layer function; its spans and
        counts then read zero.
        """
        fn = getattr(module, name, None)
        if not callable(fn):
            return
        span_name = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        wrapper = self._wrap(span_name, fn.__module__.rsplit(".", 1)[-1], fn, hook)
        self._saved.append((module, name, fn))
        setattr(module, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, layer, self.run, parent, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, layer, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(self.counts[self.run], args, kwargs, result)
            return result
        return wrapper

    def call(self, name: str, layer: str, fn, *args):
        """Run `fn(*args)` inside a root span of its own."""
        span = self._open(name, layer)
        try:
            return fn(*args)
        finally:
            self._close(span)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[4], span[5]))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span[4]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, span[5])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span[5] - span[4]) - covered)
    return out
