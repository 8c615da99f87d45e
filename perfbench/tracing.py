"""Timing spans around the library's public callables, installed from outside.

The tracer replaces named module attributes, class attributes and kernel
methods with wrappers that time each call, and restores them on
``uninstall``. Spans nest on a stack, so each span's self time is its
duration minus the time of the spans it caused. Only aggregates (calls
and self seconds per span name) are kept, so memory stays flat however
many calls a run makes. Python's cyclic GC is timed through ``gc.callbacks``.

A name that no longer exists raises ``TraceError`` at install time, and a
span the workload declares as expected but never saw raises at report time:
a layer is never reported as a silent zero.
"""

from __future__ import annotations

import contextlib
import gc
import time
from collections import defaultdict


class TraceError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._stack: list[list[float]] = []
        self._fit_depth = 0
        self._gc_start: float | None = None
        self._restore: list = []

    # -- spans ---------------------------------------------------------------

    def _finish(self, name: str, frame: list[float], start: float) -> None:
        duration = time.perf_counter() - start
        self._stack.pop()
        self.calls[name] += 1
        self.self_s[name] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` timed as span ``name``; ``on_result`` sees each return value."""
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._finish(name, frame, start)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_fit(self, name: str, fn):
        """Like ``wrap``, and marks kernel applies made inside as fit applies."""
        inner = self.wrap(name, fn)

        def traced(*args, **kwargs):
            self._fit_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._fit_depth -= 1

        return traced

    def wrap_apply(self, kind: str, fn):
        """Kernel apply: a fit apply inside ``fit``, a transform apply otherwise."""
        run_name = f"transforms.{kind}.apply_s"
        fitted = self.wrap("pipeline.fit_apply_s", fn)
        running = self.wrap(run_name, fn, on_result=self._count_cells)

        def traced(*args, **kwargs):
            return (fitted if self._fit_depth else running)(*args, **kwargs)

        return traced

    def _count_cells(self, result) -> None:
        rows, _ = result
        self.counts["transforms.cells_out"] += len(rows) * (len(rows[0]) if rows else 0)

    def span(self, name: str):
        """Context manager for a span around the benchmark's own code."""
        return _Span(self, name)

    # -- installation --------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``; fail if it is gone."""
        if attr in vars(owner):
            had_own = True
            original = vars(owner)[attr]
        elif hasattr(owner, attr) and not isinstance(owner, type):
            had_own = False  # inherited method on an instance
            original = getattr(owner, attr)
        else:
            raise TraceError(
                f"cannot trace {getattr(owner, '__name__', type(owner).__name__)}.{attr}: "
                "it no longer exists")
        setattr(owner, attr, make(original))
        self._restore.append((owner, attr, original, had_own))

    def install_gc(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._restore.append((None, None, None, None))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_s += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original, had_own = self._restore.pop()
            if owner is None:
                gc.callbacks.remove(self._on_gc)
            elif had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def require(self, names) -> None:
        """Raise unless every expected span was entered at least once."""
        silent = sorted(name for name in names if self.calls.get(name, 0) == 0)
        if silent:
            raise TraceError(f"expected spans never ran: {silent}")

    def self_time_total(self) -> float:
        return sum(self.self_s.values())


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.frame = [0.0]
        self.tracer._stack.append(self.frame)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._finish(self.name, self.frame, self.start)
        return False


class NullTracer:
    """Stands in for ``Tracer`` on untraced rounds: spans cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()
