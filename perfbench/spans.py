"""Spans recorded around the program's public functions, traced runs only.

:class:`Tracer` replaces a function or method with a wrapper that
records one span per call — name, start, end, parent — and restores
the originals on :meth:`Tracer.uninstall`. Nothing under ``src/`` is
edited: the wrappers are installed from outside, on the module or class
that defines the function *and* on every loaded ``repro`` module that
imported it by name (``from x import f`` binds its own reference).

Parents come from a :class:`contextvars.ContextVar`, so spans opened by
concurrent asyncio tasks each nest under their own caller.

Self time is a span's duration minus the part of its interval that its
direct children cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "percentile"]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    index: int = 0
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self, spans: list["Span"]) -> float:
        covered = 0.0
        cursor = self.start
        for child in sorted((spans[i] for i in self.children),
                            key=lambda span: span.start):
            lo = max(child.start, cursor)
            hi = min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return self.duration - covered


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-int(share * 1000) * len(ordered) // 1000))
    return ordered[rank - 1]


class Tracer:
    """In-memory span recorder plus the wrapper installer."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[int | None] = \
            contextvars.ContextVar("perfbench_span", default=None)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def open(self, name: str, **attrs) -> tuple[Span, object]:
        span = Span(name=name, start=time.perf_counter(),
                    parent=self._current.get(), index=len(self.spans),
                    attrs=attrs)
        self.spans.append(span)
        if span.parent is not None:
            self.spans[span.parent].children.append(span.index)
        return span, self._current.set(span.index)

    def close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        self._current.reset(token)

    def span(self, name: str, **attrs):
        """Context manager recording one span around a block."""
        tracer = self

        class _Block:
            def __enter__(self):
                self.span, self.token = tracer.open(name, **attrs)
                return self.span

            def __exit__(self, *exc):
                tracer.close(self.span, self.token)
                return False

        return _Block()

    # -- installing wrappers ------------------------------------------

    def wrap(self, owner, attr: str, name, on_result=None) -> None:
        """Wrap ``owner.attr`` (a function or method) in spans.

        ``name`` is the span name, or a callable ``(args, kwargs) ->
        name`` choosing it per call. ``on_result(span, args, kwargs,
        result)`` may attach counts to the span after the call.
        """
        raw = inspect.getattr_static(owner, attr)
        original = getattr(owner, attr)
        if isinstance(raw, classmethod):
            original = raw.__func__
        namer = name if callable(name) else (lambda _a, _k: name)
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span, token = tracer.open(namer(args, kwargs))
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer.close(span, token)
                if on_result is not None:
                    on_result(span, args, kwargs, result)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span, token = tracer.open(namer(args, kwargs))
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(span, token)
                if on_result is not None:
                    on_result(span, args, kwargs, result)
                return result

        replacement = classmethod(wrapper) if isinstance(raw, classmethod) \
            else wrapper
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)
        if inspect.ismodule(owner):
            # Rebind names other repro modules imported with ``from``.
            for module in list(sys.modules.values()):
                if (module is not owner and module is not None
                        and getattr(module, "__name__", "").startswith(
                            "repro")
                        and getattr(module, attr, None) is original):
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- reading ------------------------------------------------------

    def roots(self, prefix: str = "bench.") -> list[Span]:
        return [span for span in self.spans
                if span.parent is None and span.name.startswith(prefix)]

    def within(self, root: Span):
        """Every span under ``root`` (depth first, root excluded)."""
        stack = list(root.children)
        while stack:
            span = self.spans[stack.pop()]
            yield span
            stack.extend(span.children)

    def durations(self, layer: str) -> list[float]:
        return [span.duration for span in self.spans if span.name == layer]

    def dump(self, path) -> None:
        """Write every span (with its self time) as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "index": span.index, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": span.parent,
                    "self": span.self_time(self.spans),
                    "attrs": span.attrs,
                }) + "\n")
