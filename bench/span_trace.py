"""Spans recorded around calls into the selink layers, kept in memory.

A span is ``[name, request, parent, start, end, error]``: the layer call it
times (``<module>.<call>``), the request it belongs to (a record, query or
cone index, or ``"pass"`` for once-per-pass calls), the index of the
enclosing span or None, perf_counter timestamps, and whether the call
raised.  Work counts are tallied next to the spans under their metric name.

``NullTracer`` makes the same calls without recording, so the difference
between a pass with each tracer is the cost of tracing itself.
"""

from __future__ import annotations

import contextlib
from time import perf_counter


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def span(self, name: str, request):
        return _Span(self, name, request)

    def call(self, name: str, request, fn, *args, **kwargs):
        with _Span(self, name, request):
            return fn(*args, **kwargs)

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


class _Span:
    __slots__ = ("recorder", "name", "request", "index")

    def __init__(self, recorder: Recorder, name: str, request):
        self.recorder = recorder
        self.name = name
        self.request = request

    def __enter__(self):
        rec = self.recorder
        parent = rec._open[-1] if rec._open else None
        self.index = len(rec.spans)
        rec._open.append(self.index)
        rec.spans.append([self.name, self.request, parent, perf_counter(), 0.0, False])
        return self

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter()
        span = self.recorder.spans[self.index]
        span[4] = end
        span[5] = exc_type is not None
        self.recorder._open.pop()
        return False


class NullTracer:
    def span(self, name: str, request):
        return contextlib.nullcontext()

    def call(self, name: str, request, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, key: str, amount: int) -> None:
        pass


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, busy time, self time and errors.

    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap, since calls run in one thread.
    """
    covered = [0.0] * len(spans)
    for name, request, parent, start, end, error in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, request, parent, start, end, error) in enumerate(spans):
        stat = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
        stat["calls"] += 1
        stat["busy_s"] += end - start
        stat["self_s"] += end - start - covered[i]
        stat["errors"] += int(error)
    return out
