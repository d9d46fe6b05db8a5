"""Benchmark-owned spans around calls into the program's layers.

The traced run replaces selected public functions and methods of the
program with timing wrappers (:class:`Probes`), so no program file is
changed.  Each call becomes a span — name, layer, start, end and the span
that caused it — kept in memory by a :class:`Recorder` and summarised at
the end: inclusive time and call counts per span name, self time per
layer, and the part of the workload's wall time no span covers.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

from perfbench.stats import union_length


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    #: Work counted at the boundary (rows, instructions, bytes, ...).
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-aware in-memory span store."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else None
        span = Span(next(self._ids), parent, name, layer, time.perf_counter())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def to_list(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "name": s.name,
                 "layer": s.layer, "start": s.start, "end": s.end,
                 "counts": s.counts} for s in self.spans]


def spans_from_list(rows: list[dict]) -> list[Span]:
    return [Span(r["id"], r["parent"], r["name"], r["layer"], r["start"],
                 r["end"], dict(r.get("counts", {}))) for r in rows]


# ----------------------------------------------------------------------
# Summaries.
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [(max(start, span.start), min(end, span.end))
                   for start, end in children.get(span.id, ())]
        result[span.id] = span.duration - union_length(clipped)
    return result


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Layer -> summed self time of its spans."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.id]
    return totals


def outermost(spans: list[Span], match) -> list[Span]:
    """Spans for which ``match(span)`` holds and no ancestor's does."""
    by_id = {span.id: span for span in spans}
    selected = []
    for span in spans:
        if not match(span):
            continue
        parent = by_id.get(span.parent)
        while parent is not None and not match(parent):
            parent = by_id.get(parent.parent)
        if parent is None:
            selected.append(span)
    return selected


def inclusive(spans: list[Span], name: str) -> float:
    """Wall time inside ``name`` calls, nested re-entries counted once."""
    return sum(span.duration
               for span in outermost(spans, lambda span: span.name == name))


def calls(spans: list[Span], name: str) -> int:
    return sum(1 for span in spans if span.name == name)


def counted(spans: list[Span], name: str, key: str) -> float:
    return sum(span.counts.get(key, 0) for span in spans if span.name == name)


def uncovered(spans: list[Span], windows: list[tuple[float, float]]) -> float:
    """Wall time inside ``windows`` that no root span covers."""
    merged: list[list[float]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    roots = [(span.start, span.end) for span in spans if span.parent is None]
    total = 0.0
    for start, end in merged:
        clipped = [(max(s, start), min(e, end)) for s, e in roots]
        total += (end - start) - union_length(clipped)
    return total


# ----------------------------------------------------------------------
# Installing wrappers.
# ----------------------------------------------------------------------
class Probes:
    """Wraps attributes of program objects in spans; undone by :meth:`remove`."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attribute: str, name: str, layer: str,
             count=None) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``count(span, args, kwargs, result)`` may add boundary counts.
        """
        original = getattr(owner, attribute)
        recorder = self.recorder

        def wrapper(*args, **kwargs):
            span = recorder.open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if count is not None:
                count(span, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(original, "__name__", attribute)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attribute, wrapper)
        self._undo.append((owner, attribute, original))

    def replace(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def remove(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


class _TimedStream:
    """A kernel stream object whose ``update``/``finish`` calls become spans."""

    def __init__(self, stream, recorder: Recorder, label: str):
        self._stream = stream
        self._recorder = recorder
        self._label = label

    def __getattr__(self, attribute):
        value = getattr(self._stream, attribute)
        if attribute not in ("update", "finish") or not callable(value):
            return value
        recorder, name = self._recorder, f"accel.{self._label}.{attribute}"

        def timed(*args, **kwargs):
            span = recorder.open(name, "accel")
            try:
                return value(*args, **kwargs)
            finally:
                recorder.close(span)
        return timed


class KernelProxy:
    """Stands in for the ``repro.accel.get_kernels()`` object.

    Every method call is an ``accel.<method>`` span; the incremental pass
    objects the ``*_stream`` factories return time their ``update`` and
    ``finish`` calls too.
    """

    def __init__(self, kernels, recorder: Recorder):
        self._kernels = kernels
        self._recorder = recorder

    def __getattr__(self, attribute):
        value = getattr(self._kernels, attribute)
        if not callable(value) or attribute.startswith("_"):
            return value
        recorder, name = self._recorder, f"accel.{attribute}"
        streaming = attribute.endswith("_stream")

        def timed(*args, **kwargs):
            span = recorder.open(name, "accel")
            try:
                result = value(*args, **kwargs)
            finally:
                recorder.close(span)
            if streaming and hasattr(result, "update"):
                return _TimedStream(result, recorder, attribute)
            return result
        return timed
