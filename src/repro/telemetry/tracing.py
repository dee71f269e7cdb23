"""Nested span tracing with Chrome trace-event export.

A *span* measures one named region of work (an engine stage, a sampled
block, an HTTP request).  Spans nest through a :mod:`contextvars`
context variable, so the code being measured never threads parent
handles around; crossing a thread or process boundary is explicit via
:func:`current_context` / :func:`use_context` (the job manager carries
the HTTP request's context into its worker threads; ``run_sweep``
serializes it into process workers and ships the workers' finished
spans back).

Finished spans land in a bounded in-memory buffer and export as
Chrome/Perfetto trace-event JSON (``{"traceEvents": [...]}`` with
``ph="X"`` complete events) — loadable in ``chrome://tracing`` or
https://ui.perfetto.dev.  Each event carries ``trace_id`` / ``span_id``
/ ``parent_id`` in its ``args``, so the logical nesting survives even
across threads, where wall-clock containment alone would not show it.

Spans always *measure* — :attr:`Span.duration` feeds
:class:`~repro.api.results.Provenance` timings — but are only
*recorded* into the buffer while telemetry is enabled
(:func:`repro.telemetry.metrics.enabled`), so the disabled path costs
one clock read per span and no allocation growth.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import os
import secrets
import threading
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.errors import ReproError
from repro.resilience.atomic import atomic_write
from repro.telemetry.metrics import enabled
from repro.telemetry.profiling import active_profiler as _active_profiler

__all__ = [
    "Span",
    "SpanContext",
    "clear_spans",
    "current_context",
    "drain_spans",
    "export_chrome_trace",
    "ingest_spans",
    "new_context",
    "span",
    "spans",
    "use_context",
]

#: Bound on buffered finished spans (oldest evicted first).
MAX_BUFFERED_SPANS = 200_000

_BUFFER: "deque[Dict[str, Any]]" = deque(maxlen=MAX_BUFFERED_SPANS)
_BUFFER_LOCK = threading.Lock()

_CURRENT: "contextvars.ContextVar[Optional[SpanContext]]" = (
    contextvars.ContextVar("protest-span", default=None)
)

# Map perf_counter() onto the epoch once, so ts values from different
# threads share one monotonic timeline.
_EPOCH_WALL = time.time()
_EPOCH_PERF = time.perf_counter()


def _now_us(perf: float) -> float:
    return (_EPOCH_WALL + (perf - _EPOCH_PERF)) * 1e6


def _new_id() -> str:
    return secrets.token_hex(8)


class SpanContext:
    """The propagatable identity of a span: ``(trace_id, span_id)``."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def to_payload(self) -> Dict[str, str]:
        """JSON/pickle-safe form (what ``run_sweep`` ships to workers)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_payload(
        cls, data: "Mapping[str, str] | None"
    ) -> "Optional[SpanContext]":
        if data is None:
            return None
        try:
            return cls(str(data["trace_id"]), str(data["span_id"]))
        except (KeyError, TypeError) as error:
            raise ReproError(f"malformed span context: {data!r}") from error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanContext(trace_id={self.trace_id!r}, span_id={self.span_id!r})"


def new_context() -> SpanContext:
    """A fresh root context (a new trace)."""
    return SpanContext(_new_id(), _new_id())


def current_context() -> "Optional[SpanContext]":
    """The innermost active span's context, or ``None`` outside any span."""
    return _CURRENT.get()


@contextlib.contextmanager
def use_context(context: "Optional[SpanContext]") -> Iterator[None]:
    """Adopt a propagated context as the parent of spans opened inside."""
    token = _CURRENT.set(context)
    try:
        yield
    finally:
        _CURRENT.reset(token)


class Span:
    """One timed region.  Created by :func:`span`; read via attributes."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "args",
        "_start_perf", "duration",
    )

    def __init__(
        self,
        name: str,
        parent: "Optional[SpanContext]",
        args: Dict[str, Any],
    ) -> None:
        self.name = name
        if parent is None:
            self.trace_id = _new_id()
            self.parent_id = None
        else:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        self.span_id = _new_id()
        self.args = args
        self._start_perf = time.perf_counter()
        self.duration = 0.0

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def set(self, key: str, value: Any) -> None:
        """Attach an attribute to the span (shows up in trace ``args``)."""
        self.args[key] = value

    def _finish(self) -> None:
        end_perf = time.perf_counter()
        self.duration = end_perf - self._start_perf
        if not enabled():
            return
        event = {
            "name": self.name,
            "cat": "protest",
            "ph": "X",
            "ts": _now_us(self._start_perf),
            "dur": self.duration * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "args": {
                **self.args,
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
            },
        }
        with _BUFFER_LOCK:
            _BUFFER.append(event)


@contextlib.contextmanager
def span(name: str, **args: Any) -> Iterator[Span]:
    """Open a span under the current context; record it when it closes.

    The yielded :class:`Span` always measures its own duration (used
    for provenance timings even with telemetry disabled); buffering for
    export only happens while telemetry is enabled.  The span becomes
    the current context for anything opened inside the ``with`` body.

    When a :class:`~repro.telemetry.profiling.PhaseProfiler` is active
    in this context the span is also pushed/popped as a profiler phase,
    so the existing span tree doubles as the profile skeleton.  The
    off-path cost is one ``ContextVar.get``.
    """
    current = _CURRENT.get()
    opened = Span(name, current, dict(args))
    token = _CURRENT.set(opened.context)
    profiler = _active_profiler()
    if profiler is not None:
        profiler.push(name)
    try:
        yield opened
    finally:
        _CURRENT.reset(token)
        opened._finish()
        if profiler is not None:
            profiler.pop(0.0, duration=opened.duration)


def spans(trace_id: "str | None" = None) -> List[Dict[str, Any]]:
    """Buffered finished spans (optionally only one trace), oldest first."""
    with _BUFFER_LOCK:
        events = list(_BUFFER)
    if trace_id is None:
        return events
    return [e for e in events if e["args"].get("trace_id") == trace_id]


def drain_spans(trace_id: "str | None" = None) -> List[Dict[str, Any]]:
    """Remove and return buffered spans (optionally only one trace)."""
    with _BUFFER_LOCK:
        if trace_id is None:
            events = list(_BUFFER)
            _BUFFER.clear()
            return events
        events, kept = [], []
        for event in _BUFFER:
            if event["args"].get("trace_id") == trace_id:
                events.append(event)
            else:
                kept.append(event)
        _BUFFER.clear()
        _BUFFER.extend(kept)
        return events


def ingest_spans(events: "List[Dict[str, Any]] | None") -> None:
    """Append externally produced span events (a sweep worker's) as-is."""
    if not events:
        return
    with _BUFFER_LOCK:
        _BUFFER.extend(events)


def clear_spans() -> None:
    """Drop every buffered span (test isolation)."""
    with _BUFFER_LOCK:
        _BUFFER.clear()


def chrome_trace_payload(
    events: "List[Dict[str, Any]] | None" = None,
    trace_id: "str | None" = None,
) -> Dict[str, Any]:
    """The Chrome trace-event JSON object for the given (or buffered) spans."""
    if events is None:
        events = spans(trace_id)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome_trace(
    path: str,
    events: "List[Dict[str, Any]] | None" = None,
    trace_id: "str | None" = None,
) -> int:
    """Write a Chrome/Perfetto-loadable trace file; returns the span count.

    ``trace_id`` exports one trace (how ``protest serve --trace-dir``
    writes per-job files); the default exports everything buffered (how
    ``protest analyze --trace out.json`` dumps the whole command).
    """
    payload = chrome_trace_payload(events, trace_id)

    def write(handle):
        json.dump(payload, handle, indent=None, separators=(",", ":"))
        handle.write("\n")

    atomic_write(path, write)
    return len(payload["traceEvents"])
