"""Spans recorded from the benchmark side, around calls into each layer.

The traced run wraps public functions of the program's layers (class
methods, module functions the engine calls, backend methods) with
:meth:`Tracer.span`; nothing inside the program changes.  Spans stay in
memory and are written out once, as a Chrome/Perfetto trace-event file,
when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import pathlib
import statistics
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"


class Tracer:
    """In-memory span recorder.

    A span records its name, start, end, parent span and trace id; the
    spans of one operation (one analysis, one job) share the trace id of
    their root.  Parents are tracked per thread.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        record = {
            "id": span_id,
            "parent": parent["id"] if parent else None,
            "trace": parent["trace"] if parent else span_id,
            "name": name,
            "thread": threading.get_ident(),
            "attrs": attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def add(self, name: str, start: float, end: float, parent: dict) -> None:
        """Record a span timed elsewhere (e.g. from server timestamps)."""
        record = {
            "id": next(self._ids), "parent": parent["id"],
            "trace": parent["trace"], "name": name,
            "thread": parent["thread"], "attrs": {},
            "start": start, "end": end,
        }
        with self._lock:
            self.spans.append(record)


def maybe_span(tracer: Optional[Tracer], name: str, **attrs):
    """``tracer.span(name)``, or a no-op in an untraced run."""
    return tracer.span(name, **attrs) if tracer else contextlib.nullcontext()


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span["id"], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span["id"]] = (end - start) - covered
    return result


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def patched(tracer: Tracer, targets: Iterable[Tuple[object, str, str]]):
    """Wrap ``owner.attr`` in a span called ``name`` for each target.

    Works for class methods, module functions and instance methods; the
    original attributes are restored on exit.
    """
    saved = []
    try:
        for owner, attr, name in targets:
            own = vars(owner).get(attr)
            saved.append((owner, attr, own))
            setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr)))
        yield
    finally:
        for owner, attr, own in reversed(saved):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


def span_cost_s(repeats: int = 3, n: int = 5000) -> float:
    """Measured cost of one empty span of :class:`Tracer` (median)."""
    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        start = time.perf_counter()
        for _ in range(n):
            with tracer.span("calibrate"):
                pass
        costs.append((time.perf_counter() - start) / n)
    return statistics.median(costs)


def write_chrome_trace(spans: Sequence[dict], path: pathlib.Path) -> None:
    """Write spans as Chrome trace events (``ph: X``), atomically."""
    origin = min((s["start"] for s in spans), default=0.0)
    threads: Dict[int, int] = {}
    events = []
    for span in spans:
        tid = threads.setdefault(span["thread"], len(threads) + 1)
        events.append({
            "name": span["name"],
            "cat": span["name"].split(".")[0],
            "ph": "X",
            "pid": 1,
            "tid": tid,
            "ts": round((span["start"] - origin) * 1e6, 3),
            "dur": round((span["end"] - span["start"]) * 1e6, 3),
            "args": dict(span["attrs"], id=span["id"], parent=span["parent"],
                         trace=span["trace"]),
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    os.replace(tmp, path)
