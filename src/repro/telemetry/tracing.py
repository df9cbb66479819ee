"""The span tracer: parent/child timing trees over the hot paths.

``tracer.span("build", task=...)`` opens a context manager; the enclosed
block becomes one :class:`Span` in a per-thread parent/child tree.
Finished spans accumulate on the tracer in completion order and can be
exported two ways:

* :func:`SpanTracer.chrome_trace` — Chrome ``trace_event`` JSON that
  loads directly in ``about:tracing`` / Perfetto (``repro campaign
  --telemetry --output DIR`` stores it as ``DIR/reports/trace.json``).
* :func:`SpanTracer.phase_rows` — per-phase timing aggregation (calls,
  cumulative seconds, *self* seconds with child time subtracted) feeding
  the campaign summary and the ``reports/telemetry.html`` status page.

Determinism contract: span *durations* are wall-ish (monotonic clock)
and excluded from every bit-identity suite, but the span *sequence*
emitted by the deterministic cell pass (``category="cell"``) must be
identical on both backends — :func:`SpanTracer.sequence` extracts
exactly that comparable shape and ``TestBackendParity`` pins it.

Categories partition the tree: ``cell`` for the deterministic cell pass,
``dispatch`` for backend wall-clock execution, ``journal``/``ledger``/
``service`` for persistence and daemon paths.  A span without an
explicit category inherits its parent's, so instrumented leaf calls stay
terse.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Category given to root spans that declare none.
DEFAULT_CATEGORY = "general"


@dataclass
class Span:
    """One finished (or in-flight) timed region."""

    span_id: int
    name: str
    category: str
    start: float
    attributes: Tuple[Tuple[str, str], ...]
    parent_id: Optional[int] = None
    thread: int = 0
    end: Optional[float] = None
    child_seconds: float = 0.0

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def self_seconds(self) -> float:
        return max(0.0, self.duration - self.child_seconds)

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "parent_id": self.parent_id,
            "thread": self.thread,
            "attributes": {key: value for key, value in self.attributes},
        }


class SpanTracer:
    """Collects spans on an injectable monotonic clock.

    The tracer is thread-safe: each thread keeps its own open-span stack
    (so parentage never crosses threads), while the finished-span list is
    shared under a lock.  Completion order within one thread is
    deterministic — children close before parents — which is what makes
    the cell-pass sequence comparable across backends.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or time.monotonic
        self._origin = self._clock()
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[Span]] = {}
        self._thread_order: Dict[int, int] = {}
        self._next_id = 0
        self.spans: List[Span] = []

    # -- recording ----------------------------------------------------

    def span(self, name: str, category: Optional[str] = None, **attributes: object):
        return _SpanContext(self, name, category, attributes)

    def _open(self, name: str, category: Optional[str], attributes) -> Span:
        ident = threading.get_ident()
        with self._lock:
            thread = self._thread_order.setdefault(ident, len(self._thread_order))
            stack = self._stacks.setdefault(ident, [])
            parent = stack[-1] if stack else None
            if category is None:
                category = parent.category if parent else DEFAULT_CATEGORY
            self._next_id += 1
            span = Span(
                span_id=self._next_id,
                name=name,
                category=category,
                start=self._clock() - self._origin,
                attributes=tuple(
                    sorted((str(key), str(value)) for key, value in attributes.items())
                ),
                parent_id=parent.span_id if parent else None,
                thread=thread,
            )
            stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        ident = threading.get_ident()
        with self._lock:
            span.end = self._clock() - self._origin
            stack = self._stacks.get(ident, [])
            if stack and stack[-1] is span:
                stack.pop()
            parent = stack[-1] if stack else None
            if parent is not None:
                parent.child_seconds += span.duration
            self.spans.append(span)

    # -- reading ------------------------------------------------------

    def sequence(
        self, category: Optional[str] = None
    ) -> Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...]:
        """The comparable span shape: ``(name, attributes)`` in order.

        Durations, ids and thread assignments are deliberately dropped —
        this is the part of the trace the determinism contract covers.
        """
        with self._lock:
            return tuple(
                (span.name, span.attributes)
                for span in self.spans
                if category is None or span.category == category
            )

    def phase_rows(self) -> List[List[object]]:
        """Per-phase aggregation: calls, cumulative and self seconds."""
        totals: Dict[Tuple[str, str], List[float]] = {}
        with self._lock:
            spans = list(self.spans)
        for span in spans:
            key = (span.category, span.name)
            bucket = totals.setdefault(key, [0.0, 0.0, 0.0])
            bucket[0] += 1
            bucket[1] += span.duration
            bucket[2] += span.self_seconds
        rows: List[List[object]] = []
        for (category, name), (calls, cumulative, self_seconds) in sorted(
            totals.items(), key=lambda item: (-item[1][1], item[0])
        ):
            rows.append(
                [
                    category,
                    name,
                    int(calls),
                    round(cumulative, 6),
                    round(self_seconds, 6),
                ]
            )
        return rows

    def chrome_trace(self) -> dict:
        """The trace as a Chrome ``trace_event`` document (µs units)."""
        with self._lock:
            spans = list(self.spans)
        events = []
        for span in sorted(spans, key=lambda item: (item.start, item.span_id)):
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": round(span.start * 1_000_000, 3),
                    "dur": round(span.duration * 1_000_000, 3),
                    "pid": 1,
                    "tid": span.thread,
                    "args": {key: value for key, value in span.attributes},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro telemetry tracer"},
        }

    def reset(self) -> None:
        """Drop finished spans (open stacks are left untouched)."""
        with self._lock:
            self.spans.clear()


@dataclass
class _SpanContext:
    tracer: SpanTracer
    name: str
    category: Optional[str]
    attributes: dict
    _span: Optional[Span] = field(default=None, repr=False)

    def __enter__(self) -> Span:
        self._span = self.tracer._open(self.name, self.category, self.attributes)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._span is not None:
            self.tracer._close(self._span)


__all__ = ["DEFAULT_CATEGORY", "Span", "SpanTracer"]
