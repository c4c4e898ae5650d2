"""Hierarchical tracing for the MVTEE hot path.

The paper's evaluation (§6, Figures 9-14) is entirely about *where time
goes*: per-partition stage latency, checkpoint overhead, the cost of
sync vs. async cross-validation.  A :class:`Tracer` produces the span
tree that answers those questions for one deployment::

    infer                       one scheduler run
    └── batch                   one batch through the pipeline
        └── stage               one partition execution
            ├── variant         one monitor<->variant round trip
            └── checkpoint      one consistency vote

Spans carry wall-clock timings plus structured attributes (partition
index, variant id, path mode, bytes protected), and completed root
spans flow to pluggable :class:`SpanExporter` sinks -- an in-memory
ring buffer for tests/operators and a JSONL file sink for offline
analysis.
"""

from __future__ import annotations

import json
import secrets
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Protocol

__all__ = [
    "InMemorySpanExporter",
    "JsonlSpanExporter",
    "NullTracer",
    "Span",
    "SpanExporter",
    "Tracer",
    "format_span_tree",
]


@dataclass(eq=False)
class Span:
    """One timed operation in the trace hierarchy."""

    name: str
    attributes: dict = field(default_factory=dict)
    start_time: float = field(default_factory=time.perf_counter)
    end_time: float | None = None
    status: str = "ok"
    children: list["Span"] = field(default_factory=list)
    _span_id: str | None = field(default=None, repr=False)

    @property
    def span_id(self) -> str:
        """Stable random identifier, minted on first access.

        Lazy so the untraced hot path (``NullTracer`` creates a span per
        variant round trip) never pays for id generation.
        """
        if self._span_id is None:
            self._span_id = secrets.token_hex(8)
        return self._span_id

    def set_attribute(self, key: str, value) -> None:
        """Attach one structured attribute."""
        self.attributes[key] = value

    def record_error(self, error: str) -> None:
        """Mark the span failed and remember why."""
        self.status = "error"
        self.attributes["error"] = error

    def end(self) -> None:
        """Close the span (idempotent)."""
        if self.end_time is None:
            self.end_time = time.perf_counter()

    @property
    def ended(self) -> bool:
        """Whether the span has been closed."""
        return self.end_time is not None

    @property
    def duration(self) -> float:
        """Elapsed seconds (up to now for a still-open span)."""
        end = self.end_time if self.end_time is not None else time.perf_counter()
        return end - self.start_time

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (including self) with the given name."""
        return [span for span in self.walk() if span.name == name]

    def to_json(self) -> dict:
        """Nested JSON form (what the JSONL sink writes)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "duration_s": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
            "children": [child.to_json() for child in self.children],
        }


class SpanExporter(Protocol):
    """Receives each completed *root* span (the full tree under it)."""

    def export(self, span: Span) -> None: ...


class InMemorySpanExporter:
    """Ring buffer of the most recent completed root spans."""

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._spans: deque[Span] = deque(maxlen=capacity)

    def export(self, span: Span) -> None:
        """Keep the finished tree, evicting the oldest past capacity."""
        self._spans.append(span)

    @property
    def spans(self) -> list[Span]:
        """Retained root spans, oldest first."""
        return list(self._spans)

    def clear(self) -> None:
        """Drop every retained span."""
        self._spans.clear()


class JsonlSpanExporter:
    """Appends one JSON document per completed root span to a file."""

    def __init__(self, path):
        self.path = path
        self._lock = threading.Lock()

    def export(self, span: Span) -> None:
        """Serialize the finished tree as one JSONL line."""
        line = json.dumps(span.to_json()) + "\n"
        # Concurrent engine workers export roots concurrently; one
        # writer at a time keeps every JSONL line intact.
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)


class Tracer:
    """Builds span trees; nesting follows an explicit or implicit parent.

    ``span()`` is a context manager: without an explicit ``parent`` the
    new span nests under the innermost open ``span()`` block; with one
    it attaches there while still acting as the implicit parent for
    spans opened inside the block.  ``start_span``/``Span.end`` is
    the manual variant for spans that stay open across control flow.
    """

    def __init__(self, exporters: list[SpanExporter] | None = None):
        self.exporters: list[SpanExporter] = list(exporters or [])
        self.roots: list[Span] = []
        self._tls = threading.local()

    @property
    def _stack(self) -> list[Span]:
        """The open-span stack of the *calling* thread.

        Per thread so concurrent runs (engine workers overlapping
        batches on one tracer) each build their own span tree instead
        of nesting under whichever span another thread happens to have
        open.
        """
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def current(self) -> Span | None:
        """The innermost open context-manager span, if any."""
        return self._stack[-1] if self._stack else None

    def trace_id(self) -> str | None:
        """Id of the outermost open span (the trace this code runs in).

        ``None`` outside any ``span()`` block -- forensics callers use
        this to correlate an incident with the span tree it occurred in.
        """
        return self._stack[0].span_id if self._stack else None

    def current_span_id(self) -> str | None:
        """Id of the innermost open span, or ``None`` outside one."""
        current = self.current()
        return current.span_id if current is not None else None

    def start_span(self, name: str, *, parent: Span | None = None, **attributes) -> Span:
        """Open a span without entering it (caller ends it explicitly)."""
        span = Span(name=name, attributes=dict(attributes))
        anchor = parent if parent is not None else self.current()
        if anchor is not None:
            anchor.children.append(span)
        else:
            self.roots.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close a manually started span, exporting if it is a root."""
        span.end()
        if span in self.roots:
            self._export(span)

    @contextmanager
    def span(self, name: str, *, parent: Span | None = None, **attributes):
        """Open a span for the duration of the ``with`` block."""
        span = self.start_span(name, parent=parent, **attributes)
        self._stack.append(span)
        try:
            yield span
        except Exception as exc:
            span.record_error(str(exc))
            raise
        finally:
            self._stack.pop()
            span.end()
            if span in self.roots:
                self._export(span)

    def _export(self, span: Span) -> None:
        for exporter in self.exporters:
            exporter.export(span)

    def find(self, name: str) -> list[Span]:
        """All recorded spans with the given name, across every root."""
        return [span for root in self.roots for span in root.find(name)]

    def clear(self) -> None:
        """Forget every recorded root (open context spans keep working)."""
        self.roots.clear()

    def format_tree(self) -> str:
        """Human-readable rendering of every recorded root span."""
        return "\n".join(format_span_tree(root) for root in self.roots)


class NullTracer(Tracer):
    """A tracer that records nothing: the default for untraced runs.

    Spans are still created and timed (callers may read ``duration``),
    but nothing is retained or exported, so the hot path stays
    allocation-light when observability is switched off.
    """

    def start_span(self, name: str, *, parent: Span | None = None, **attributes) -> Span:
        return Span(name=name, attributes=dict(attributes))

    def end_span(self, span: Span) -> None:
        span.end()

    @contextmanager
    def span(self, name: str, *, parent: Span | None = None, **attributes):
        span = Span(name=name, attributes=dict(attributes))
        try:
            yield span
        finally:
            span.end()


def format_span_tree(span: Span, *, indent: int = 0) -> str:
    """Render one span tree as an indented outline."""
    attrs = " ".join(f"{k}={v}" for k, v in span.attributes.items())
    line = "  " * indent + f"{span.name} ({span.duration * 1000:.2f} ms)"
    if attrs:
        line += f" [{attrs}]"
    if span.status != "ok":
        line += " !error"
    lines = [line]
    for child in span.children:
        lines.append(format_span_tree(child, indent=indent + 1))
    return "\n".join(lines)
