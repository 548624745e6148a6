"""Per-request decision traces: span trees from admission to audit.

The paper's protocol is a *derivation* — every grant is justified by a
chain of axiom applications — so a production serving layer owes the
same explainability per request: why was request R granted, under
which epoch, after how long in queue?  A :class:`TraceSpan` tree
records exactly that.  The service threads one root span per ticket
through admission, queue wait, epoch pin, derivation (with axiom
names and proof-step counts), and audit append; the trace
id lands in the hash-chained audit entry so auditors can join the two
records.

Tracing is **zero-cost when off** (the default): a disabled
:class:`Tracer` returns ``None`` from :meth:`Tracer.begin` and every
instrumentation site is guarded by ``if span is not None`` — no span
objects, no clock reads, no buffer traffic.

Span structure for a served request (see DESIGN.md §10)::

    request                 trace_id, operation, object, seq
    ├─ admission            epoch pinned at admission
    ├─ queue_wait           push → decider dequeue
    ├─ epoch_pin            epoch_id the evaluation binds to
    ├─ derivation           granted, reason, axioms, proof_steps
    └─ audit_append         audit sequence number

A shed request replaces everything between ``admission`` and
``audit_append`` with a single ``shed`` span carrying the overload
reason.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional

__all__ = ["TraceSpan", "Tracer", "render_span"]


class TraceSpan:
    """One timed node of a per-request trace tree."""

    __slots__ = (
        "trace_id",
        "name",
        "attrs",
        "children",
        "started_at",
        "ended_at",
    )

    def __init__(self, name: str, trace_id: str = "", **attrs: object):
        self.trace_id = trace_id
        self.name = name
        self.attrs: Dict[str, object] = dict(attrs)
        self.children: List["TraceSpan"] = []
        self.started_at = time.perf_counter()
        self.ended_at: Optional[float] = None

    # ------------------------------------------------------------ building

    def child(self, name: str, **attrs: object) -> "TraceSpan":
        """Open a child span (started now) under this one."""
        span = TraceSpan(name, trace_id=self.trace_id, **attrs)
        self.children.append(span)
        return span

    def end(self, **attrs: object) -> "TraceSpan":
        """Close the span (idempotent) and attach final attributes."""
        if self.ended_at is None:
            self.ended_at = time.perf_counter()
        if attrs:
            self.attrs.update(attrs)
        return self

    @property
    def duration_s(self) -> Optional[float]:
        if self.ended_at is None:
            return None
        return self.ended_at - self.started_at

    def record_error(self, exc: BaseException) -> "TraceSpan":
        """Mark this span errored and attach a closed ``error`` child.

        Used by per-ticket fault isolation: the request's root span
        records the exception class and message, so an errored decision
        is explainable the same way a derivation is.
        """
        self.attrs["errored"] = True
        return self.child(
            "error", error_type=type(exc).__name__, message=str(exc)
        ).end()

    # ----------------------------------------------------------- queries

    def find(self, name: str) -> Optional["TraceSpan"]:
        """First descendant (pre-order) named ``name``, or None."""
        for span in self.walk():
            if span is not self and span.name == name:
                return span
        return None

    def walk(self):
        """Pre-order traversal of the span tree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def child_names(self) -> List[str]:
        return [c.name for c in self.children]

    # ------------------------------------------------------------- export

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict; times become durations relative to the root."""
        out: Dict[str, object] = {
            "name": self.name,
            "duration_ms": (
                round(self.duration_s * 1000, 6)
                if self.duration_s is not None
                else None
            ),
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }
        if self.trace_id:
            out["trace_id"] = self.trace_id
        return out


class Tracer:
    """Factory, buffer and JSONL exporter for request traces.

    Disabled (the default) it does nothing and allocates nothing:
    :meth:`begin` returns ``None`` and callers skip all
    instrumentation.  Enabled, finished root spans land in a bounded
    in-memory ring (for ``explain``-style inspection) and, when
    ``export_path`` is set, are appended to a JSONL file one trace per
    line.
    """

    def __init__(
        self,
        enabled: bool = False,
        export_path: Optional[str] = None,
        buffer_size: int = 256,
    ):
        self.enabled = enabled
        self.export_path = export_path
        self._buffer: Deque[TraceSpan] = deque(maxlen=buffer_size)
        self._lock = threading.Lock()
        # Export I/O runs under its own lock so submitters recording
        # spans never serialize behind a disk write; the handle is
        # opened once, lazily, and line-buffered so each trace is
        # visible to tail-readers as soon as it is written.
        self._io_lock = threading.Lock()
        self._export_fh = None
        self.spans_started = 0
        self.spans_finished = 0

    def begin(self, name: str, trace_id: str, **attrs: object) -> Optional[TraceSpan]:
        """Open a root span, or ``None`` when tracing is disabled."""
        if not self.enabled:
            return None
        with self._lock:
            self.spans_started += 1
        return TraceSpan(name, trace_id=trace_id, **attrs)

    def finish(self, span: Optional[TraceSpan]) -> None:
        """Close a root span and retain/export it.  ``None`` is a no-op."""
        if span is None:
            return
        span.end()
        line = None
        if self.export_path is not None:
            line = json.dumps(span.to_dict(), sort_keys=True)
        with self._lock:
            self.spans_finished += 1
            self._buffer.append(span)
        if line is not None:
            with self._io_lock:
                if self._export_fh is None:
                    self._export_fh = open(
                        self.export_path, "a", encoding="utf-8", buffering=1
                    )
                self._export_fh.write(line + "\n")

    def close(self) -> None:
        """Flush and close the export handle (idempotent)."""
        with self._io_lock:
            if self._export_fh is not None:
                self._export_fh.close()
                self._export_fh = None

    def recent(self, n: Optional[int] = None) -> List[TraceSpan]:
        """The most recent finished root spans, oldest first."""
        with self._lock:
            spans = list(self._buffer)
        return spans if n is None else spans[-n:]

    def find_trace(self, trace_id: str) -> Optional[TraceSpan]:
        """The buffered root span with this trace id, if still retained."""
        with self._lock:
            for span in reversed(self._buffer):
                if span.trace_id == trace_id:
                    return span
        return None


def render_span(span: TraceSpan, indent: int = 0) -> str:
    """Human-readable rendering of a span tree with per-span timings."""
    pad = "  " * indent
    duration = span.duration_s
    timing = f"{duration * 1000:9.3f} ms" if duration is not None else "  (open)  "
    attrs = ""
    if span.attrs:
        parts = ", ".join(f"{k}={v}" for k, v in span.attrs.items())
        attrs = f"  [{parts}]"
    head = f"{pad}{timing}  {span.name}{attrs}"
    lines = [head]
    for child in span.children:
        lines.append(render_span(child, indent + 1))
    return "\n".join(lines)
