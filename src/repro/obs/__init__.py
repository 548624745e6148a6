"""repro.obs — the unified observability layer: metrics + decision traces.

Two halves, one purpose — making every authorization decision
*explainable and measurable* at serving scale:

* ``metrics``: :class:`MetricsRegistry` with typed counters, gauges and
  fixed-bucket histograms; deterministic ``snapshot()`` (stable JSON
  schema ``repro.metrics/v1``) and cross-layer ``merge()``.  The five
  formerly ad-hoc ``stats()`` dicts (belief store, derivation engine,
  authorization protocol, coalition server, service) are views
  over these registries now.
* ``trace``: per-request :class:`TraceSpan` trees threaded from service
  admission through queue wait, epoch pin, derivation (axiom names +
  proof-step counts) to audit append — zero-cost when disabled, JSONL
  export and an in-memory ring when enabled.

See DESIGN.md §10 for the architecture.
"""

from .metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    validate_snapshot,
)
from .trace import Tracer, TraceSpan, render_span

__all__ = [
    "SCHEMA",
    "DEFAULT_LATENCY_BUCKETS_S",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "validate_snapshot",
    "Tracer",
    "TraceSpan",
    "render_span",
]
