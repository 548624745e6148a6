"""Typed metrics: counters, gauges, and fixed-bucket histograms.

Every layer of the stack (belief store, derivation engine,
authorization protocol, coalition server, service) used to
report counters through its own ad-hoc ``stats()`` dict.  This module
is the unified substrate those dicts now sit on: each component owns a
:class:`MetricsRegistry`, hot paths increment :class:`Counter` /
observe into :class:`Histogram` objects directly (no name lookup per
event), and ``stats()`` remains a thin *view* reading the same
registry values — callers of the old dicts never notice.

Snapshots are plain dicts with a stable, versioned schema
(:data:`SCHEMA`), so they serialize to JSON directly and merge across
layers and runs deterministically:

* counters merge by **sum** (monotonic event counts),
* gauges merge by **sum** (per-run sizes add up; shared-structure
  gauges such as the global nonce ledger are reported once, at the
  layer that owns the structure),
* histograms merge by **pointwise bucket sum** and require identical
  bucket bounds (mismatched bounds raise rather than silently skew).

Registries are not themselves synchronized: hot-path owners already
hold their own locks (the service's protocol and admission locks),
and a snapshot taken while submitters run is weakly consistent —
quiesce (``drain()``) first when exact totals matter.
"""

from __future__ import annotations

from bisect import bisect_left
from math import ceil
from typing import Dict, Sequence, Tuple

__all__ = [
    "SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "validate_snapshot",
    "histogram_quantile",
    "DEFAULT_LATENCY_BUCKETS_S",
]

SCHEMA = "repro.metrics/v1"

# Upper bounds (seconds) for latency histograms: ~100us to 10s, with an
# implicit +inf bucket.  Fixed so cross-layer and cross-run merges line up.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str, initial: int = 0):
        self.name = name
        self._value = initial

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += n

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A point-in-time level (queue depth, cache size, ...)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str, initial: float = 0):
        self.name = name
        self._value = initial

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self._value})"


class Histogram:
    """A fixed-bucket distribution (cumulative-free, per-bucket counts).

    ``bounds`` are ascending upper bounds; observations above the last
    bound land in an implicit overflow bucket, so ``len(counts) ==
    len(bounds) + 1``.  Bounds are fixed at construction: merges across
    layers and runs are exact pointwise sums, never re-binned.
    """

    __slots__ = ("name", "bounds", "_counts", "_sum", "_count")

    def __init__(self, name: str, bounds: Sequence[float]):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be non-empty and ascending")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile observation.

        A conservative (over-)estimate by construction; the overflow
        bucket reports the last finite bound.  0.0 when empty.
        """
        if self._count == 0:
            return 0.0
        if not 0 <= q <= 1:
            raise ValueError("quantile q must be in [0, 1]")
        # Deterministic nearest-rank (ceil), matching scenarios.percentile.
        rank = max(1, ceil(q * self._count))
        seen = 0
        for i, c in enumerate(self._counts):
            seen += c
            if seen >= rank:
                return self.bounds[min(i, len(self.bounds) - 1)]
        return self.bounds[-1]  # pragma: no cover - unreachable

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}, n={self._count})"


class MetricsRegistry:
    """A namespace of typed metrics with deterministic snapshots.

    ``namespace`` prefixes every metric name in the snapshot
    (``service.submitted``), so snapshots from different layers merge
    without collisions while same-layer snapshots from different
    runs merge by summing.
    """

    def __init__(self, namespace: str = ""):
        self.namespace = namespace
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------ registration

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = self._histograms[name] = Histogram(name, bounds)
        elif metric.bounds != tuple(bounds):
            raise ValueError(
                f"histogram {name!r} re-registered with different bounds"
            )
        return metric

    def _check_fresh(self, name: str) -> None:
        for table in (self._counters, self._gauges, self._histograms):
            if name in table:
                raise ValueError(
                    f"metric name {name!r} already registered as another type"
                )

    # ------------------------------------------------------------- forks

    def fork(self) -> "MetricsRegistry":
        """A clone carrying the current values, diverging afterwards.

        Backs protocol/engine/store forks (epoch snapshots): cumulative
        counters carry over so per-request deltas stay meaningful on
        the fork, exactly as the ad-hoc int counters used to.
        """
        clone = MetricsRegistry(self.namespace)
        for name, counter in self._counters.items():
            clone._counters[name] = Counter(name, counter.value)
        for name, gauge in self._gauges.items():
            clone._gauges[name] = Gauge(name, gauge.value)
        for name, hist in self._histograms.items():
            new = Histogram(name, hist.bounds)
            new._counts = list(hist._counts)
            new._sum = hist._sum
            new._count = hist._count
            clone._histograms[name] = new
        return clone

    # --------------------------------------------------------- snapshots

    def _qualified(self, name: str) -> str:
        return f"{self.namespace}.{name}" if self.namespace else name

    def snapshot(self) -> Dict[str, object]:
        """The registry as a stable, JSON-ready dict (sorted keys)."""
        return {
            "schema": SCHEMA,
            "counters": {
                self._qualified(n): c.value
                for n, c in sorted(self._counters.items())
            },
            "gauges": {
                self._qualified(n): g.value
                for n, g in sorted(self._gauges.items())
            },
            "histograms": {
                self._qualified(n): {
                    "bounds": list(h.bounds),
                    "counts": list(h._counts),
                    "sum": h._sum,
                    "count": h._count,
                }
                for n, h in sorted(self._histograms.items())
            },
        }

    @staticmethod
    def merge(snapshots: Sequence[Dict[str, object]]) -> Dict[str, object]:
        """Combine snapshots (e.g. one per layer) into one.

        Counters and gauges sum; histograms sum pointwise and must
        agree on bucket bounds.  Deterministic: the result depends only
        on the multiset of inputs, not their order.
        """
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, object]] = {}
        for snap in snapshots:
            validate_snapshot(snap)
            for name, value in snap["counters"].items():
                counters[name] = counters.get(name, 0) + value
            for name, value in snap["gauges"].items():
                gauges[name] = gauges.get(name, 0) + value
            for name, hist in snap["histograms"].items():
                existing = histograms.get(name)
                if existing is None:
                    histograms[name] = {
                        "bounds": list(hist["bounds"]),
                        "counts": list(hist["counts"]),
                        "sum": hist["sum"],
                        "count": hist["count"],
                    }
                    continue
                if existing["bounds"] != list(hist["bounds"]):
                    raise ValueError(
                        f"cannot merge histogram {name!r}: bucket bounds differ"
                    )
                existing["counts"] = [
                    a + b for a, b in zip(existing["counts"], hist["counts"])
                ]
                existing["sum"] += hist["sum"]
                existing["count"] += hist["count"]
        return {
            "schema": SCHEMA,
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }


def histogram_quantile(hist: Dict[str, object], q: float) -> float:
    """Quantile estimate from a *snapshot* histogram dict.

    Same conservative bucket-upper-bound, nearest-rank definition as
    :meth:`Histogram.quantile`, but computed from the serialized
    ``{bounds, counts, count}`` form — what benchmark summaries and the
    chaos harness read back out of a merged :meth:`MetricsRegistry.merge`
    snapshot.  0.0 when the histogram is empty.
    """
    if not 0 <= q <= 1:
        raise ValueError("quantile q must be in [0, 1]")
    bounds = hist["bounds"]
    counts = hist["counts"]
    total = hist["count"]
    if total == 0:
        return 0.0
    rank = max(1, ceil(q * total))
    seen = 0
    for i, c in enumerate(counts):
        seen += c
        if seen >= rank:
            return bounds[min(i, len(bounds) - 1)]
    return bounds[-1]  # pragma: no cover - count > sum(counts) only


def validate_snapshot(snapshot: Dict[str, object]) -> None:
    """Raise ValueError unless ``snapshot`` matches the documented schema.

    The schema the bench smoke and the ``metrics`` CLI subcommand pin:

    * ``schema`` == :data:`SCHEMA`
    * ``counters``: str -> int (non-negative)
    * ``gauges``: str -> int | float
    * ``histograms``: str -> {bounds: [float...], counts: [int...],
      sum: float, count: int} with ``len(counts) == len(bounds) + 1``
      and ``count == sum(counts)``
    """
    if not isinstance(snapshot, dict):
        raise ValueError("snapshot must be a dict")
    if snapshot.get("schema") != SCHEMA:
        raise ValueError(f"snapshot schema is not {SCHEMA!r}")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(snapshot.get(section), dict):
            raise ValueError(f"snapshot section {section!r} missing or not a dict")
    for name, value in snapshot["counters"].items():
        if not isinstance(name, str) or not isinstance(value, int) or value < 0:
            raise ValueError(f"counter {name!r} must map to a non-negative int")
    for name, value in snapshot["gauges"].items():
        if not isinstance(name, str) or not isinstance(value, (int, float)):
            raise ValueError(f"gauge {name!r} must map to a number")
    for name, hist in snapshot["histograms"].items():
        if not isinstance(hist, dict):
            raise ValueError(f"histogram {name!r} must be a dict")
        bounds = hist.get("bounds")
        counts = hist.get("counts")
        if not isinstance(bounds, list) or not all(
            isinstance(b, (int, float)) for b in bounds
        ):
            raise ValueError(f"histogram {name!r} bounds must be numbers")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} bounds must ascend")
        if not isinstance(counts, list) or not all(
            isinstance(c, int) and c >= 0 for c in counts
        ):
            raise ValueError(f"histogram {name!r} counts must be ints")
        if len(counts) != len(bounds) + 1:
            raise ValueError(
                f"histogram {name!r} needs len(bounds)+1 counts "
                f"(got {len(counts)} for {len(bounds)} bounds)"
            )
        if hist.get("count") != sum(counts):
            raise ValueError(f"histogram {name!r} count != sum(counts)")
        if not isinstance(hist.get("sum"), (int, float)):
            raise ValueError(f"histogram {name!r} sum must be a number")
