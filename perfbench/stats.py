"""Small measurement helpers shared by ``run.py`` and the launcher."""

from __future__ import annotations

import gc
import os
import time
from math import ceil
from typing import Dict, List, Optional, Sequence

MIN_BEYOND = 10  # a reported percentile needs this many samples beyond it


class TooFewSamples(ValueError):
    """A tail percentile was asked of too few samples to report it."""


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie past the nearest-rank q-quantile."""
    return n - max(1, ceil(q * n))


def percentile(values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank q-quantile (``q`` in (0, 1]) of unsorted ``values``.

    Refuses (:class:`TooFewSamples`) when fewer than ``min_beyond``
    samples lie beyond it: such a tail is set by a handful of samples
    and does not repeat from run to run.
    """
    if not 0 < q <= 1:
        raise ValueError(f"q must be a fraction in (0, 1], got {q}")
    n = len(values)
    beyond = samples_beyond(n, q) if n else 0
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"need {min_beyond}"
        )
    return sorted(values)[max(1, ceil(q * n)) - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5, min_beyond=0)


def histogram_quantile(hist: Dict[str, list], q: float) -> float:
    """Upper bound of the bucket holding the q-quantile (0 when empty)."""
    counts = hist["counts"]
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = max(1, ceil(q * total))
    seen = 0
    bounds = hist["bounds"]
    for i, count in enumerate(counts):
        seen += count
        if seen >= rank:
            return bounds[min(i, len(bounds) - 1)]
    return bounds[-1]


def _status_mb(pid, key: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {key} for pid {pid}")


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size of process ``pid`` (``VmHWM``), in MB."""
    return _status_mb(pid, "VmHWM")


def rss_mb() -> float:
    """Resident set size of this process now (``VmRSS``), in MB."""
    return _status_mb("self", "VmRSS")


def cpu_seconds() -> float:
    """User + system CPU time of this process so far."""
    times = os.times()
    return times.user + times.system


def process_cpu_s(pid: int) -> float:
    """User + system CPU time of process ``pid`` so far, all threads."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of the line; the split above
    # starts at field 3.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class GcObserver:
    """Records collector pauses through ``gc.callbacks``, per bucket.

    Pauses are filed under :attr:`bucket` (a phase name) and dropped
    while it is ``None``.
    """

    def __init__(self):
        self.bucket: Optional[str] = None
        self._start = 0.0
        self._gen2: Dict[str, List[float]] = {}
        self._total: Dict[str, float] = {}
        gc.callbacks.append(self._callback)

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        bucket = self.bucket
        if bucket is None:
            return
        pause = time.perf_counter() - self._start
        self._total[bucket] = self._total.get(bucket, 0.0) + pause
        if info.get("generation") == 2:
            self._gen2.setdefault(bucket, []).append(pause)

    def snapshot(self, bucket: str) -> Dict[str, float]:
        pauses = self._gen2.get(bucket, [])
        return {
            "gen2_count": len(pauses),
            "gen2_max_ms": max(pauses, default=0.0) * 1e3,
            "pause_total_ms": self._total.get(bucket, 0.0) * 1e3,
        }
