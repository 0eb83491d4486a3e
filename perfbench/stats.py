"""Sample accounting shared by every workload: percentiles and tallies.

Kept free of numpy and of the program under test so the self-test can pin
its behaviour exactly (``selftest.py``).
"""

from __future__ import annotations

import math
import threading
from collections import Counter


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Matches ``numpy.percentile(values, q)`` (method ``linear``).  Raises on
    an empty sample: a percentile of nothing is a benchmark bug, not zero.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    position = (len(data) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def beyond(n_samples: int, q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile's rank."""
    return n_samples - 1 - math.floor((n_samples - 1) * q / 100.0)


def percentile_or_zero(values, q: float, scale: float = 1.0) -> float:
    """``percentile(values, q) * scale``, or 0 for an empty sample.

    For layers and endpoints a run may never call: their work reads as 0.
    """
    return percentile(values, q) * scale if len(values) else 0.0


def summarize(values, *, scale: float = 1.0) -> dict[str, float]:
    """Median, p99 and count of a latency sample (times ``scale``; 0 when empty)."""
    data = list(values)
    return {"n": len(data), "p50": percentile_or_zero(data, 50, scale),
            "p99": percentile_or_zero(data, 99, scale)}


class Tally:
    """Thread-safe accounting of one load phase.

    Every attempted operation ends in exactly one of :meth:`ok` or
    :meth:`fail`; a failed operation contributes no latency sample but is
    counted against ``attempted`` (it misses every latency limit).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.failures: Counter[str] = Counter()
        self.latency_s: dict[str, list[float]] = {}
        self.events: Counter[str] = Counter()

    def ok(self, endpoint: str, latency_s: float) -> None:
        """Record one correct, successful operation."""
        with self._lock:
            self.attempted += 1
            self.latency_s.setdefault(endpoint, []).append(latency_s)

    def fail(self, endpoint: str, reason: str) -> None:
        """Record one failed operation with a short reason slug."""
        with self._lock:
            self.attempted += 1
            self.failed += 1
            self.failures[f"{endpoint}:{reason}"] += 1

    def note(self, event: str) -> None:
        """Count a non-failure event (degraded answer, version skew, ...)."""
        with self._lock:
            self.events[event] += 1

    def samples(self, endpoint: str) -> list[float]:
        """The latency samples (seconds) of one endpoint."""
        with self._lock:
            return list(self.latency_s.get(endpoint, ()))
