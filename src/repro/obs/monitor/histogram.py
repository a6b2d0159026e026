"""Deterministic fixed-bucket latency histograms (SLO quantiles).

The monitor's latency distributions are *fixed-bucket* histograms: the
bucket boundaries are a compile-time constant ladder, never adapted to
the data.  That buys the property the test suite and the perf gates
lean on: a histogram is a pure function of the observation sequence —
replaying the same observations produces bit-identical bucket counts,
sums and quantile reports on any host and any Python version (no
rebalancing, no sampling, no randomized sketches à la t-digest).

Quantiles are reported as the **upper edge of the bucket containing the
quantile rank** (the overflow bucket reports the observed maximum) —
the standard Prometheus-style histogram_quantile answer, deterministic
by construction.  Exactness is bounded by bucket resolution, which is
the documented trade for replayable CI gates.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["DEFAULT_LATENCY_BOUNDS", "FixedHistogram"]

#: Upper bucket edges in seconds: a 1-2.5-5 ladder from 1 µs to 60 s.
#: Wide enough for queue waits (µs) and limplocked solves (tens of s);
#: an implicit +Inf bucket catches everything beyond.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)


class FixedHistogram:
    """A thread-safe histogram over a fixed ladder of bucket edges.

    ``bounds`` are the finite upper edges (inclusive, ascending); one
    extra overflow bucket covers ``(bounds[-1], +inf)``.  All state is
    integers and exact float sums, so two histograms fed the same
    sequence compare equal field-for-field.
    """

    def __init__(self, name: str, unit: str = "s",
                 bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS) -> None:
        edges = tuple(float(b) for b in bounds)
        if not edges or any(nxt <= prev
                            for prev, nxt in zip(edges, edges[1:])):
            raise ValueError("bounds must be non-empty and strictly ascending")
        self.name = name
        self.unit = unit
        self.bounds = edges
        self._counts = [0] * (len(edges) + 1)  # last = overflow
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def record(self, value: float) -> None:
        """Count one observation (``value`` in :attr:`unit`)."""
        v = float(value)
        # bisect by hand: the ladder is ~24 entries, and an explicit loop
        # keeps the bucket rule ("first edge >= value") in one place.
        idx = len(self.bounds)
        for i, edge in enumerate(self.bounds):
            if v <= edge:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._sum += v
            if v < self._min:
                self._min = v
            if v > self._max:
                self._max = v

    # -- reading -------------------------------------------------------------

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self._counts)

    @property
    def total(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """The upper edge of the bucket holding the ``q``-quantile rank.

        ``q`` in [0, 1].  Empty histogram → 0.0.  Ranks landing in the
        overflow bucket report the observed maximum (the tightest
        deterministic upper bound available).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            n = sum(self._counts)
            if n == 0:
                return 0.0
            rank = max(1, math.ceil(q * n))
            cum = 0
            for i, c in enumerate(self._counts):
                cum += c
                if cum >= rank:
                    if i < len(self.bounds):
                        return self.bounds[i]
                    return self._max
            return self._max  # pragma: no cover - rank <= n always hits

    def percentiles(self) -> Dict[str, float]:
        """The monitor's SLO report: ``{"p50": ..., "p95": ..., "p99": ...}``."""
        return {"p50": self.quantile(0.50),
                "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}

    def bucket_counts(self) -> List[int]:
        """Per-bucket counts (finite buckets then overflow), a copy."""
        with self._lock:
            return list(self._counts)

    def snapshot(self) -> Dict[str, object]:
        """Everything, as plain JSON-able types (health exports, tests)."""
        with self._lock:
            n = sum(self._counts)
            counts = list(self._counts)
            total = self._sum
            vmin: Optional[float] = self._min if n else None
            vmax: Optional[float] = self._max if n else None
        snap: Dict[str, object] = {
            "name": self.name, "unit": self.unit,
            "bounds": list(self.bounds), "counts": counts,
            "count": n, "sum": total, "min": vmin, "max": vmax,
        }
        snap.update(self.percentiles())
        return snap
