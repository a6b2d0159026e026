"""The metrics registry: named monotonic counters and gauges.

Where :class:`~repro.obs.tracer.Tracer` answers "where did *this
solve's* time go", the registry answers "what has *this process* done":
rank-process spawns, shared-memory segment creations, cache
hits/misses/evictions, queue depths.  Before this module those were
one-off module globals scattered over :mod:`repro.dist.procmpi`,
:mod:`repro.dist.shm` and :mod:`repro.serve.cache`; they now all route
through here, under names those modules export.

Counters are **events, not seconds** — deterministic for a fixed
workload on any host, which is what lets the perf harness and the test
suite gate on them.  The module-level :data:`REGISTRY` is the
process-wide default; components that need isolated numbers (each
:class:`~repro.serve.service.Service`, each
:class:`~repro.serve.cache.ResultCache`) own private
:class:`MetricsRegistry` instances and *additionally* mirror into the
global one.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["MetricsRegistry", "REGISTRY", "inc", "set_gauge", "counter",
           "gauge", "snapshot"]


class MetricsRegistry:
    """A thread-safe bag of named monotonic counters and gauges."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}

    def inc(self, name: str, n: float = 1) -> float:
        """Add ``n`` to counter ``name``; returns the new value."""
        with self._lock:
            value = self._counters.get(name, 0) + n
            self._counters[name] = value
            return value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def counter(self, name: str, default: float = 0) -> float:
        with self._lock:
            return self._counters.get(name, default)

    def gauge(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._gauges.get(name, default)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """A point-in-time copy: ``{"counters": {...}, "gauges": {...}}``."""
        with self._lock:
            return {"counters": dict(self._counters),
                    "gauges": dict(self._gauges)}

    def reset(self) -> None:
        """Drop everything (tests only — counters are monotonic in use)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()


#: The process-wide registry.
REGISTRY = MetricsRegistry()


def inc(name: str, n: float = 1) -> float:
    """Bump a counter on the process-wide registry."""
    return REGISTRY.inc(name, n)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the process-wide registry."""
    REGISTRY.set_gauge(name, value)


def counter(name: str, default: float = 0) -> float:
    """Read a counter from the process-wide registry."""
    return REGISTRY.counter(name, default)


def gauge(name: str, default: float = 0.0) -> float:
    """Read a gauge from the process-wide registry."""
    return REGISTRY.gauge(name, default)


def snapshot() -> Dict[str, Dict[str, float]]:
    """Snapshot the process-wide registry."""
    return REGISTRY.snapshot()
