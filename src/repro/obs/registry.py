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

__all__ = ["MetricsRegistry", "REGISTRY", "inc", "counter",
           "SPAWNS_COUNTER", "SEGMENTS_COUNTER"]

#: The distributed rail's two setup counters: rank processes started
#: (:mod:`repro.dist.procmpi`) and shared-memory segments created by
#: this process's pools (:mod:`repro.dist.shm`).  Deterministic for a
#: fixed call sequence, so tests assert setup amortisation without a
#: clock.  Named here so that reading them (a service's baseline) does
#: not import the rail that bumps them.
SPAWNS_COUNTER = "procmpi.process_spawns"
SEGMENTS_COUNTER = "shm.segment_creates"


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

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """A point-in-time copy: ``{"counters": {...}, "gauges": {...}}``."""
        with self._lock:
            return {"counters": dict(self._counters),
                    "gauges": dict(self._gauges)}


#: The process-wide registry.
REGISTRY = MetricsRegistry()


def inc(name: str, n: float = 1) -> float:
    """Bump a counter on the process-wide registry."""
    return REGISTRY.inc(name, n)


def counter(name: str, default: float = 0) -> float:
    """Read a counter from the process-wide registry."""
    return REGISTRY.counter(name, default)
