"""Clock and sampling primitives for the live monitor.

Two deliberately tiny pieces:

* :func:`monotime` — **the** monotonic clock of the serving layer.  The
  ``no-naked-perf-counter`` lint rule bans direct ``time.perf_counter()``
  timing everywhere under ``repro.serve`` and ``repro.obs`` (ad-hoc
  timing is how unsampled, unexported latencies accumulate); this module
  and :mod:`repro.obs.tracer` are the allowlisted clock primitives all
  other code must route through.
* :class:`Ring` — a bounded, thread-safe ring buffer.  Everything the
  monitor retains (registry snapshots, flight-recorder traces) lives in
  rings so a service that runs for weeks holds a constant amount of
  monitoring state.

:class:`Sample` is one timestamped registry snapshot; the monitor's
rings are rings of these.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, TypeVar

__all__ = ["monotime", "Ring", "Sample"]

T = TypeVar("T")


def monotime() -> float:
    """Seconds on the process-local monotonic clock.

    The single sanctioned ``time.perf_counter`` call site of the
    serving/observability layers (with the Tracer's span clock); see the
    ``no-naked-perf-counter`` lint rule.
    """
    return time.perf_counter()


@dataclass(frozen=True)
class Sample:
    """One point-in-time registry snapshot, stamped with :func:`monotime`."""

    t: float
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)


class Ring:
    """A thread-safe bounded ring: push evicts the oldest past capacity."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.capacity = capacity
        self._items: Deque[T] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: Total pushes ever (items seen, not items retained).
        self.pushed = 0

    def push(self, item: T) -> None:
        with self._lock:
            self._items.append(item)
            self.pushed += 1

    def items(self) -> List[T]:
        """Oldest-to-newest copy of the retained items."""
        with self._lock:
            return list(self._items)
