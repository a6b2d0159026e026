"""Minimal discrete-event engine for the performance rail.

A binary-heap event queue with cancellable handles — deliberately tiny,
fully deterministic (ties broken by insertion order), and fast enough for
the tens of thousands of block operations a full Fig. 3 run schedules.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

__all__ = ["Event", "Engine"]


class Event:
    """Handle to a scheduled callback; ``cancel()`` prevents execution."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Drop the event; safe to call multiple times or after firing."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Engine:
    """Deterministic event loop with virtual time in seconds."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: List[Event] = []
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at absolute virtual time ``time`` (>= now)."""
        if time < self._now - 1e-15:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        ev = Event(max(time, self._now), self._seq, callback)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Process events (optionally up to virtual time ``until``).

        Returns the final virtual time.  ``max_events`` is a runaway guard;
        hitting it raises rather than spinning forever.
        """
        processed = 0
        while self._heap:
            ev = self._heap[0]
            if ev.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and ev.time > until:
                self._now = until
                return self._now
            heapq.heappop(self._heap)
            self._now = ev.time
            ev.callback()
            self.events_processed += 1
            processed += 1
            if processed > max_events:
                raise RuntimeError(
                    f"event budget exhausted ({max_events}); "
                    "likely a livelock in the simulation"
                )
        if until is not None and until > self._now:
            self._now = until
        return self._now
