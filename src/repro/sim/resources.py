"""Fluid bandwidth resources with max–min fair sharing and per-flow caps.

The paper's performance model lives on two facts about shared data paths:

* a socket's memory bus saturates at ``Ms`` no matter how many cores pull
  on it, and
* one core alone cannot exceed ``Ms,1 < Ms``.

:class:`FlowResource` models exactly that: concurrently active transfers
share the capacity max–min fairly, each additionally clamped to its own
cap.  Rates are recomputed whenever a flow starts or finishes (fluid
approximation); completions are scheduled on the event engine.  The same
abstraction serves the shared-cache bandwidth ``Mc`` and the inter-socket
link.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .engine import Engine, Event

__all__ = ["Flow", "FlowResource", "waterfill_rates"]

_EPS = 1e-9  # bytes; flows below this are complete


def waterfill_rates(capacity: float, caps: List[float]) -> List[float]:
    """Max–min fair rates for flows with individual caps.

    Classic progressive filling: flows whose cap is below the current fair
    share get their cap; the remainder is re-divided among the rest.  The
    returned rates satisfy ``rate_i <= cap_i`` and ``sum(rate) <=
    capacity`` with equality when the caps allow (work conservation).
    """
    n = len(caps)
    if n == 0:
        return []
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    rates = [0.0] * n
    remaining = capacity
    active = sorted(range(n), key=lambda i: caps[i])
    k = len(active)
    for pos, i in enumerate(active):
        share = remaining / (k - pos)
        r = min(caps[i], share)
        rates[i] = r
        remaining -= r
    return rates


class Flow:
    """One transfer in flight on a :class:`FlowResource`."""

    __slots__ = ("nbytes", "remaining", "cap", "on_done", "rate", "started",
                 "finished", "label")

    def __init__(self, nbytes: float, cap: float,
                 on_done: Optional[Callable[[], None]], started: float,
                 label: str = "") -> None:
        self.nbytes = nbytes
        self.remaining = nbytes
        self.cap = cap
        self.on_done = on_done
        self.rate = 0.0
        self.started = started
        self.finished: Optional[float] = None
        self.label = label


class FlowResource:
    """A shared data path (memory bus, shared cache, inter-socket link)."""

    def __init__(self, engine: Engine, capacity: float, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.engine = engine
        self.capacity = float(capacity)
        self.name = name
        self._flows: List[Flow] = []
        self._last_update = engine.now
        self._completion_event: Optional[Event] = None
        self.total_bytes = 0.0
        self.busy_time = 0.0

    # -- public API -------------------------------------------------------------

    def start(self, nbytes: float, cap: Optional[float] = None,
              on_done: Optional[Callable[[], None]] = None,
              label: str = "") -> Flow:
        """Begin a transfer of ``nbytes``; ``on_done`` fires at completion.

        Zero-byte transfers complete immediately (the callback still runs
        through the engine so ordering stays deterministic).
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        flow = Flow(nbytes, cap if cap is not None else self.capacity,
                    on_done, self.engine.now, label)
        if nbytes <= _EPS:
            flow.finished = self.engine.now
            if on_done is not None:
                self.engine.schedule(0.0, on_done)
            return flow
        self._advance()
        self._flows.append(flow)
        self.total_bytes += nbytes
        self._rerate()
        return flow

    # -- internals ---------------------------------------------------------------

    def _advance(self) -> None:
        """Progress all flows from the last update to now."""
        now = self.engine.now
        dt = now - self._last_update
        if dt > 0 and self._flows:
            for f in self._flows:
                f.remaining -= f.rate * dt
            if any(f.rate > 0 for f in self._flows):
                self.busy_time += dt
        self._last_update = now

    def _rerate(self) -> None:
        """Recompute fair rates and (re)schedule the next completion."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self._flows:
            return
        rates = waterfill_rates(self.capacity, [f.cap for f in self._flows])
        for f, r in zip(self._flows, rates):
            f.rate = r
        horizon = min(
            (f.remaining / f.rate) for f in self._flows if f.rate > 0
        )
        self._completion_event = self.engine.schedule(max(horizon, 0.0),
                                                      self._on_completion)

    def _on_completion(self) -> None:
        self._completion_event = None
        self._advance()
        # A flow is complete when its residue is negligible in bytes OR
        # when finishing it would advance time by less than one ulp of the
        # current clock — otherwise the rescheduled horizon underflows the
        # float timeline and the event loop spins at a frozen timestamp.
        tol_t = self.engine.now * 1e-12 + 1e-18
        done = [f for f in self._flows
                if f.remaining <= max(_EPS * max(1.0, f.nbytes),
                                      f.rate * tol_t)]
        self._flows = [f for f in self._flows if f not in done]
        for f in done:
            f.remaining = 0.0
            f.rate = 0.0
            f.finished = self.engine.now
        self._rerate()
        for f in done:
            if f.on_done is not None:
                f.on_done()
