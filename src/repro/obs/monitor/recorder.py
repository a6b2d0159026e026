"""The flight recorder: a bounded ring of recent per-job traces.

Global ``trace=True`` is the wrong tool for production diagnosis — it
must be on *before* the interesting job runs, and keeping it on forever
grows without bound.  The flight recorder inverts that: when enabled,
the service traces **every** job into a ring that only ever holds the
last N merged traces, so "why was that job slow five seconds ago?" is
answerable after the fact at a fixed memory cost.  A record's trace
goes to Perfetto through :func:`repro.obs.write_chrome_trace`.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from ..tracer import Trace

__all__ = ["FlightRecord", "FlightRecorder"]


@dataclass(frozen=True)
class FlightRecord:
    """One completed job's timeline plus the context to find it again."""

    #: Monotonically increasing record number (never reused; survives
    #: ring eviction, so CLI references stay unambiguous).
    seq: int
    #: ``SolveJob.describe()`` — human-readable job identity.
    label: str
    #: Content key of the job (None for uncacheable jobs).
    key: Optional[str]
    #: Service time of the recorded execution, seconds.
    wall_s: float
    #: Worker that executed it (e.g. ``session-3``).
    worker: str
    #: ``ok`` | ``error`` | ``speculated`` (the winning duplicate).
    status: str
    #: The merged timeline (driver + every rank for procmpi jobs).
    trace: Trace


class FlightRecorder:
    """Keep the last ``capacity`` job traces; memory-bounded by design."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("recorder capacity must be >= 1")
        self._records: Deque[FlightRecord] = deque(maxlen=capacity)
        self._seq = 0
        self._lock = threading.Lock()

    @property
    def recorded(self) -> int:
        """Total jobs ever recorded (including evicted ones)."""
        return self._seq

    def record(self, label: str, trace: Trace, wall_s: float,
               worker: str = "", key: Optional[str] = None,
               status: str = "ok") -> FlightRecord:
        with self._lock:
            rec = FlightRecord(seq=self._seq, label=label, key=key,
                               wall_s=float(wall_s), worker=worker,
                               status=status, trace=trace)
            self._seq += 1
            self._records.append(rec)
        return rec

    def records(self) -> List[FlightRecord]:
        """Retained records, oldest first."""
        with self._lock:
            return list(self._records)

    def slowest(self, n: int = 1) -> List[FlightRecord]:
        """The ``n`` slowest retained jobs, slowest first."""
        return sorted(self.records(),
                      key=lambda r: (-r.wall_s, r.seq))[:max(0, n)]
