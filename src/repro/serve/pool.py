"""Worker-pool state: warm procmpi sessions, checked out per batch.

The service's worker *threads* are the pool slots; what actually costs
money to set up is the **procmpi session** behind a slot — rank
processes, shared-memory field blocks, halo rings (see
:class:`~repro.dist.solver.ProcSolverSession`).  :class:`SessionPool`
keeps those alive between jobs:

* ``acquire(job)`` hands the caller an exclusive warm session whose
  geometry matches the job (reuse), or builds one (cold start);
* ``release(session)`` returns it for the next batch —
  or closes and drops it when the solve failed (sessions are crash-only,
  like the :class:`~repro.dist.procmpi.ProcWorld` underneath);
* at most ``max_sessions`` are kept warm; acquiring a new geometry when
  full evicts the least-recently-used idle session first.

Every session carries a pool-assigned stable id (``session.sid``) —
the identity straggler scores key on — and the pool is the policy
surface the monitor drives: :meth:`quarantine` marks a repeatedly
degraded session so it is closed instead of reused (idle ones
immediately, checked-out ones at release).  Quarantine is one-way; the
replacement for a quarantined session is simply the next cold start,
which is how crash-only recovery already works.

All counters (``created``, ``reused``, ``dropped``, ``evicted``,
``quarantined``) are deterministic for a fixed job sequence — the
throughput acceptance test asserts pool amortisation on them, never on
a wall clock.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Set

import numpy as np

from .job import SolveJob

if TYPE_CHECKING:
    from ..dist.solver import ProcSolverSession

__all__ = ["SessionPool"]


class SessionPool:
    """Exclusive check-out pool of warm :class:`ProcSolverSession`\\ s."""

    def __init__(self, max_sessions: int = 2,
                 start_method: Optional[str] = None,
                 timeout: Optional[float] = None) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = max_sessions
        self.start_method = start_method
        self.timeout = timeout
        self._idle: List[ProcSolverSession] = []  # LRU order: oldest first
        self._lock = threading.Lock()
        self._closed = False
        self._next_sid = 0
        self._quarantine: Set[int] = set()
        self.created = 0
        self.reused = 0
        self.dropped = 0
        self.evicted = 0
        self.quarantined = 0

    def acquire(self, job: SolveJob) -> ProcSolverSession:
        """An exclusive session able to run ``job`` (warm if possible)."""
        if not job.resolved:
            raise ValueError("cannot place an unresolved job")
        shape = job.grid.shape
        dtype = np.dtype(job.grid.dtype)
        halo = job.config.updates_per_pass
        evict: List[ProcSolverSession] = []
        try:
            with self._lock:
                if self._closed:
                    raise RuntimeError("session pool is closed")
                for i, session in enumerate(self._idle):
                    if session.compatible(shape, dtype, job.topology, halo):
                        self._idle.pop(i)
                        self.reused += 1
                        return session
                while len(self._idle) >= self.max_sessions:
                    evict.append(self._idle.pop(0))
                    self.evicted += 1
        finally:
            # Teardown joins rank processes (seconds for a wedged one) —
            # never do that while holding the pool lock.
            for session in evict:
                session.close()
        # Build outside the lock too: spawning ranks is the slow part
        # and other workers must keep serving meanwhile.
        from ..dist.solver import ProcSolverSession  # late: the rank rail

        session = ProcSolverSession(shape, dtype, job.topology, halo,
                                    start_method=self.start_method,
                                    timeout=self.timeout)
        with self._lock:
            session.sid = self._next_sid
            self._next_sid += 1
            self.created += 1
        return session

    def release(self, session: ProcSolverSession,
                broken: bool = False) -> None:
        """Return a session to the warm set, or drop a broken one.

        A quarantined session never re-enters the warm set: it is
        closed here, exactly like a broken one — the monitor's verdict
        and a crash take the same recovery path.
        """
        if broken or session.closed or self.is_quarantined(session.sid):
            session.close()
            with self._lock:
                self.dropped += 1
            return
        evict: List[ProcSolverSession] = []
        with self._lock:
            if self._closed:
                evict.append(session)
            else:
                self._idle.append(session)
                while len(self._idle) > self.max_sessions:
                    evict.append(self._idle.pop(0))
                    self.evicted += 1
        for s in evict:
            s.close()

    # -- straggler policy hooks ---------------------------------------------

    def quarantine(self, sid: int) -> bool:
        """Bar session ``sid`` from further reuse; True if newly barred.

        An idle session with that id is closed immediately; a
        checked-out one finishes its current job and is closed at
        :meth:`release` (its in-flight job is the speculative
        re-execution candidate — the monitor handles that side).
        """
        close: List[ProcSolverSession] = []
        with self._lock:
            if self._closed or sid in self._quarantine:
                return False
            self._quarantine.add(sid)
            self.quarantined += 1
            keep: List[ProcSolverSession] = []
            for session in self._idle:
                (close if session.sid == sid else keep).append(session)
            self._idle = keep
            self.dropped += len(close)
        for session in close:
            session.close()
        return True

    def is_quarantined(self, sid: int) -> bool:
        with self._lock:
            return sid in self._quarantine

    def info(self) -> Dict[str, object]:
        """A JSON-able snapshot for ``Service.health()``."""
        with self._lock:
            return {
                "max_sessions": self.max_sessions,
                "idle": sorted(s.sid for s in self._idle),
                "quarantined_sids": sorted(self._quarantine),
                "created": self.created,
                "reused": self.reused,
                "dropped": self.dropped,
                "evicted": self.evicted,
                "quarantined": self.quarantined,
            }

    def close(self) -> None:
        """Tear down every warm session (idempotent)."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for session in idle:
            session.close()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
