"""The service's queue: priority order, sharding, batch formation.

One :class:`JobQueue` feeds every worker.  Jobs are *sharded* across
pool slots by the workers pulling from it (work stealing: an idle slot
takes the next runnable batch, so a slow solve never blocks the queue
behind it).  Jobs pop in ``(-priority, submission order)`` — higher
priority first, FIFO within a priority.

Batching
--------
:meth:`JobQueue.pop_batch` returns not one entry but a **batch**: the
head-of-queue entry plus any queued *compatible small* jobs — same
session geometry (backend class, grid shape, dtype, topology, halo) and
a field below ``batch_bytes`` — up to ``batch_limit``.  A batch runs
back-to-back on one worker slot, which for the procmpi backend means
every member reuses the slot's warm :class:`ProcSolverSession` with
zero per-job setup; that amortisation is the entire point.  Large jobs
are never batched (they would serialise behind each other for no
setup saving worth the latency).
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field as dc_field
from typing import List, Optional, Tuple

import numpy as np

from .futures import SolveFuture
from .job import SolveJob

__all__ = ["Entry", "JobQueue", "session_signature"]


def session_signature(job: SolveJob) -> Tuple:
    """What two jobs must share to ride one warm worker-pool slot.

    For the distributed backends this is exactly the
    :class:`~repro.dist.solver.ProcSolverSession` compatibility key;
    ``halo`` is derived from the resolved config (``n·t·T``), so only
    resolved jobs can be signed.
    """
    if not job.resolved:
        raise ValueError("cannot sign an unresolved job")
    if job.backend == "shared":
        return ("shared", job.grid.shape, str(np.dtype(job.grid.dtype)))
    return (job.backend, job.grid.shape, str(np.dtype(job.grid.dtype)),
            job.topology, job.config.updates_per_pass)


@dataclass(eq=False)
class Entry:
    """One queued unit of work: a resolved job plus its waiters.

    ``futures`` grows when identical submissions are coalesced onto the
    in-flight entry; completion fans the one result (or exception) out
    to every waiter.

    The timestamp/speculation fields are monitor bookkeeping (all
    mutated under the service lock): ``t_queued``/``t_started`` feed the
    queue-wait and service-time histograms; when the monitor re-queues a
    stuck entry, ``speculated`` marks it, the *second* pop claims
    ``spec_claimed`` (identifying itself as the duplicate execution) and
    ``settled`` makes completion first-wins — the losing execution of a
    speculated pair discards its (bit-identical) result.
    """

    job: SolveJob
    key: Optional[str]  # content key; None for uncacheable jobs
    futures: List[SolveFuture] = dc_field(default_factory=list)
    t_queued: float = 0.0
    t_started: float = 0.0
    speculated: bool = False
    spec_claimed: bool = False
    settled: bool = False


class JobQueue:
    """Thread-safe priority queue with batch popping."""

    def __init__(self, batch_limit: int = 8,
                 batch_bytes: int = 4 << 20) -> None:
        if batch_limit < 1:
            raise ValueError("batch_limit must be >= 1")
        self.batch_limit = batch_limit
        self.batch_bytes = batch_bytes
        self._heap: List[Tuple[int, int, Entry]] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    def push(self, entry: Entry) -> None:
        with self._not_empty:
            if self._closed:
                raise RuntimeError("queue is closed")
            heapq.heappush(self._heap,
                           (-entry.job.priority, next(self._seq), entry))
            self._not_empty.notify()

    def _small(self, entry: Entry) -> bool:
        return entry.job.field.nbytes <= self.batch_bytes

    def pop_batch(self, timeout: Optional[float] = None,
                  ) -> Optional[List[Entry]]:
        """The next batch, or None when closed (or timed out) and empty.

        Blocks until an entry is available.  The head entry always pops
        alone unless it is *small*; compatible small entries then join
        it regardless of their queue position (they would have run on
        this slot's geometry anyway — pulling them forward is the
        scheduling half of batching).
        """
        with self._not_empty:
            while not self._heap:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return None
            _, _, head = heapq.heappop(self._heap)
            batch = [head]
            if self._small(head) and self.batch_limit > 1:
                sig = session_signature(head.job)
                keep: List[Tuple[int, int, Entry]] = []
                while self._heap and len(batch) < self.batch_limit:
                    item = heapq.heappop(self._heap)
                    entry = item[2]
                    if (self._small(entry)
                            and session_signature(entry.job) == sig):
                        batch.append(entry)
                    else:
                        keep.append(item)
                for item in keep:
                    heapq.heappush(self._heap, item)
            return batch

    def close(self) -> None:
        """Wake every popper; subsequent pushes fail."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed
