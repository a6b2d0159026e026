"""Futures for the solve service.

:class:`SolveFuture` is deliberately smaller than
:class:`concurrent.futures.Future`: the service owns the producer side
(settling is first-completion-wins, which is all the arbitration
speculative re-execution needs), and consumers get exactly
the four things they need — block on :meth:`result`, inspect
:meth:`exception`, poll :meth:`done`, and :meth:`cancel` a job that has
not started.  Two flags carry the service's provenance: ``cache_hit``
(resolved from the content-addressed cache, no backend ran) and
``coalesced`` (attached to another in-flight submission of the same
content key).
"""

from __future__ import annotations

import threading
import time
from typing import Any, List, Optional

from .job import SolveJob

__all__ = ["ServeCancelled", "SolveFuture", "wait_all"]


class ServeCancelled(RuntimeError):
    """Raised by :meth:`SolveFuture.result` on a cancelled job."""


class SolveFuture:
    """The pending result of one submitted :class:`SolveJob`."""

    def __init__(self, job: SolveJob) -> None:
        self.job = job
        #: True when the result came straight from the result cache.
        self.cache_hit = False
        #: True when this submission was coalesced onto an identical
        #: in-flight job instead of being queued again.
        self.coalesced = False
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._cancelled = False
        self._started = False
        self._settled = False

    # -- producer side (service internals) ---------------------------------------

    def _mark_started(self) -> bool:
        """Claim the future for execution; False if it was cancelled."""
        with self._lock:
            if self._cancelled:
                return False
            self._started = True
            return True

    def _set_result(self, result: Any) -> None:
        # First completion wins: speculative re-execution makes two
        # producers legitimate (the stuck run and its duplicate), and
        # both carry bit-identical results — whichever lands first
        # settles the future, the loser is a silent no-op.
        with self._lock:
            if self._cancelled or self._settled:
                return
            self._settled = True
            self._result = result
        self._event.set()

    def _set_exception(self, exc: BaseException) -> None:
        with self._lock:
            if self._cancelled or self._settled:
                return
            self._settled = True
            self._exception = exc
        self._event.set()

    # -- consumer side -----------------------------------------------------------

    def cancel(self) -> bool:
        """Cancel if execution has not started; returns success."""
        with self._lock:
            if self._event.is_set() or self._started:
                return False
            self._cancelled = True
        self._event.set()
        return True

    def exception(self, timeout: Optional[float] = None,
                  ) -> Optional[BaseException]:
        """The job's exception (or None), blocking like :meth:`result`."""
        if not self._event.wait(timeout):
            raise TimeoutError("job still pending")
        if self._cancelled:
            raise ServeCancelled(f"cancelled: {self.job.describe()}")
        return self._exception

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until done; returns the SolveResult or re-raises.

        Fail-fast error propagation: the *original* exception a rank (or
        backend) raised comes out here, exactly as a direct
        ``repro.solve`` call would have raised it.
        """
        exc = self.exception(timeout)
        if exc is not None:
            raise exc
        return self._result


def wait_all(futures: List[SolveFuture],
             timeout: Optional[float] = None) -> List[Any]:
    """Results of ``futures`` in order; raises the first failure found.

    The service's :meth:`~repro.serve.service.Service.map` contract:
    all jobs are waited for, then errors are reported in submission
    order (fail-fast per job, deterministic across the batch).
    ``timeout`` is one deadline for the whole batch, not per future.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    for f in futures:
        if deadline is None:
            f._event.wait()
        else:
            f._event.wait(max(0.0, deadline - time.monotonic()))
    return [f.result(timeout=0) for f in futures]
