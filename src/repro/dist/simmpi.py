"""Thread-backed simulated MPI: run N ranks as threads in one process.

The distributed rail needs real concurrent ranks — the 3-phase exchange
interleaves sends and receives across peers — but demanding an MPI
installation would make the test-suite unrunnable on most machines.
``run_ranks`` instead executes one Python thread per rank; NumPy releases
the GIL inside kernels, so ranks genuinely overlap, and the semantics
match the paper's MPI usage where it matters:

* **copy-on-send** — ``send`` snapshots the buffer, the sender may reuse
  it immediately (MPI buffered mode, which the paper's code relies on for
  the consecutive per-dimension exchanges);
* **source-ordered delivery** — messages between one (src, dst) pair
  arrive in send order;
* **fail-fast** — when any rank raises, the others are released from
  receives with :class:`SimMPIError` instead of hanging, and
  ``run_ranks`` re-raises the original exception.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from .comm import Comm, snapshot as _snapshot

__all__ = ["SimMPIError", "RankComm", "run_ranks"]

#: How long a blocked receive waits before concluding the run is
#: wedged (a deadlocked exchange or a crashed peer).
DEFAULT_TIMEOUT = 120.0
_POLL = 0.05


class SimMPIError(RuntimeError):
    """A simulated-MPI failure: timeout, aborted peer, or bad rank."""


class _World:
    """Shared state of one ``run_ranks`` invocation."""

    def __init__(self, size: int, timeout: float) -> None:
        self.size = size
        self.timeout = timeout
        self.abort = threading.Event()
        self.p2p: Dict[Tuple[int, int], queue.Queue] = {
            (s, d): queue.Queue() for s in range(size) for d in range(size)}


class RankComm(Comm):
    """One rank's endpoint in a simulated world (see :class:`Comm`)."""

    def __init__(self, rank: int, world: _World) -> None:
        self.rank = int(rank)
        self.size = world.size
        self._world = world

    # -- internals ---------------------------------------------------------------

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise SimMPIError(f"rank {peer} outside world of size {self.size}")
        if peer == self.rank:
            raise SimMPIError("self-messaging is not supported")

    def _get(self, q: queue.Queue, what: str) -> Any:
        waited = 0.0
        while True:
            if self._world.abort.is_set():
                raise SimMPIError(f"{what} aborted: another rank failed")
            try:
                return q.get(timeout=_POLL)
            except queue.Empty:
                waited += _POLL
                if waited >= self._world.timeout:
                    raise SimMPIError(
                        f"rank {self.rank}: {what} timed out after "
                        f"{self._world.timeout:.0f}s (deadlocked exchange?)"
                    ) from None

    # -- point-to-point ----------------------------------------------------------

    def send(self, dest: int, data: Any) -> None:
        """Buffered send: the message is a snapshot of ``data``."""
        self._check_peer(dest)
        self._world.p2p[(self.rank, dest)].put(_snapshot(data))

    def recv(self, src: int) -> Any:
        """Blocking receive of the next message from ``src``."""
        self._check_peer(src)
        return self._get(self._world.p2p[(src, self.rank)],
                         f"recv from rank {src}")


def run_ranks(n_ranks: int, fn: Callable[[RankComm, int], Any],
              timeout: float = DEFAULT_TIMEOUT) -> List[Any]:
    """Execute ``fn(comm, rank)`` on ``n_ranks`` concurrent thread-ranks.

    Returns the per-rank return values in rank order.  If any rank
    raises, the world is aborted (peers blocked in ``recv`` are released
    with :class:`SimMPIError`) and the *original* exception is re-raised
    in the caller.
    """
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    world = _World(n_ranks, timeout)
    results: List[Any] = [None] * n_ranks
    errors: List[Optional[BaseException]] = [None] * n_ranks

    def runner(rank: int) -> None:
        try:
            results[rank] = fn(RankComm(rank, world), rank)
        except BaseException as exc:  # noqa: BLE001 — must reach the caller
            errors[rank] = exc
            world.abort.set()

    threads = [threading.Thread(target=runner, args=(r,),
                                name=f"simmpi-rank-{r}", daemon=True)
               for r in range(n_ranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Prefer the root cause over the SimMPIErrors it triggered in peers.
    for exc in errors:
        if exc is not None and not isinstance(exc, SimMPIError):
            raise exc
    for exc in errors:
        if exc is not None:
            raise exc
    return results
