"""Abstract communicator protocol for the distributed solvers.

The solvers in :mod:`repro.dist.solver` are written against this small
protocol rather than a concrete transport, so the same code runs on

* :class:`repro.dist.simmpi.RankComm` — the thread-backed simulated MPI
  used by the test-suite and the examples (no external dependencies),
* :class:`repro.dist.procmpi.ProcComm` — true multiprocess ranks with
  shared-memory fields and halo rings (the ``procmpi`` backend), and
* a real MPI library via :class:`MPI4PyComm`, a thin adapter that slots
  in when ``mpi4py`` is available (it is deliberately *not* imported at
  module load, so the package works on machines without MPI).

The surface is what the ghost-cell-expansion protocol needs and nothing
more: point-to-point ``send(dest, data)`` and ``recv(src)``.  There are
no collectives; the drivers collect per-rank results from the return
values of the rank function.

* Sends are *buffered* (copy-on-send): a rank may mutate its buffer the
  moment ``send`` returns, and consecutive buffered sends cannot
  deadlock — the property the 3-phase exchange relies on.
* Delivery is *source-ordered*: messages from one rank to another
  arrive in send order, so a receiver needs no tags.
* ``recv`` blocks until the next message from ``src`` arrives; a
  transport whose peer failed raises instead of hanging.
"""

from __future__ import annotations

import copy as _copy
from abc import ABC, abstractmethod
from typing import Any, List

import numpy as np

__all__ = ["Comm", "MPI4PyComm", "snapshot"]


def snapshot(data: Any) -> Any:
    """Copy-on-send: detach a message from the sender's buffer.

    Used by the thread transport (simmpi), whose messages would otherwise
    alias the sender's buffer; procmpi copies by pickling or into a ring
    slot.
    """
    if isinstance(data, np.ndarray):
        return data.copy()
    return _copy.deepcopy(data)


class Comm(ABC):
    """Minimal communicator protocol (see module docstring)."""

    #: This process's rank in ``[0, size)``.
    rank: int
    #: Number of participating processes.
    size: int

    @abstractmethod
    def send(self, dest: int, data: Any) -> None:
        """Buffered send to ``dest`` (copy-on-send; returns immediately)."""

    @abstractmethod
    def recv(self, src: int) -> Any:
        """Blocking receive of the next message from ``src``."""


class MPI4PyComm(Comm):
    """Adapter running the protocol over a real ``mpi4py`` communicator.

    Construction requires ``mpi4py``; the import is local so the rest of
    the package carries no MPI dependency.  Messages use the generic
    (pickle-based) mpi4py path — ghost slabs are contiguous array copies
    already, so there is nothing to gain from the buffer interface here.

    ``send`` must honour the protocol's buffered (non-blocking) contract:
    the 3-phase exchange issues all of a phase's sends before any
    receive, and MPI's standard-mode send switches to rendezvous above
    the eager threshold, which would deadlock two peers sending each
    other large ghost slabs.  The adapter therefore uses ``isend`` and
    parks the request; outstanding requests are drained opportunistically
    on ``recv``.
    """

    def __init__(self, mpi_comm: Any = None) -> None:
        try:
            from mpi4py import MPI  # noqa: PLC0415 — optional dependency
        except ImportError as exc:  # pragma: no cover - environment-dependent
            raise RuntimeError(
                "MPI4PyComm requires the optional 'mpi4py' package; "
                "install it or use the simmpi backend"
            ) from exc
        self._comm = mpi_comm if mpi_comm is not None else MPI.COMM_WORLD
        self.rank = self._comm.Get_rank()
        self.size = self._comm.Get_size()
        self._pending: List[Any] = []

    # pragma-no-cover rationale: exercised only when mpi4py is installed.
    def send(self, dest: int, data: Any) -> None:  # pragma: no cover
        self._pending.append(self._comm.isend(data, dest=dest))

    def recv(self, src: int) -> Any:  # pragma: no cover
        out = self._comm.recv(source=src)
        self._pending = [r for r in self._pending if not r.Test()]
        return out
