"""Shared-memory blocks for the multiprocess (``procmpi``) rail.

The process-backed transport keeps the *bulk* data — the global field a
solve starts from, the assembled result, and the per-pair halo rings —
in :mod:`multiprocessing.shared_memory` segments, so rank processes read
and write them in place instead of funnelling whole subdomains through
pickling pipes.  This module owns the two lifecycle problems that come
with that:

* **ownership** — exactly one process (the parent driving the solve)
  creates and unlinks every segment.  :class:`ShmPool` tracks what it
  created and tears all of it down in one idempotent :meth:`~ShmPool.
  cleanup` call, so a ``finally`` block suffices even when ranks crash
  mid-exchange.  Should the parent itself die hard, the segments are
  still registered with its :mod:`multiprocessing.resource_tracker`,
  which unlinks them at interpreter teardown — the crash backstop.

* **the non-owner attach quirk** — on Python < 3.13, *attaching* to an
  existing segment also registers it with the resource tracker, so a
  rank process exiting after ``close()`` would have the tracker "clean
  up" (unlink!) the parent's live segment and print leak warnings.
  :func:`attach_block` therefore suppresses the tracker registration
  for non-owner attaches (``track=False`` where available, a scoped
  no-op register shim before 3.13); only the owning pool ever unlinks.

Segments are named ``repro-shm-<pid>-<hex>`` so the test-suite can scan
``/dev/shm`` (:func:`live_segments`) and assert nothing leaked.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..obs.registry import SEGMENTS_COUNTER

__all__ = [
    "SEGMENT_PREFIX",
    "ShmBlockHandle",
    "ShmArrayHandle",
    "ShmPool",
    "attach_block",
    "attach_array",
    "live_segments",
    "SEGMENTS_COUNTER",
]

#: Every segment this package creates carries this name prefix.
SEGMENT_PREFIX = "repro-shm-"

@dataclass(frozen=True)
class ShmBlockHandle:
    """Picklable descriptor of a raw shared-memory block."""

    name: str
    nbytes: int


@dataclass(frozen=True)
class ShmArrayHandle:
    """Picklable descriptor of an ndarray living in a shared block."""

    name: str
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        """Size of the described array in bytes."""
        n = int(np.prod(self.shape)) if self.shape else 1
        return n * np.dtype(self.dtype).itemsize


def attach_block(handle: ShmBlockHandle) -> shared_memory.SharedMemory:
    """Attach to an existing block as a non-owner (tracker-safe).

    The caller must ``close()`` the returned object (never ``unlink()``
    — that is the owning :class:`ShmPool`'s job).
    """
    try:
        # Python >= 3.13: attaching without tracker registration is API.
        return shared_memory.SharedMemory(name=handle.name, track=False)
    except TypeError:
        pass
    # Python 3.10-3.12: scoped no-op register shim.  Unregistering
    # *after* the attach is not equivalent: under the fork start method
    # all processes share one tracker, so that would drop the owner's
    # registration and break its unlink-time bookkeeping.
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None
    try:
        return shared_memory.SharedMemory(name=handle.name)
    finally:
        resource_tracker.register = original


@contextmanager
def attach_array(handle: ShmArrayHandle) -> Iterator[np.ndarray]:
    """Context manager: the described array, mapped from shared memory.

    The mapping is closed on exit; the caller must not keep references
    to the yielded array (copy out what outlives the block).
    """
    shm = attach_block(ShmBlockHandle(handle.name, handle.nbytes))
    arr: Optional[np.ndarray] = np.ndarray(
        handle.shape, dtype=np.dtype(handle.dtype), buffer=shm.buf)
    try:
        yield arr
    finally:
        arr = None
        try:
            shm.close()
        except BufferError:  # pragma: no cover - caller kept a view alive
            pass


class ShmPool:
    """Owner of a set of shared-memory segments (create, track, unlink)."""

    def __init__(self) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self._views: List[np.ndarray] = []

    def _new_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        nbytes = max(1, int(nbytes))
        while True:
            name = f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
            try:
                shm = shared_memory.SharedMemory(create=True, size=nbytes,
                                                 name=name)
                break
            except FileExistsError:  # pragma: no cover - 2^32 collision
                continue
        from ..obs import registry

        registry.inc(SEGMENTS_COUNTER)
        self._segments.append(shm)
        return shm

    def create_block(self, nbytes: int) -> ShmBlockHandle:
        """Allocate a raw block; returns its picklable handle."""
        shm = self._new_segment(nbytes)
        return ShmBlockHandle(name=shm.name, nbytes=int(nbytes))

    def create_array(self, shape: Tuple[int, ...], dtype,
                     ) -> Tuple[ShmArrayHandle, np.ndarray]:
        """Allocate a shared ndarray, zeroed by the kernel (a new segment).

        Returns the picklable handle plus the parent's own mapped view
        (valid until :meth:`cleanup`).
        """
        dt = np.dtype(dtype)
        n = int(np.prod(shape)) if shape else 1
        shm = self._new_segment(n * dt.itemsize)
        arr = np.ndarray(shape, dtype=dt, buffer=shm.buf)
        self._views.append(arr)
        return ShmArrayHandle(name=shm.name, shape=tuple(int(s) for s in shape),
                              dtype=dt.str), arr

    def cleanup(self) -> None:
        """Close and unlink everything this pool created (idempotent)."""
        self._views.clear()
        segments, self._segments = self._segments, []
        for shm in segments:
            try:
                shm.close()
            except (BufferError, OSError):  # pragma: no cover
                pass
            try:
                shm.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass

    def __enter__(self) -> "ShmPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cleanup()


def live_segments() -> Optional[List[str]]:
    """Names of this package's segments currently backed by ``/dev/shm``.

    Returns ``None`` on platforms without a ``/dev/shm`` filesystem (the
    leak assertions in the test-suite skip there).
    """
    root = Path("/dev/shm")
    if not root.is_dir():
        return None
    try:
        return sorted(p.name for p in root.iterdir()
                      if p.name.startswith(SEGMENT_PREFIX))
    except OSError:  # pragma: no cover - racing teardown
        return None
