"""Optional parallel-JIT engine (registers only when numba imports).

The paper's C kernels reach the bandwidth limit with compiled,
OpenMP-parallel loops; this engine is the Python-world equivalent — a
``numba.njit(parallel=True)`` per-cell loop over the update region.  It
is strictly optional: when :mod:`numba` is absent the module still
imports, :data:`HAVE_NUMBA` is ``False``, nothing registers, and
``get_engine("numba")`` raises an error naming the missing dependency.
CI runs the suite both ways so the clean environment can never break
(the numba test leg is skip-marked).

Bit-identity with the numpy engine holds because the compiled loop
replays the same per-cell sequence — :attr:`StarStencil.groups`,
flattened by :func:`group_table`: each group's values
summed in order, one multiply by the group weight, products added in
order, the first product starting the accumulator — in the field dtype,
with ``fastmath`` left off so no reassociation or FMA contraction is
allowed.  The region gathers (ring reads included) stay on the storage
scheme; only the arithmetic is compiled.

Each loop exists in two compiled flavours with the identical per-cell
operation sequence (so they are bit-identical to each other and to
numpy):

* ``parallel=True`` — numba's OpenMP-style ``prange``, used when the
  call comes from the **main** thread (the classic single-driver case);
* serial ``nogil=True`` — used when the call comes from any **other**
  thread, i.e. a ``backend="threads"`` stage.  Numba's default
  workqueue threading layer must not be entered concurrently from
  multiple Python threads, and nested parallelism would oversubscribe
  anyway — one pipeline stage per core is the paper's own placement.
  ``nogil`` releases the GIL for the whole compiled sweep, which is
  what lets the threaded rail overlap stages on stock CPython.
"""

from __future__ import annotations

import threading
from typing import Sequence, Tuple

import numpy as np

from .base import Engine

__all__ = ["HAVE_NUMBA", "NumbaEngine", "group_table", "jit_cache_stats"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba
    from numba import prange

    HAVE_NUMBA = True
except ImportError:  # the supported default environment
    numba = None
    HAVE_NUMBA = False
    # The loop bodies below stay plain-Python functions either way:
    # numba compiles them when present; without numba the interpreted
    # body (``prange`` as ``range``) executes the identical per-cell
    # operation sequence, which is how the differential batteries
    # certify the loops even in numba-free environments (the engines
    # themselves stay unregistered there — interpreted per-cell loops
    # are not a production engine).
    prange = range


def _fused_terms_impl(out, stacked, starts, weights):
    """``out[c]`` from the gathered members ``stacked[m, c]``, per cell.

    Rows ``starts[g]:starts[g + 1]`` of ``stacked`` are group ``g``'s
    values; ``weights`` is pre-cast to the field dtype so every
    operation rounds exactly like the numpy engine's array passes.
    """
    nz, ny, nx = out.shape
    G = weights.shape[0]
    for i in prange(nz):
        for j in range(ny):
            for k in range(nx):
                total = stacked[0, i, j, k]
                for m in range(1, starts[1]):
                    total = total + stacked[m, i, j, k]
                acc = total * weights[0]
                for g in range(1, G):
                    total = stacked[starts[g], i, j, k]
                    for m in range(starts[g] + 1, starts[g + 1]):
                        total = total + stacked[m, i, j, k]
                    acc = acc + total * weights[g]
                out[i, j, k] = acc


def _fused_padded_impl(src, dst, offsets, starts, weights,
                       z0, z1, y0, y1, x0, x1):
    """Padded-pair sweep: direct offset reads, no gather arrays."""
    G = weights.shape[0]
    for i in prange(z1 - z0):
        z = 1 + z0 + i
        for y in range(1 + y0, 1 + y1):
            for x in range(1 + x0, 1 + x1):
                total = src[z + offsets[0, 0], y + offsets[0, 1],
                            x + offsets[0, 2]]
                for m in range(1, starts[1]):
                    total = total + src[z + offsets[m, 0], y + offsets[m, 1],
                                        x + offsets[m, 2]]
                acc = total * weights[0]
                for g in range(1, G):
                    f = starts[g]
                    total = src[z + offsets[f, 0], y + offsets[f, 1],
                                x + offsets[f, 2]]
                    for m in range(f + 1, starts[g + 1]):
                        total = total + src[z + offsets[m, 0],
                                            y + offsets[m, 1],
                                            x + offsets[m, 2]]
                    acc = acc + total * weights[g]
                dst[z, y, x] = acc


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    # One source, two compilations: with parallel=False numba lowers
    # ``prange`` to a plain ``range``, so both flavours execute the
    # same per-cell operation sequence and remain bit-identical.
    # ``cache=True`` persists the compiled machine code next to this
    # module, so warm procmpi/spawn workers (which re-import the engine
    # package per process) load it from disk instead of re-JITting on
    # their first job — tests/test_engine_equivalence.py pins this with
    # a fresh-subprocess probe over :func:`jit_cache_stats`.
    _fused_terms = numba.njit(parallel=True, fastmath=False, cache=True)(
        _fused_terms_impl)
    _fused_terms_nogil = numba.njit(nogil=True, fastmath=False, cache=True)(
        _fused_terms_impl)
    _fused_padded = numba.njit(parallel=True, fastmath=False, cache=True)(
        _fused_padded_impl)
    _fused_padded_nogil = numba.njit(nogil=True, fastmath=False, cache=True)(
        _fused_padded_impl)
else:
    _fused_terms = _fused_terms_nogil = _fused_terms_impl
    _fused_padded = _fused_padded_nogil = _fused_padded_impl


#: Every cached dispatcher this package compiled, for
#: :func:`jit_cache_stats`.  The deep engine appends its own.
_JIT_DISPATCHERS: list = []
if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    _JIT_DISPATCHERS.extend([_fused_terms, _fused_terms_nogil,
                             _fused_padded, _fused_padded_nogil])


def group_table(stencil, dtype, perm: Sequence[int] = (0, 1, 2)
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:attr:`StarStencil.groups` flattened for a per-cell loop.

    Returns ``(offsets, starts, weights)``: the member offsets as a
    ``(K, 3)`` int64 array in group order (coordinates permuted by
    ``perm``), ``starts`` of length ``G + 1`` — group ``g`` owns rows
    ``starts[g]:starts[g + 1]`` — and the ``G`` group weights cast to the
    field ``dtype``, so the loop's one multiply per group rounds exactly
    like the vectorised engines'.
    """
    groups = stencil.groups
    offsets = np.asarray([[off[p] for p in perm]
                          for _, offs in groups for off in offs],
                         dtype=np.int64).reshape(-1, 3)
    starts = np.cumsum([0] + [len(offs) for _, offs in groups],
                       dtype=np.int64)
    weights = np.asarray([w for w, _ in groups], dtype=dtype)
    return offsets, starts, weights


def jit_cache_stats() -> dict:
    """Aggregate on-disk JIT-cache counters across every compiled flavour.

    ``hits`` counts compilations satisfied from the persisted cache
    (``cache=True``) instead of a fresh JIT; ``misses`` counts real
    compilations.  A warm worker process that re-imports this package
    must show only hits — that is the no-re-JIT-per-job pin.  Returns
    zeros when numba is absent (nothing ever compiles).
    """
    hits = misses = 0
    for disp in _JIT_DISPATCHERS:
        stats = getattr(disp, "stats", None)
        if stats is None:
            continue
        hits += sum(getattr(stats, "cache_hits", {}).values())
        misses += sum(getattr(stats, "cache_misses", {}).values())
    return {"hits": hits, "misses": misses}


def _on_main_thread() -> bool:
    return threading.current_thread() is threading.main_thread()


class NumbaEngine(Engine):
    """Compiled parallel per-cell group-sum loops (optional dependency)."""

    name = "numba"
    semantics = "vector-v2"
    jit = True
    requires = "numba"

    def __init__(self) -> None:
        if not HAVE_NUMBA:  # defensive: registration is already gated
            raise RuntimeError("numba is not installed")

    def apply(self, stencil, storage, region, level: int) -> None:
        if region.is_empty:
            return
        dtype = storage.grid.dtype
        center = storage.read(region, level - 1)
        if not stencil.groups:
            storage.write(region, level, np.zeros(region.shape, dtype=dtype))
            return
        _, starts, weights = group_table(stencil, dtype)
        stacked = np.stack([
            storage.gather(region, off, level - 1) if any(off) else center
            for _, offs in stencil.groups for off in offs])
        out = np.empty(region.shape, dtype=dtype)
        # Off the main thread (a backend="threads" stage) take the
        # serial nogil flavour: numba's workqueue threading layer is
        # not safe for concurrent entry, and the GIL-free sweep is
        # what overlaps the stages.
        fused = _fused_terms if _on_main_thread() else _fused_terms_nogil
        fused(out, stacked, starts, weights)
        storage.write(region, level, out)

    def apply_padded(self, stencil, src: np.ndarray, dst: np.ndarray,
                     lo: Sequence[int], hi: Sequence[int]) -> None:
        z0, y0, x0 = lo
        z1, y1, x1 = hi
        if z1 <= z0 or y1 <= y0 or x1 <= x0:
            return
        if not stencil.groups:
            dst[1 + z0:1 + z1, 1 + y0:1 + y1, 1 + x0:1 + x1] = 0
            return
        offsets, starts, weights = group_table(stencil, dst.dtype)
        fused = _fused_padded if _on_main_thread() else _fused_padded_nogil
        fused(src, dst, offsets, starts, weights, z0, z1, y0, y1, x0, x1)
