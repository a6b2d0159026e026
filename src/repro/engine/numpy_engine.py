"""The default engine: a view-only, cache-slab vectorised accumulate.

The paper's argument (Eq. 2 vs Eq. 5) is that a block's updates run out
of cache and only its first read and last write touch memory.  This
engine holds NumPy to that: the region is walked in slabs whose
accumulator fits :data:`SLAB_BYTES`, every term is read through a view
(the two-grid ghost ring gives boundary blocks the interior's path),
multiply-adds run with ``out=`` into two per-thread scratch buffers and
each finished slab goes straight into ``storage.write_view``.  Per cell
the operation sequence is :meth:`StarStencil.apply`'s — zero-seeded
accumulator, one multiply-add per nonzero-weight offset in canonical
order, centre term last — so this stays the bit-identity reference of
the engine layer and the default of :class:`PipelineConfig`.
"""

from __future__ import annotations

import threading
from typing import Sequence, Tuple

import numpy as np

from ..grid.region import Box
from .base import Engine, nonzero_terms, plane_axis_and_step

__all__ = ["NumpyEngine", "accumulate_padded", "SLAB_BYTES"]

#: Accumulator bytes per slab: measured best of 64 KiB … 512 KiB on the
#: reference host; a single plane larger than this is one slab.
SLAB_BYTES = 256 * 1024

_scratch = threading.local()


def _scratch_pair(n: int, dtype: np.dtype) -> Tuple[np.ndarray, np.ndarray]:
    """Two flat ``n``-item buffers: per thread, grow-only, raw bytes
    re-viewed per call so every region shape and dtype shares them."""
    nbytes = n * dtype.itemsize
    pair = getattr(_scratch, "pair", None)
    if pair is None or pair[0].size < nbytes:
        pair = _scratch.pair = (np.empty(nbytes, np.uint8),
                                np.empty(nbytes, np.uint8))
    return pair[0][:nbytes].view(dtype), pair[1][:nbytes].view(dtype)


def _array_reader(src: np.ndarray):
    """``read(off, lo, hi)`` over a backing array: plain numeric slicing."""
    def read(off, lo, hi):
        return src[lo[0] + off[0]:hi[0] + off[0],
                   lo[1] + off[1]:hi[1] + off[1],
                   lo[2] + off[2]:hi[2] + off[2]]
    return read


def _gather_reader(storage, level: int):
    """``read(off, lo, hi)`` through ``storage.gather``: ring-less storages."""
    def read(off, lo, hi):
        return storage.gather(Box(lo, hi), off, level)
    return read


def _accumulate_slabs(stencil, read, dst: np.ndarray, lo: Tuple[int, int, int],
                      axis: int = 0, step: int = 1) -> None:
    """Fill ``dst`` with the stencil of its cells' previous values.

    ``dst`` covers the cells ``[lo, lo + dst.shape)``; ``read(off, slo,
    shi)`` returns the previous values of the cells ``[slo, shi) + off``.
    Slabs are walked along ``axis`` in direction ``step`` and each is
    stored only after all of its reads, so ``dst`` may alias the sources
    wherever a plane-wise walk in that direction is legal.
    """
    if dst.size == 0:
        return
    terms = nonzero_terms(stencil)
    if stencil.center_weight != 0.0:
        terms.append(((0, 0, 0), stencil.center_weight))
    n = dst.shape[axis]
    plane = dst.size // n
    thick = max(1, SLAB_BYTES // (plane * dst.itemsize))
    acc_buf, tmp_buf = _scratch_pair(min(thick, n) * plane, dst.dtype)
    hi = tuple(lo[d] + dst.shape[d] for d in range(3))
    for s in range(0, n, thick):
        a, b = ((s, min(s + thick, n)) if step > 0
                else (max(n - s - thick, 0), n - s))
        slo = lo[:axis] + (lo[axis] + a,) + lo[axis + 1:]
        shi = hi[:axis] + (lo[axis] + b,) + hi[axis + 1:]
        out = dst[(slice(None),) * axis + (slice(a, b),)]
        acc = acc_buf[:out.size].reshape(out.shape)
        tmp = tmp_buf[:out.size].reshape(out.shape)
        acc.fill(0.0)
        for off, w in terms:
            np.multiply(read(off, slo, shi), w, out=tmp)
            np.add(acc, tmp, out=acc)
        out[...] = acc


def accumulate_padded(stencil, src: np.ndarray, dst: np.ndarray,
                      lo: Sequence[int], hi: Sequence[int]) -> None:
    """One slab-wise sweep over interior cells ``[lo, hi)`` of a padded
    pair, straight into ``dst`` (also ``jacobi_sweep_blocked``'s per-tile
    step)."""
    z0, y0, x0 = lo
    z1, y1, x1 = hi
    _accumulate_slabs(stencil, _array_reader(src),
                      dst[1 + z0:1 + z1, 1 + y0:1 + y1, 1 + x0:1 + x1],
                      (1 + z0, 1 + y0, 1 + x0))


class NumpyEngine(Engine):
    """Slab-wise, allocation-free vectorised accumulate (the default)."""

    name = "numpy"
    semantics = "vector-v1"
    fused_inplace = True

    def apply(self, stencil, storage, region, level: int) -> None:
        if region.is_empty:
            return
        axis, step = plane_axis_and_step(storage, level)
        if storage.ghost_ring:
            # Every shifted read is a view of the raw array, ring included.
            storage.check_traversal(region, stencil.offsets, level - 1)
            src, origin = storage.raw_read_array(level - 1)
            read = _array_reader(src)
            lo = tuple(region.lo[d] + origin[d] for d in range(3))
        else:
            read = _gather_reader(storage, level - 1)
            lo = region.lo
        _accumulate_slabs(stencil, read, storage.write_view(region, level),
                          lo, axis, step)
        storage.commit_write(region, level)

    def apply_padded(self, stencil, src: np.ndarray, dst: np.ndarray,
                     lo: Sequence[int], hi: Sequence[int]) -> None:
        accumulate_padded(stencil, src, dst, lo, hi)
