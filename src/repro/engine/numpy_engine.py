"""The default engine: a view-only, cache-slab vectorised accumulate.

The paper's argument (Eq. 2 vs Eq. 5) is that a block's updates run out
of cache and only its first read and last write touch memory.  This
engine holds NumPy to that: the region is walked in slabs whose
accumulator fits :data:`SLAB_BYTES`, every term is read through a view
(the two-grid ghost ring gives boundary blocks the interior's path),
multiply-adds run with ``out=`` into two per-thread scratch buffers and
each finished slab goes straight into the destination view.  Per cell
the operation sequence is :meth:`StarStencil.apply`'s — zero-seeded
accumulator, one multiply-add per nonzero-weight offset in canonical
order, centre term last (:attr:`StarStencil.terms`) — so this stays the
bit-identity reference of the engine layer and the default of
:class:`PipelineConfig`.

On a ghost-ring storage the views are not computed at all: the executor
hands over the region as three :class:`~repro.grid.blocks.AxisSpan`
table entries whose ready-made slices index the ring arrays directly
(:meth:`NumpyEngine.apply_spans`), so a region that is one slab costs
its ufuncs and the ≤ 8 ``array[slices]`` lookups, nothing else.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Dict, Sequence, Tuple

import numpy as np

from ..grid.blocks import Spans, box_spans, spans_box
from ..grid.region import Box
from .base import Engine, plane_axis_and_step

__all__ = ["NumpyEngine", "accumulate_padded", "SLAB_BYTES"]

#: Accumulator bytes per slab: measured best of 64 KiB … 512 KiB on the
#: reference host; a single plane larger than this is one slab.
SLAB_BYTES = 256 * 1024

#: Shaped scratch views a thread keeps before starting over.
_VIEWS_KEPT = 64


class _Scratch(threading.local):
    """Per thread: two grow-only raw buffers, shared by every region
    shape and dtype, and the shaped views of them handed out so far."""

    def __init__(self) -> None:
        self.raw = (np.empty(0, np.uint8), np.empty(0, np.uint8))
        self.views: Dict[Tuple[Tuple[int, ...], np.dtype],
                         Tuple[np.ndarray, ...]] = {}


_scratch = _Scratch()


def _scratch_pair(shape: Tuple[int, ...], dtype: np.dtype
                  ) -> Tuple[np.ndarray, ...]:
    """Two ``shape`` buffers of the calling thread (contents arbitrary)."""
    views = _scratch.views
    pair = views.get((shape, dtype))
    if pair is None:
        nbytes = shape[0] * shape[1] * shape[2] * dtype.itemsize
        if _scratch.raw[0].size < nbytes:
            _scratch.raw = (np.empty(nbytes, np.uint8),
                            np.empty(nbytes, np.uint8))
            views.clear()       # they pin the buffers just replaced
        elif len(views) >= _VIEWS_KEPT:
            views.clear()
        pair = views[shape, dtype] = tuple(
            raw[:nbytes].view(dtype).reshape(shape) for raw in _scratch.raw)
    return pair


def _fma(out: np.ndarray, terms, read) -> None:
    """``out <- sum(w * read(off))`` over ``terms``, in their order.

    ``read(off)`` returns the previous values of ``out``'s cells
    displaced by ``off`` — a view, or a patched copy that is dropped
    as soon as it is consumed — and ``out`` is stored only after the
    last read, so it may alias the sources wherever the caller's slab
    order makes that legal.
    """
    acc, tmp = _scratch_pair(out.shape, out.dtype)
    acc.fill(0.0)
    for off, w in terms:
        np.multiply(read(off), w, out=tmp)
        np.add(acc, tmp, out=acc)
    out[...] = acc


def _slab_thickness(plane_bytes: int) -> int:
    """Planes of ``plane_bytes`` each per :data:`SLAB_BYTES` slab."""
    return max(1, SLAB_BYTES // plane_bytes)


def _accumulate_ring(terms, src: np.ndarray, dst: np.ndarray,
                     spans: Spans) -> None:
    """Stencil of ``src`` into ``dst`` on the cells ``spans`` address.

    Both are ghost-ring arrays of one layout and must not alias; a
    region that is one slab is evaluated over the spans' own slices.
    """
    sz, sy, sx = spans
    thick = _slab_thickness(sy.n * sx.n * dst.itemsize)
    if sz.n > thick:
        for a in range(0, sz.n, thick):
            _accumulate_ring(terms, src, dst,
                             (sz.sub(a, min(a + thick, sz.n)), sy, sx))
        return
    _fma(dst[sz[0], sy[0], sx[0]], terms,
         lambda off: src[sz[off[0]], sy[off[1]], sx[off[2]]])


def _accumulate_gather(terms, storage, region: Box, level: int) -> None:
    """The update ``level-1 -> level`` of a ring-less storage, in place.

    Reads go through ``storage.gather`` (Dirichlet slabs patched in);
    slabs are walked along the axis and in the direction that make the
    compressed grid's overlapping write legal, each stored only after
    all of its reads.
    """
    axis, step = plane_axis_and_step(storage, level)
    dst = storage.write_view(region, level)
    n = dst.shape[axis]
    thick = _slab_thickness(dst.nbytes // n)
    lo, hi = region.lo, region.hi
    for s in range(0, n, thick):
        a, b = ((s, min(s + thick, n)) if step > 0
                else (max(n - s - thick, 0), n - s))
        slab = Box(lo[:axis] + (lo[axis] + a,) + lo[axis + 1:],
                   hi[:axis] + (lo[axis] + b,) + hi[axis + 1:])
        _fma(dst[(slice(None),) * axis + (slice(a, b),)], terms,
             partial(storage.gather, slab, level=level - 1))
    storage.commit_write(region, level)


def accumulate_padded(stencil, src: np.ndarray, dst: np.ndarray,
                      lo: Sequence[int], hi: Sequence[int]) -> None:
    """One slab-wise sweep over interior cells ``[lo, hi)`` of a padded
    pair, straight into ``dst`` (also ``jacobi_sweep_blocked``'s per-tile
    step)."""
    spans = box_spans(Box.make(lo, hi))
    if spans[0].n and spans[1].n and spans[2].n:
        _accumulate_ring(stencil.terms, src, dst, spans)


class NumpyEngine(Engine):
    """Slab-wise, allocation-free vectorised accumulate (the default)."""

    name = "numpy"
    semantics = "vector-v1"
    fused_inplace = True

    def apply(self, stencil, storage, region, level: int) -> None:
        if region.is_empty:
            return
        if storage.ghost_ring:
            self.apply_spans(stencil, storage,
                             box_spans(region, storage.domain.lo), level)
        else:
            _accumulate_gather(stencil.terms, storage, region, level)

    def apply_spans(self, stencil, storage, spans: Spans, level: int) -> None:
        if not storage.ghost_ring:
            self.apply(stencil, storage, spans_box(spans), level)
            return
        # Every shifted read is a view of the raw array, ring included;
        # validation needs the region as a Box, the arithmetic does not.
        region = spans_box(spans) if storage.validate else None
        if region is not None:
            storage.check_traversal(region, stencil.offsets, level - 1)
            storage.check_write(region, level)
        _accumulate_ring(stencil.terms, storage.ring_array(level - 1),
                         storage.ring_array(level), spans)
        if region is not None:
            storage.commit_write(region, level)

    def apply_padded(self, stencil, src: np.ndarray, dst: np.ndarray,
                     lo: Sequence[int], hi: Sequence[int]) -> None:
        accumulate_padded(stencil, src, dst, lo, hi)
