"""The default engine: a view-only, cache-slab vectorised accumulate.

The paper's argument (Eq. 2 vs Eq. 5) is that a block's updates run out
of cache and only its first read and last write touch memory.  This
engine holds NumPy to that: the region is walked in slabs whose
accumulator fits :data:`SLAB_BYTES`, every term is read through a view
(the two-grid ghost ring gives boundary blocks the interior's path),
the array passes run with ``out=`` into two per-thread scratch buffers
and the last pass of a slab writes the destination view itself.  Per
cell the operation sequence is :attr:`StarStencil.groups` — equal
weights summed first, one multiply per distinct weight, products added
in order, no zero seed — so a Jacobi update is five adds and one
multiply (six array passes), and this stays the bit-identity reference
of the engine layer and the default of :class:`PipelineConfig`.

On a ghost-ring storage the views are not computed at all: the executor
hands over the region as three :class:`~repro.grid.blocks.AxisSpan`
table entries whose ready-made slices index the ring arrays directly
(:meth:`NumpyEngine.apply_spans`), so a region that is one slab costs
its ufuncs and the ≤ 8 ``array[slices]`` lookups, nothing else.  A
region whose first slab's *contiguous run* in the ring array is at most
:data:`FLAT_RUN_MAX` times its cells (cost, not shape: 128³ full-width
regions and a rank's x-clipped trapezoids; not ``(8, 16, 16)`` blocks)
is evaluated over that run.  Every offset is a flat displacement of one
1-D view, the run's other cells compute values nobody reads, and only
the final pass is strided.  Flat regions never warn (one ``np.errstate``:
discarded lanes may meet ``inf - inf``); their bytes are unchanged.

The compressed grid is updated in place, slab by slab in the legal
direction.  Its one array is ringed on every face too, so a slab that
spans y and x in full takes the same flat run over it (the final pass
writes the slab's cells only, after every read); other slabs read views
of the array.
"""

from __future__ import annotations

import math
import threading
from functools import partial
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from ..grid.blocks import AxisSpan, Spans, box_spans, spans_box
from ..grid.region import Box
from .base import Engine, plane_axis_and_step

__all__ = ["NumpyEngine", "accumulate_padded", "SLAB_BYTES"]

#: Accumulator bytes per slab, counted on the region's own cells:
#: measured best of 64 KiB … 512 KiB on the reference host; a single
#: plane larger than this is one slab.
SLAB_BYTES = 256 * 1024

#: Largest run/cells of a flat region's first slab: on a 2-core Xeon flat
#: beat 3-D span slices up to 1.67 and lost from 2.0 (EXPERIMENTS.md E19).
FLAT_RUN_MAX = 1.5

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
        nbytes = math.prod(shape) * dtype.itemsize
        if _scratch.raw[0].size < nbytes:
            _scratch.raw = (np.empty(nbytes, np.uint8),
                            np.empty(nbytes, np.uint8))
            views.clear()       # they pin the buffers just replaced
        elif len(views) >= _VIEWS_KEPT:
            views.clear()
        pair = views[shape, dtype] = tuple(
            raw[:nbytes].view(dtype).reshape(shape) for raw in _scratch.raw)
    return pair


def _same(run: np.ndarray) -> np.ndarray:
    return run


def _fma(out: np.ndarray, groups, read, shape: Tuple[int, ...],
         cells: Callable[[np.ndarray], np.ndarray] = _same) -> None:
    """The ``vector-v2`` sequence of ``groups`` into ``out``.

    ``read(off)`` returns the previous values displaced by ``off`` as an
    array of ``shape`` (a view) and ``cells`` maps such an array onto
    ``out``'s cells (the identity unless ``shape`` is a run that also
    covers cells ``out`` does not have).  Sums and products go through
    the two scratch buffers; the last pass alone stores into ``out``,
    after every read, so ``out`` may alias the sources wherever the
    caller's slab order makes that legal.
    """
    if not groups:
        out[...] = 0
        return
    acc, tmp = _scratch_pair(shape, out.dtype)
    last = len(groups) - 1
    for g, (w, offs) in enumerate(groups):
        buf = tmp if g else acc
        total = read(offs[0])
        for off in offs[1:]:
            total = np.add(total, read(off), out=buf)
        if not last:
            np.multiply(cells(total), w, out=out)
        elif not g:
            np.multiply(total, w, out=acc)
        else:
            np.multiply(total, w, out=tmp)
            if g < last:
                np.add(acc, tmp, out=acc)
            else:
                np.add(cells(acc), cells(tmp), out=out)


def _slab_thickness(plane_bytes: int) -> int:
    """Planes of ``plane_bytes`` each per :data:`SLAB_BYTES` slab."""
    return max(1, SLAB_BYTES // plane_bytes)


def _run(flat: np.ndarray, first: int, count: int, plane: int, row: int,
         off: Tuple[int, int, int]) -> np.ndarray:
    at = first + off[0] * plane + off[1] * row + off[2]
    return flat[at:at + count]


def _slab_run(groups, src: np.ndarray, first: int, out: np.ndarray) -> None:
    """``out``'s cells over the contiguous run of ``src`` from flat index
    ``first`` (``out[0, 0, 0]``'s cell) on; ``src`` is C-contiguous and
    ringed on its two trailing axes, ``out`` any box of its cells."""
    _, rows, row = src.shape
    plane = rows * row
    nz, ny, nx = out.shape
    count = (nz - 1) * plane + (ny - 1) * row + nx
    item = out.itemsize
    _fma(out, groups,
         partial(_run, src.reshape(-1), first, count, plane, row),
         (count,),
         partial(np.ndarray, out.shape, out.dtype,
                 strides=(plane * item, row * item, item)))


def _ring_run(groups, src: np.ndarray, dst: np.ndarray,
              sz: AxisSpan, sy: AxisSpan, sx: AxisSpan) -> None:
    """:func:`_slab_run` on one slab of a ring pair."""
    _, rows, row = src.shape
    _slab_run(groups, src,
              (sz.zero.start * rows + sy.zero.start) * row + sx.zero.start,
              dst[sz.zero, sy.zero, sx.zero])


def _slab_views(groups, src: np.ndarray, dst: np.ndarray,
                sz: AxisSpan, sy: AxisSpan, sx: AxisSpan) -> None:
    """One slab over the spans' own 3-D slices."""
    _fma(dst[sz.zero, sy.zero, sx.zero], groups,
         lambda off: src[sz[off[0]], sy[off[1]], sx[off[2]]],
         (sz.n, sy.n, sx.n))


def _accumulate_ring(groups, src: np.ndarray, dst: np.ndarray,
                     spans: Spans) -> None:
    """Stencil of ``src`` into ``dst`` on the cells ``spans`` address.

    Both are ghost-ring arrays of one layout and must not alias.  The
    region runs flat (:func:`_slab_run`, in one ``np.errstate``) when
    ``src`` is C-contiguous — a flat "view" of any other is a copy — and
    its first slab's run is at most :data:`FLAT_RUN_MAX` times its cells.
    """
    sz, sy, sx = spans
    _, rows, row = src.shape
    thick = _slab_thickness(sy.n * sx.n * dst.itemsize)
    t = sz.n if sz.n < thick else thick
    run = (t - 1) * rows * row + (sy.n - 1) * row + sx.n
    if not (src.flags.c_contiguous and run <= FLAT_RUN_MAX * t * sy.n * sx.n):
        _slabs(_slab_views, groups, src, dst, spans, thick)
        return
    with np.errstate(all="ignore"):
        _slabs(_ring_run, groups, src, dst, spans, thick)


def _slabs(slab, groups, src, dst, spans: Spans, thick: int) -> None:
    """``slab`` over the region in pieces of ``thick`` planes."""
    sz, sy, sx = spans
    if sz.n <= thick:
        slab(groups, src, dst, sz, sy, sx)
        return
    for a in range(0, sz.n, thick):
        slab(groups, src, dst, sz.sub(a, min(a + thick, sz.n)), sy, sx)


def _accumulate_inplace(stencil, storage, region: Box, level: int) -> None:
    """The update ``level-1 -> level`` of a compressed storage, in place.

    Slabs are walked along the axis and in the direction that make the
    overlapping write legal, each stored only after all of its reads.  A
    region that spans y and x in full leaves them unshifted, so its every
    slab is a z range that runs flat (:func:`_slab_run`, in one
    ``np.errstate``); any other reads views of the array.
    """
    groups = stencil.groups
    axis, step = plane_axis_and_step(storage, level)
    dst = storage.write_view(region, level)
    n = dst.shape[axis]
    thick = _slab_thickness(dst.nbytes // n)
    lo, hi = region.lo, region.hi
    src, origin = storage.raw_read_array(level - 1)
    _, rows, row = src.shape
    flat = lo[1:] == (0, 0) and hi[1:] == storage.grid.shape[1:]
    with np.errstate(all="ignore" if flat else None):
        for s in range(0, n, thick):
            a, b = ((s, min(s + thick, n)) if step > 0
                    else (max(n - s - thick, 0), n - s))
            slab = Box(lo[:axis] + (lo[axis] + a,) + lo[axis + 1:],
                       hi[:axis] + (lo[axis] + b,) + hi[axis + 1:])
            out = dst[(slice(None),) * axis + (slice(a, b),)]
            if flat:
                _slab_run(groups, src, ((slab.lo[0] + origin[0]) * rows
                                        + origin[1]) * row + origin[2], out)
            else:
                _fma(out, groups, partial(_shifted, src, slab.slices(origin)),
                     slab.shape)
    storage.commit_write(region, level)


def _shifted(src: np.ndarray, at: Tuple[slice, slice, slice],
             off: Tuple[int, int, int]) -> np.ndarray:
    """The view of ``src[at]`` displaced by ``off``."""
    z, y, x = at
    return src[z.start + off[0]:z.stop + off[0], y.start + off[1]:y.stop + off[1],
               x.start + off[2]:x.stop + off[2]]


def accumulate_padded(stencil, src: np.ndarray, dst: np.ndarray,
                      lo: Sequence[int], hi: Sequence[int]) -> None:
    """One slab-wise sweep over interior cells ``[lo, hi)`` of a padded
    pair, straight into ``dst`` (also ``jacobi_sweep_blocked``'s per-tile
    step)."""
    spans = box_spans(Box.make(lo, hi),
                      Box.from_shape([n - 2 for n in src.shape]))
    if spans[0].n and spans[1].n and spans[2].n:
        _accumulate_ring(stencil.groups, src, dst, spans)


class NumpyEngine(Engine):
    """Slab-wise, allocation-free vectorised accumulate (the default)."""

    name = "numpy"
    semantics = "vector-v2"

    def apply(self, stencil, storage, region, level: int) -> None:
        if region.is_empty:
            return
        if storage.n_arrays == 2:
            self.apply_spans(stencil, storage,
                             box_spans(region, storage.domain), level)
        else:
            _accumulate_inplace(stencil, storage, region, level)

    def apply_spans(self, stencil, storage, spans: Spans, level: int) -> None:
        if storage.n_arrays != 2:
            self.apply(stencil, storage, spans_box(spans), level)
            return
        # Every shifted read is a view of the raw array, ring included;
        # a two-grid commit stores nothing, so none is made.
        _accumulate_ring(stencil.groups, storage.ring_array(level - 1),
                         storage.ring_array(level), spans)

    def apply_padded(self, stencil, src: np.ndarray, dst: np.ndarray,
                     lo: Sequence[int], hi: Sequence[int]) -> None:
        accumulate_padded(stencil, src, dst, lo, hi)
