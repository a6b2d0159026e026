"""Fused in-place updates: write straight into the destination storage.

The compressed grid (Sect. 1.3) makes in-place updates possible in the
first place: every update writes shifted by one cell along the tiled
dimensions, so a cell's new value lands on a position whose old value
has already been consumed — *provided the traversal runs in the right
direction* ("reverse loops, running from large to small indices, on all
even sweeps").  This engine honours that rule at the finest grain the
storage API offers: it sweeps the region one plane at a time along the
first shifted dimension in the direction the storage offsets move
(:func:`~repro.engine.base.plane_axis_and_step`), and fills and commits
each plane's destination view through
``storage.write_view``/``commit_write`` — so under ``validate=True`` the
position tracking checks the ordering plane by plane.  (The numpy
engine walks the same direction in cache-sized slabs with one commit
per region.)  Per plane only two scratch planes exist, and the
accumulation replays the numpy engine's exact per-cell operation
sequence (zero-init, one multiply-add per nonzero offset in canonical
order, centre term last), so the result stays bit-identical.

On the two-grid layout there is no aliasing at all (the destination is
the other array) and the plane sweep simply saves the temporaries.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..grid.region import Box
from .base import Engine, nonzero_terms, plane_axis_and_step
from .numpy_engine import accumulate_padded

__all__ = ["InplaceEngine"]


class InplaceEngine(Engine):
    """Plane-wise fused update writing destination views directly."""

    name = "inplace"
    semantics = "vector-v1"
    fused_inplace = True

    def apply(self, stencil, storage, region, level: int) -> None:
        if region.is_empty:
            return
        axis, step = plane_axis_and_step(storage, level)
        planes = range(region.lo[axis], region.hi[axis])
        if step < 0:
            planes = reversed(planes)
        terms = nonzero_terms(stencil)
        cw = stencil.center_weight
        acc = scratch = None
        for p in planes:
            lo = list(region.lo)
            hi = list(region.hi)
            lo[axis], hi[axis] = p, p + 1
            plane = Box(tuple(lo), tuple(hi))
            if acc is None:
                acc = np.empty(plane.shape, dtype=storage.grid.dtype)
                scratch = np.empty_like(acc)
            center = storage.read(plane, level - 1) if cw != 0.0 else None
            acc.fill(0.0)
            for off, w in terms:
                np.multiply(storage.gather(plane, off, level - 1), w,
                            out=scratch)
                np.add(acc, scratch, out=acc)
            if cw != 0.0:
                np.multiply(center, cw, out=scratch)
                np.add(acc, scratch, out=acc)
            dst = storage.write_view(plane, level)
            dst[...] = acc
            storage.commit_write(plane, level)

    def apply_padded(self, stencil, src: np.ndarray, dst: np.ndarray,
                     lo: Sequence[int], hi: Sequence[int]) -> None:
        # No aliasing to order around in a padded pair: the shared slab
        # sweep already bounds the temporaries.
        accumulate_padded(stencil, src, dst, lo, hi)
