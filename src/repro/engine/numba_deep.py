"""Deep-JIT engine: one ``njit`` region per block traversal.

The plain :class:`~repro.engine.numba_engine.NumbaEngine` compiles only
the per-cell arithmetic — the neighbour gathers and the destination
write still round-trip through Python/numpy between JIT calls,
materialising one full-region temporary per stencil offset.  This
engine compiles the *entire block traversal* instead: a single compiled
loop nest walks the region plane by plane, reads every neighbour
straight out of the backing array (both storages store the Dirichlet
ring, so a read one cell past the domain is an array read too), and
writes each finished plane directly into the destination view.  No
gather temporaries, no ``np.stack``, no per-offset Python dispatch — the
paper's compiled-C inner kernel, for both storage schemes.

Bit-identity with the numpy engine holds for the usual reason: per
cell the compiled loop replays the exact same floating-point sequence
(:attr:`StarStencil.groups`: each group's values summed in order, one
multiply per group, products added in order, the first product starting
the accumulator) in the field dtype with ``fastmath`` off, so no
reassociation or contraction is possible.  The engine therefore stays
in the ``vector-v2`` semantics class and shares serve-cache entries
with every other built-in.

Correctness on the *compressed* grid needs one more ingredient: the
destination view aliases source positions shifted by one cell, so the
traversal must run plane-wise along the first shifted dimension in the
direction the storage offsets move (the same rule
:func:`~repro.engine.base.plane_axis_and_step` gives the numpy
engine, Sect. 1.3's "reverse loops ... on all even sweeps").  The
kernel computes a whole plane into a scratch buffer before storing it,
so every read of a plane precedes its write and later planes never see
clobbered positions.  Rather than compiling three axis variants, the
Python wrapper *permutes* the views so the plane axis is always axis 0
of the compiled loop — transposed numpy views carry their strides, the
per-cell arithmetic is unchanged, and one compiled body serves twogrid
(any order is legal there) and compressed storage alike.

Both flavours are compiled with ``cache=True`` (no re-JIT in warm
spawned workers) and exist in ``parallel=True`` (main-thread) and
serial ``nogil=True`` (threads-rail stage) variants, dispatched exactly
like the base numba engine.
"""

from __future__ import annotations

import numpy as np

from .base import plane_axis_and_step
from .numba_engine import (
    HAVE_NUMBA,
    NumbaEngine,
    _JIT_DISPATCHERS,
    _on_main_thread,
    group_table,
    prange,
)

__all__ = ["NumbaDeepEngine"]


def _deep_block_impl(src, dst, offs, starts, weights, r0a, r0b, r0c, step):
    """One whole block traversal, fused: gather + write.

    Everything arrives in *permuted* coordinates with the legal
    plane axis first: ``dst`` is the (transposed) destination view
    with the region's shape, ``src`` the (transposed) backing array,
    ring cells included, and ``r0`` the index of the region's first
    cell in ``src``.  ``step`` directs the plane walk; within a cell
    the sequence is the group table's (``offs``/``starts``/``weights``,
    at least one group), so the result is bit-identical to numpy.
    Interpreted (no numba) this same body is what the differential
    battery runs.
    """
    n0, n1, n2 = dst.shape
    G = weights.shape[0]
    buf = np.zeros((n1, n2), dtype=dst.dtype)
    for ii in range(n0):
        i = ii if step > 0 else n0 - 1 - ii
        ga = r0a + i
        for j in prange(n1):
            gb = r0b + j
            for k in range(n2):
                gc = r0c + k
                acc = buf[j, k]  # types the accumulators; never added
                total = acc
                for g in range(G):
                    for m in range(starts[g], starts[g + 1]):
                        v = src[ga + offs[m, 0], gb + offs[m, 1],
                                gc + offs[m, 2]]
                        if m == starts[g]:
                            total = v
                        else:
                            total = total + v
                    if g == 0:
                        acc = total * weights[0]
                    else:
                        acc = acc + total * weights[g]
                buf[j, k] = acc
        for j in range(n1):
            for k in range(n2):
                dst[i, j, k] = buf[j, k]


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    import numba

    _deep_block = numba.njit(parallel=True, fastmath=False, cache=True)(
        _deep_block_impl)
    _deep_block_nogil = numba.njit(nogil=True, fastmath=False, cache=True)(
        _deep_block_impl)
    _JIT_DISPATCHERS.extend([_deep_block, _deep_block_nogil])
else:
    _deep_block = _deep_block_nogil = _deep_block_impl


class NumbaDeepEngine(NumbaEngine):
    """Whole-block-traversal JIT: gather and write in one region."""

    name = "numba-deep"
    semantics = "vector-v2"
    jit = True
    requires = "numba"

    def apply(self, stencil, storage, region, level: int) -> None:
        if region.is_empty:
            return
        # The compiled traversal touches raw arrays; the commit stores
        # the compressed grid's moving ring.
        out, at = storage.raw_read_array(level)
        dst = out[region.slices(at)]
        if not stencil.groups:
            dst[...] = 0
            storage.commit_write(region, level)
            return
        src, origin = storage.raw_read_array(level - 1)
        axis, step = plane_axis_and_step(storage, level)
        perm = (axis,) + tuple(d for d in range(3) if d != axis)
        offs, starts, weights = group_table(stencil, storage.grid.dtype, perm)
        r0 = tuple(region.lo[p] + origin[p] for p in perm)
        kern = _deep_block if _on_main_thread() else _deep_block_nogil
        kern(src.transpose(perm), dst.transpose(perm), offs, starts, weights,
             r0[0], r0[1], r0[2], step)
        storage.commit_write(region, level)

    # apply_padded is inherited from NumbaEngine: a padded pair has no
    # storage indirection to fuse — the base
    # engine's direct-offset compiled sweep already is the deep kernel
    # for that layout (and is bit-identical by the same argument).
