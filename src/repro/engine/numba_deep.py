"""Deep-JIT engine: one ``njit`` region per block traversal.

The plain :class:`~repro.engine.numba_engine.NumbaEngine` compiles only
the per-cell arithmetic — the neighbour gathers, the Dirichlet boundary
patch and the destination write still round-trip through Python/numpy
between JIT calls, materialising one full-region temporary per stencil
offset.  This engine compiles the *entire block traversal* instead: a
single compiled loop nest walks the region plane by plane, reads every
neighbour straight out of the backing array (patching out-of-domain
reads from precomputed boundary-face tables), and writes each finished
plane directly into the destination view.  No gather temporaries, no
``np.stack``, no per-offset Python dispatch — the paper's compiled-C
inner kernel, for both storage schemes.

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

import threading
import weakref

import numpy as np

from .base import group_table, plane_axis_and_step
from .numba_engine import (
    HAVE_NUMBA,
    NumbaEngine,
    _JIT_DISPATCHERS,
    _on_main_thread,
    prange,
)

__all__ = ["NumbaDeepEngine"]


def _deep_block_impl(src, dst, offs, starts, weights,
                     r0a, r0b, r0c, s0a, s0b, s0c,
                     dma, dmb, dmc, step,
                     falo, fahi, fblo, fbhi, fclo, fchi):
    """One whole block traversal, fused: gather + patch + write.

    Everything arrives in *permuted* coordinates with the legal
    plane axis first: ``dst`` is the (transposed) destination view
    with the region's shape, ``src`` the (transposed) backing array
    read at ``global coord + s0``, ``r0`` the region origin, ``dm``
    the domain extents and ``f*`` the six boundary-face tables.
    ``step`` directs the plane walk; within a cell the sequence is
    the group table's (``offs``/``starts``/``weights``, at least one
    group), so the result is bit-identical to numpy.  Interpreted
    (no numba) this same body is what the differential battery runs.
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
                        za = ga + offs[m, 0]
                        zb = gb + offs[m, 1]
                        zc = gc + offs[m, 2]
                        if za < 0:
                            v = falo[zb, zc]
                        elif za >= dma:
                            v = fahi[zb, zc]
                        elif zb < 0:
                            v = fblo[za, zc]
                        elif zb >= dmb:
                            v = fbhi[za, zc]
                        elif zc < 0:
                            v = fclo[za, zb]
                        elif zc >= dmc:
                            v = fchi[za, zb]
                        else:
                            v = src[za + s0a, zb + s0b, zc + s0c]
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


#: Per-storage boundary-face tables (six squeezed 2-D arrays), built
#: once per solve and freed with the storage.  One registered engine
#: instance serves every thread, so the cache is lock-guarded.
_FACE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_FACE_LOCK = threading.Lock()


def _boundary_faces(storage):
    """The six domain-face value tables, in original dimension order.

    ``faces[dim][0 if side < 0 else 1]`` is a 2-D array over the two
    remaining dimensions (ascending order) holding the Dirichlet values
    a gather would patch in for reads straying past that face — the
    same :meth:`values_for_face` data, materialised once per storage so
    the compiled kernel can index it per cell.
    """
    with _FACE_LOCK:
        cached = _FACE_CACHE.get(storage)
    if cached is not None:
        return cached
    grid = storage.grid
    faces = []
    for dim in range(3):
        rest = [grid.shape[d] for d in range(3) if d != dim]
        pair = []
        for side in (-1, 1):
            box = grid.domain.outer_face(dim, side, 1)
            vals = grid.boundary.values_for_face(dim, side, box,
                                                 dtype=grid.dtype)
            pair.append(np.ascontiguousarray(vals).reshape(rest))
        faces.append(tuple(pair))
    result = tuple(faces)
    with _FACE_LOCK:
        _FACE_CACHE[storage] = result
    return result


def _permuted_faces(faces, perm):
    """Face tables reindexed for a ``perm``-transposed coordinate frame.

    The kernel indexes the face of permuted dim ``i`` by the other two
    *permuted* coordinates in order; when that order inverts the
    original ascending-axes layout the table is transposed (a view).
    """
    out = []
    for i in range(3):
        lo, hi = faces[perm[i]]
        rem = tuple(perm[j] for j in range(3) if j != i)
        if rem[0] > rem[1]:
            lo, hi = lo.T, hi.T
        out.append((lo, hi))
    return out


class NumbaDeepEngine(NumbaEngine):
    """Whole-block-traversal JIT: gather, patch and write in one region."""

    name = "numba-deep"
    semantics = "vector-v2"
    fused_inplace = True
    jit = True
    requires = "numba"

    def apply(self, stencil, storage, region, level: int) -> None:
        if region.is_empty:
            return
        # All validation a per-offset gather sequence would run happens
        # up front (reads), then via write_view (destination); the
        # compiled traversal itself touches raw arrays.
        storage.check_traversal(
            region, [off for off, _ in stencil.terms if any(off)], level - 1)
        dst = storage.write_view(region, level)
        if not stencil.groups:
            dst[...] = 0
            storage.commit_write(region, level)
            return
        src, origin = storage.raw_read_array(level - 1)
        axis, step = plane_axis_and_step(storage, level)
        perm = (axis,) + tuple(d for d in range(3) if d != axis)
        faces = _permuted_faces(_boundary_faces(storage), perm)
        offs, starts, weights = group_table(stencil, storage.grid.dtype, perm)
        r0 = tuple(region.lo[p] for p in perm)
        s0 = tuple(origin[p] for p in perm)
        dom = tuple(storage.grid.shape[p] for p in perm)
        kern = _deep_block if _on_main_thread() else _deep_block_nogil
        kern(src.transpose(perm), dst.transpose(perm), offs, starts, weights,
             r0[0], r0[1], r0[2], s0[0], s0[1], s0[2],
             dom[0], dom[1], dom[2], step,
             faces[0][0], faces[0][1], faces[1][0], faces[1][1],
             faces[2][0], faces[2][1])
        storage.commit_write(region, level)

    # apply_padded is inherited from NumbaEngine: a padded pair has no
    # storage indirection and no boundary patch to fuse — the base
    # engine's direct-offset compiled sweep already is the deep kernel
    # for that layout (and is bit-identical by the same argument).
