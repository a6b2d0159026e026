"""Jacobi stencils and the vectorised single-sweep kernel.

Eq. 1 of the paper::

    B[i,j,k] = 1/6 * (A[i-1,j,k] + A[i+1,j,k] + A[i,j-1,k]
                      + A[i,j+1,k] + A[i,j,k-1] + A[i,j,k+1])

This module provides ready-made :class:`~repro.kernels.stencils.StarStencil`
instances plus the full-array sweeps used by the reference solver and the
host micro-benchmarks.  Since PR 5 the sweeps *dispatch through the
engine registry* (:mod:`repro.engine`): ``jacobi_sweep_padded`` runs any
registered engine over the padded pair (default ``"numpy"``) and
``jacobi_sweep_blocked`` walks the same numpy accumulate tile by tile
with an explicit block — pure traversal reordering that never changes
results, which the tests assert bit-for-bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..engine import get_engine
from ..engine.numpy_engine import accumulate_padded
from .stencils import StarStencil

__all__ = [
    "jacobi7",
    "jacobi5_2d",
    "anisotropic_jacobi",
    "jacobi_sweep_padded",
    "jacobi_sweep_blocked",
]


def jacobi7() -> StarStencil:
    """The paper's 7-point Jacobi stencil (Eq. 1): mean of the 6 neighbors."""
    w = 1.0 / 6.0
    return StarStencil(
        weights={
            (-1, 0, 0): w, (1, 0, 0): w,
            (0, -1, 0): w, (0, 1, 0): w,
            (0, 0, -1): w, (0, 0, 1): w,
        },
        center_weight=0.0,
        name="jacobi7",
    )


def jacobi5_2d() -> StarStencil:
    """A 2-D 5-point Jacobi embedded in 3-D (no z coupling).

    Useful for cheap tests and for the 2-D illustration of Fig. 1.
    """
    w = 0.25
    return StarStencil(
        weights={
            (0, -1, 0): w, (0, 1, 0): w,
            (0, 0, -1): w, (0, 0, 1): w,
        },
        center_weight=0.0,
        name="jacobi5-2d",
    )


def anisotropic_jacobi(wz: float, wy: float, wx: float) -> StarStencil:
    """Axis-weighted Jacobi; weights normalised to sum to one.

    Models anisotropic grids (different mesh spacing per direction) while
    keeping the convergence property ``sum(w) = 1``.
    """
    s = 2.0 * (wz + wy + wx)
    if s <= 0:
        raise ValueError("weights must have a positive sum")
    return StarStencil(
        weights={
            (-1, 0, 0): wz / s, (1, 0, 0): wz / s,
            (0, -1, 0): wy / s, (0, 1, 0): wy / s,
            (0, 0, -1): wx / s, (0, 0, 1): wx / s,
        },
        center_weight=0.0,
        name=f"jacobi7-aniso({wz:g},{wy:g},{wx:g})",
    )


def jacobi_sweep_padded(src: np.ndarray, dst: Optional[np.ndarray] = None,
                        stencil: Optional[StarStencil] = None,
                        engine: str = "numpy") -> np.ndarray:
    """One full sweep over the interior of a *padded* array.

    ``src`` has ghost cells (shape ``interior + 2`` per dim); the interior
    of ``dst`` receives the updated values while ghost cells are copied
    through unchanged.  This is the memory-bandwidth-shaped kernel that the
    host micro-benchmark (experiment E10) times.  ``engine`` picks the
    execution engine from the :mod:`repro.engine` registry; every engine
    produces bit-identical results.
    """
    st = stencil or jacobi7()
    if dst is None:
        dst = src.copy()
    else:
        np.copyto(dst, src)
    interior = tuple(s - 2 for s in src.shape)
    get_engine(engine).apply_padded(st, src, dst, (0, 0, 0), interior)
    return dst


def jacobi_sweep_blocked(src: np.ndarray, dst: np.ndarray,
                         block: Tuple[int, int, int],
                         stencil: Optional[StarStencil] = None) -> np.ndarray:
    """Spatially blocked sweep over a padded array (baseline, Sect. 1.1).

    Traverses the interior in blocks of ``block`` cells (the paper's
    standard code used ≈ 600×20×20 with a long inner loop).  Spatial
    blocking only reorders the traversal; the result is identical to
    :func:`jacobi_sweep_padded`, which the test-suite verifies.
    """
    st = stencil or jacobi7()
    np.copyto(dst, src)
    nz, ny, nx = (s - 2 for s in src.shape)
    tz, ty, tx = (max(1, int(b)) for b in block)
    for z in range(0, nz, tz):
        for y in range(0, ny, ty):
            for x in range(0, nx, tx):
                accumulate_padded(
                    st, src, dst, (z, y, x),
                    (min(z + tz, nz), min(y + ty, ny), min(x + tx, nx)))
    return dst
