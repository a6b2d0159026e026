"""Convergence diagnostics for Jacobi-type iterations.

The paper treats Jacobi as a performance prototype, but a usable library
must also answer "has my boundary-value problem converged?".  These helpers
compute residuals and change norms on interior fields; the heat-equation
example reports convergence with them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..grid.grid3d import Grid3D
from .jacobi import jacobi7, jacobi_sweep_padded
from .stencils import StarStencil

__all__ = ["change_norm", "jacobi_residual"]


def change_norm(a: np.ndarray, b: np.ndarray, ord: float = np.inf) -> float:
    """Norm of the difference between two interior fields (default max-norm)."""
    if a.shape != b.shape:
        raise ValueError("field shapes differ")
    return float(np.linalg.norm((a - b).ravel(), ord=ord))


def jacobi_residual(grid: Grid3D, field: np.ndarray,
                    stencil: Optional[StarStencil] = None,
                    ord: float = np.inf) -> float:
    """Residual ``||S(u) - u||`` of the fixed-point iteration.

    For the plain Jacobi stencil this is the max-norm defect of the
    discrete Laplace equation up to a constant factor; zero iff the field
    is a fixed point of the sweep.
    """
    st = stencil or jacobi7()
    padded = grid.padded(field)
    out = jacobi_sweep_padded(padded, None, st)
    return change_norm(out[1:-1, 1:-1, 1:-1], field, ord=ord)
