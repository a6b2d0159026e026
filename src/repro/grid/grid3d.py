"""3-D computational domain with Dirichlet boundary ring.

The paper's Jacobi solver (Eq. 1) updates the *interior* of a cubic domain
while a one-cell boundary ring supplies fixed (Dirichlet) values.  The
ring is *described* by a :class:`DirichletBoundary` object.  As in the
original C code, every storage materialises it as ghost cells: the
two-grid storage once (:meth:`Grid3D.padded` /
:meth:`Grid3D.fill_ghost_ring`), the compressed grid, whose positions
move with the level, per level on the faces that move
(:meth:`Grid3D.face_values` tables built once) and once
on the rest (:meth:`DirichletBoundary.face_value`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .region import Box

__all__ = ["DirichletBoundary", "Grid3D", "random_field"]

FaceKey = Tuple[int, int]  # (dim, side) with side in {-1, +1}
BoundaryFunc = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


class DirichletBoundary:
    """Fixed-value boundary for a 3-D interior domain.

    The boundary conceptually occupies the one-cell ring around the
    interior: coordinates ``-1`` and ``n_d`` in each dimension ``d``.  Values
    may be

    * a single scalar (same value on every face),
    * per-face scalars via ``faces={(dim, side): value}``, or
    * a callable ``f(z, y, x) -> values`` evaluated on boundary-cell
      coordinates (arrays broadcast together), for spatially varying data.

    Boundary values are immutable during a solve, which is what makes them
    readable at *any* time level by the temporal-blocking engines.
    """

    def __init__(
        self,
        value: float = 0.0,
        faces: Optional[Dict[FaceKey, float]] = None,
        func: Optional[BoundaryFunc] = None,
    ) -> None:
        self.default = float(value)
        self.faces: Dict[FaceKey, float] = dict(faces or {})
        self.func = func
        for (dim, side) in self.faces:
            if dim not in (0, 1, 2) or side not in (-1, 1):
                raise ValueError(f"bad face key {(dim, side)}")

    def face_value(self, dim: int, side: int) -> float:
        """Scalar value of a face (ignores ``func``)."""
        return self.faces.get((dim, side), self.default)

    def values_for_face(self, dim: int, side: int, box: Box, dtype=np.float64) -> np.ndarray:
        """Boundary values for ``box``, which lies on face ``(dim, side)``.

        ``func`` evaluated on the box's cell coordinates, or the face's
        scalar, broadcast (read-only) to the box's shape.
        """
        if self.func is None:
            vals = np.asarray(self.face_value(dim, side), dtype=dtype)
        else:
            z = np.arange(box.lo[0], box.hi[0]).reshape(-1, 1, 1)
            y = np.arange(box.lo[1], box.hi[1]).reshape(1, -1, 1)
            x = np.arange(box.lo[2], box.hi[2]).reshape(1, 1, -1)
            vals = np.asarray(self.func(z, y, x), dtype=dtype)
        return np.broadcast_to(vals, box.shape)


InitSpec = Union[float, np.ndarray, Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]]


class Grid3D:
    """Description of a 3-D Jacobi problem: interior shape + boundary + init.

    ``Grid3D`` deliberately does **not** own the solution arrays — the
    storage schemes (two-grid, compressed grid) of
    :mod:`repro.core.storage` do, because *where* values live at a given
    time level is exactly what those schemes vary.

    Parameters
    ----------
    shape:
        Interior extents ``(nz, ny, nx)``; the contiguous ("x") dimension is
        last, matching the paper's long-inner-loop layout.
    boundary:
        Dirichlet boundary ring; defaults to all-zero.
    dtype:
        Floating dtype of the fields (paper uses double precision).
    """

    def __init__(
        self,
        shape: Sequence[int],
        boundary: Optional[DirichletBoundary] = None,
        dtype=np.float64,
    ) -> None:
        if len(shape) != 3 or any(int(s) < 1 for s in shape):
            raise ValueError(f"shape must be three positive extents, got {shape!r}")
        self.shape: Tuple[int, int, int] = (int(shape[0]), int(shape[1]), int(shape[2]))
        self.boundary = boundary if boundary is not None else DirichletBoundary(0.0)
        self.dtype = np.dtype(dtype)

    @property
    def domain(self) -> Box:
        """The interior as a box ``[0, shape)``."""
        return Box.from_shape(self.shape)

    @property
    def ncells(self) -> int:
        """Number of interior cells."""
        return self.shape[0] * self.shape[1] * self.shape[2]

    def make_field(self, init: InitSpec = 0.0) -> np.ndarray:
        """Materialise an interior field from a scalar, array or callable."""
        if callable(init):
            z = np.arange(self.shape[0]).reshape(-1, 1, 1)
            y = np.arange(self.shape[1]).reshape(1, -1, 1)
            x = np.arange(self.shape[2]).reshape(1, 1, -1)
            arr = np.asarray(init(z, y, x), dtype=self.dtype)
            return np.ascontiguousarray(np.broadcast_to(arr, self.shape)).copy()
        if isinstance(init, np.ndarray):
            if init.shape != self.shape:
                raise ValueError(f"init shape {init.shape} != grid shape {self.shape}")
            return np.ascontiguousarray(init.astype(self.dtype, copy=True))
        return np.full(self.shape, float(init), dtype=self.dtype)

    def padded(self, field: np.ndarray) -> np.ndarray:
        """Interior field embedded in a ghost ring filled with boundary values.

        Used by the reference sweeps and the two-grid storage; ring
        *edges/corners* are filled too (by extending faces in dimension
        order) although 7-point star stencils never read them.
        """
        if field.shape != self.shape:
            raise ValueError("field shape mismatch")
        n = self.shape
        out = np.zeros((n[0] + 2, n[1] + 2, n[2] + 2), dtype=self.dtype)
        out[1:-1, 1:-1, 1:-1] = field
        self.fill_ghost_ring(out)
        return out

    def face_values(self, dim: int, side: int) -> np.ndarray:
        """Boundary values of the whole ring face ``(dim, side)`` (read-only)."""
        return self.boundary.values_for_face(
            dim, side, self.domain.outer_face(dim, side), dtype=self.dtype)

    def fill_ghost_ring(self, padded: np.ndarray) -> None:
        """(Re)fill the one-cell ghost ring of ``padded`` with boundary values."""
        n = self.shape
        for dim in range(3):
            for side in (-1, 1):
                vals = self.face_values(dim, side)
                sl = [slice(1, n[d] + 1) for d in range(3)]
                sl[dim] = slice(0, 1) if side < 0 else slice(n[dim] + 1, n[dim] + 2)
                padded[tuple(sl)] = vals
        # Edges/corners: copy from adjacent faces so generic inspect tools see
        # finite values; star stencils never read these.
        padded[0, 0, :] = padded[0, 1, :]
        padded[0, -1, :] = padded[0, -2, :]
        padded[-1, 0, :] = padded[-1, 1, :]
        padded[-1, -1, :] = padded[-1, -2, :]
        padded[:, 0, 0] = padded[:, 0, 1]
        padded[:, 0, -1] = padded[:, 0, -2]
        padded[:, -1, 0] = padded[:, -1, 1]
        padded[:, -1, -1] = padded[:, -1, -2]
        padded[0, :, 0] = padded[1, :, 0]
        padded[0, :, -1] = padded[1, :, -1]
        padded[-1, :, 0] = padded[-2, :, 0]
        padded[-1, :, -1] = padded[-2, :, -1]


def random_field(shape: Sequence[int], rng: Optional[np.random.Generator] = None,
                 lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """A uniform random interior field, for tests and examples."""
    rng = rng or np.random.default_rng()
    return rng.uniform(lo, hi, size=tuple(int(s) for s in shape))
