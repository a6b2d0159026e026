"""Storage schemes: where a cell's value at time level ``u`` lives.

Two schemes from the paper:

* **Two-grid** (classic Jacobi): grids A and B written in turn; a value at
  level ``u`` lives in array ``u % 2``.  A neighbor read of level ``v`` is
  correct iff the neighbor's current level is ``v`` or ``v+1`` — one level
  higher is fine because that update wrote the *other* array.  This
  "two-buffer window" is exactly what the one-cell shift of the pipelined
  schedule guarantees.

* **Compressed grid** (Sect. 1.3): one grid; every update writes shifted by
  one cell along the tiled dimensions, alternate passes shift back,
  "saving nearly half the memory and lessening the bandwidth
  requirements".  A value of cell ``c`` at level ``v`` lives at position
  ``c + off(v)``, correct until a later update's write reaches it.

Neither layout tracks levels.  That a schedule only reads values still
stored is proven before it runs (:func:`repro.analysis.assert_legal`,
which ``repro.solve(validate=True)`` calls), and the tests pin every
rail byte-equal to :func:`repro.kernels.reference_sweeps`; a storage
holds its value arrays and nothing per cell besides.

Both layouts store a one-cell Dirichlet **ring** on every face, so every
shifted read — :meth:`_StorageBase.gather` — is a plain view.  The
two-grid rings are filled once from ``grid.boundary`` and never written
again.  A compressed ring cell moves with the level exactly as an
interior cell does, so :meth:`CompressedStorage.commit_write` stores the
ring next to each committed region (see the class).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..grid.grid3d import Grid3D
from ..grid.region import Box

__all__ = ["StorageError", "TwoGridStorage", "CompressedStorage", "make_storage"]


class StorageError(RuntimeError):
    """Values that do not fit the region they are stored into."""


class _StorageBase:
    """Shared machinery: ring reads, the write protocol, injection."""

    def __init__(self, grid: Grid3D, field: np.ndarray) -> None:
        if field.shape != grid.shape:
            raise ValueError(f"field shape {field.shape} != grid shape {grid.shape}")
        self.grid = grid
        self.domain = grid.domain

    # -- interface implemented by subclasses -------------------------------------

    def _view(self, box: Box, level: int) -> np.ndarray:
        """Where the values of ``box`` at ``level`` live."""
        raise NotImplementedError

    # -- common operations ---------------------------------------------------------

    def read(self, box: Box, level: int) -> np.ndarray:
        """Values of ``box`` at time ``level`` (may be a view).

        The public read entry point of the execution engines; ``box``
        must lie inside the stored domain (use :meth:`gather` for
        stencil reads that may cross the Dirichlet ring).
        """
        return self._view(box, level)

    def write(self, region: Box, level: int, values: np.ndarray) -> None:
        """Commit the update ``level-1 -> level`` on ``region``."""
        if region.is_empty:
            return
        if values.shape != region.shape:
            raise StorageError(
                f"write values shape {values.shape} != region shape {region.shape}")
        self.write_view(region, level)[...] = values
        self.commit_write(region, level)

    def write_view(self, region: Box, level: int) -> np.ndarray:
        """Writable destination view for the update ``level-1 -> level``.

        The fused engines' entry point: the caller fills the view, then
        calls :meth:`commit_write`.  Two-grid views live in the *other*
        array, so they never alias level-1 reads.  Compressed views are
        the *shifted* positions — the paper's in-place update — and
        overlap positions still holding level-1 values of other cells,
        so the caller must traverse planes in the direction the storage
        offsets move and fill each part only after all its reads.
        """
        return self._view(region, level)

    def commit_write(self, region: Box, level: int) -> None:
        """Finish the update of ``region`` to ``level``.

        Called once the :meth:`write_view` (or the raw array) holds the
        region's values and every read of the update is done.  A no-op
        on the two-grid layout; the compressed grid stores its moving
        ring cells here.
        """

    def extract_region(self, box: Box, level: int) -> np.ndarray:
        """Copy out ``box`` at ``level``."""
        return self._view(box, level).copy()

    def inject(self, box: Box, level: int, values: np.ndarray) -> None:
        """Overwrite ``box`` with externally produced values at ``level``.

        Used by the multi-halo exchange: ghost cells receive the neighbor
        rank's fully updated values, jumping their level forward.
        """
        if values.shape != box.shape:
            raise StorageError("inject shape mismatch")
        self._view(box, level)[...] = values
        self.commit_write(box, level)

    def extract(self, level: int) -> np.ndarray:
        """The whole interior at a uniform time level."""
        return self.extract_region(self.domain, level)

    def gather(self, region: Box, off: Tuple[int, int, int], level: int) -> np.ndarray:
        """Values of the cells ``region + off`` at time ``level``: a view.

        ``region`` lies inside the domain and ``|off| <= 1``, so the
        cells stay within the stored ring.
        """
        return self._view(region.shift(off), level)

    def raw_read_array(self, level: int) -> Tuple[np.ndarray, Tuple[int, int, int]]:
        """The backing array holding ``level`` plus its index origin.

        Raw access for fused engines: returns ``(array, origin)`` such
        that the value of cell ``c`` at time ``level`` — interior or
        ring — lives at ``array[c + origin]``, which is also where the
        update to ``level`` writes it.  Callers that write through this
        path call :meth:`commit_write` after the update.
        """
        raise NotImplementedError


class TwoGridStorage(_StorageBase):
    """Separate grids A and B, written in turn (Sect. 1.1 baseline layout).

    Both are padded: cell ``c`` lives at index ``c + (1, 1, 1)`` and the
    one-cell ring around the interior holds the Dirichlet values.
    """

    n_arrays = 2
    _ORIGIN = (1, 1, 1)

    def __init__(self, grid: Grid3D, field: np.ndarray) -> None:
        super().__init__(grid, field)
        a = grid.padded(field)
        b = np.full(a.shape, np.nan, dtype=grid.dtype)
        grid.fill_ghost_ring(b)
        self._arrays = [a, b]

    def _view(self, box: Box, level: int) -> np.ndarray:
        return self._arrays[level % 2][box.slices(self._ORIGIN)]

    def ring_array(self, level: int) -> np.ndarray:
        """Padded array ``level % 2``: holds ``level``, receives the update
        to it.

        Index 0 is cell ``-1``, the layout the slices of a
        :class:`~repro.grid.blocks.AxisSpan` address, so a region and its
        shifted reads are ``array[sz[dz], sy[dy], sx[dx]]``.
        """
        return self._arrays[level % 2]

    def raw_read_array(self, level: int) -> Tuple[np.ndarray, Tuple[int, int, int]]:
        """:meth:`ring_array`; origin ``(1, 1, 1)`` skips the ring."""
        return self.ring_array(level), self._ORIGIN

    @property
    def array_bytes(self) -> int:
        """Bytes held by the value arrays (two grids, ghost rings included)."""
        return sum(a.nbytes for a in self._arrays)


class CompressedStorage(_StorageBase):
    """Single compressed grid with alternating shift direction (Sect. 1.3).

    Parameters
    ----------
    shift_vec:
        Unit vector with 1 in each shifted (tiled) dimension; comes from
        the block decomposition.
    updates_per_pass:
        ``n*t*T``; offsets accumulate to this within a pass and unwind in
        the next ("alternate team sweeps shift by (-1,-1,-1) and
        (+1,+1,+1)").

    The array carries a one-cell Dirichlet ring on every face.  A ring
    cell is a cell one step past the domain and moves with the level as
    an interior cell does: its position at level ``L`` is either not yet
    occupied (leading face) or the level-``L-1`` slot of the last
    interior plane (trailing face), which the region's own slab walk
    reads before the commit.  So on a *moving* face — every face of a
    shifted axis, every face of a ``func`` boundary —
    :meth:`commit_write` stores the ring cells next to the region from a
    table built once (level 0's too, from the constructor).  The faces
    of an unshifted axis under a face-constant boundary hold the same
    bytes at every level: filled once over the stored length, never
    written.
    """

    n_arrays = 1

    def __init__(self, grid: Grid3D, field: np.ndarray,
                 shift_vec: Tuple[int, int, int], updates_per_pass: int) -> None:
        super().__init__(grid, field)
        if updates_per_pass < 1:
            raise ValueError("updates_per_pass must be >= 1")
        if any(v not in (0, 1) for v in shift_vec) or not any(shift_vec):
            raise ValueError(f"bad shift vector {shift_vec!r}")
        self.shift_vec = tuple(int(v) for v in shift_vec)
        self.updates_per_pass = int(updates_per_pass)
        self.margin = tuple(self.updates_per_pass * v for v in self.shift_vec)
        #: Index of cell 0 at offset 0: margin plus the ring.
        self._lo = tuple(m + 1 for m in self.margin)
        store_shape = tuple(n + m + 2 for n, m in zip(grid.shape, self.margin))
        self._array = np.full(store_shape, np.nan, dtype=grid.dtype)
        moving = tuple(int(v or grid.boundary.func is not None) for v in self.shift_vec)
        #: ``(dim, side, ring box, its values)`` per moving face.
        self._faces: List[Tuple[int, int, Box, np.ndarray]] = []
        for d in range(3):
            for side, at in ((-1, 0), (1, -1)):
                face = self.domain.outer_face(d, side)
                if moving[d]:
                    self._faces.append((d, side, face, grid.face_values(d, side)))
                else:
                    self._array[(slice(None),) * d + (at,)] = grid.boundary.face_value(d, side)
        self._view(self.domain, 0)[...] = field
        self.commit_write(self.domain, 0)

    def offset_scalar(self, level: int) -> int:
        """Cumulative shift (<= 0) of level ``level`` along shifted dims."""
        if level < 0:
            raise ValueError("negative level")
        p, r = divmod(level, self.updates_per_pass)
        return -r if p % 2 == 0 else -(self.updates_per_pass - r)

    def _origin(self, level: int) -> Tuple[int, int, int]:
        """Where cell ``(0, 0, 0)`` of ``level`` lives in the array."""
        o = self.offset_scalar(level)
        return tuple(lo + o * v for lo, v in  # type: ignore[return-value]
                     zip(self._lo, self.shift_vec))

    def _view(self, box: Box, level: int) -> np.ndarray:
        return self._array[box.slices(self._origin(level))]

    def commit_write(self, region: Box, level: int) -> None:
        """Store the moving-face ring cells beside ``region``.

        Called after every read of ``region``'s update, so the trailing
        face's store lands on a slot nobody reads any more.
        """
        if region.is_empty:
            return
        origin = self._origin(level)
        for d, side, face, values in self._faces:
            cells = region.outer_face(d, side)
            if cells.lo[d] != face.lo[d]:
                continue
            self._array[cells.slices(origin)] = values[
                cells.slices(tuple(-c for c in face.lo))]

    def raw_read_array(self, level: int) -> Tuple[np.ndarray, Tuple[int, int, int]]:
        """The compressed array; origin folds in level shift, margin and ring."""
        return self._array, self._origin(level)

    @property
    def array_bytes(self) -> int:
        """Bytes held by the (single) value array, margin and ring included."""
        return self._array.nbytes


def make_storage(scheme: str, grid: Grid3D, field: np.ndarray,
                 shift_vec: Tuple[int, int, int], updates_per_pass: int,
                 validate: bool = False):
    """Factory used by the pipeline front-end."""
    # ``validate`` stays for the frozen benchmark's storage probe only.
    if validate:
        raise ValueError("storages keep no level bookkeeping; certify the "
                         "schedule with repro.analysis.assert_legal instead")
    if scheme == "twogrid":
        return TwoGridStorage(grid, field)
    if scheme == "compressed":
        return CompressedStorage(grid, field, shift_vec, updates_per_pass)
    raise ValueError(f"unknown storage scheme {scheme!r}")
