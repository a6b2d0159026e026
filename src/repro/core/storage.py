"""Storage schemes: where a cell's value at time level ``u`` lives.

Two schemes from the paper:

* **Two-grid** (classic Jacobi): grids A and B written in turn; a value at
  level ``u`` lives in array ``u % 2``.  A neighbor read of level ``v`` is
  legal iff the neighbor's current level is ``v`` or ``v+1`` — one level
  higher is fine because that update wrote the *other* array.  This
  "two-buffer window" is exactly what the one-cell shift of the pipelined
  schedule guarantees, and the storage validates it on every stencil
  read — once per update region (:meth:`_StorageBase.check_update`).

* **Compressed grid** (Sect. 1.3): one grid; every update writes shifted by
  one cell along the tiled dimensions, alternate passes shift back,
  "saving nearly half the memory and lessening the bandwidth
  requirements".  A value of cell ``c`` at level ``v`` lives at position
  ``c + off(v)``.  The storage tracks, per position, which level last
  wrote it; a gather asserts the position still holds the requested level,
  so any schedule that would clobber live data is caught deterministically.

Both layouts store a one-cell Dirichlet **ring** on every face, so every
shifted read — :meth:`_StorageBase.gather` — is a plain view.  The
two-grid rings are filled once from ``grid.boundary`` and never written
again.  A compressed ring cell moves with the level exactly as an
interior cell does, so :meth:`CompressedStorage.commit_write` stores the
ring next to each committed region (see the class).  Level bookkeeping
exists to *validate* schedules and is allocated and written only under
``validate=True``.  An update's reads — its region and the region
displaced by each stencil offset — cover the region plus one outer face
per offset, so validation tests each of those cells once: the region
against the layout's read predicate (and the write's uniform level), the
faces against the read predicate.  Only a failed test replays the
per-read checks, so the error names the first illegal read.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from ..grid.grid3d import Grid3D
from ..grid.region import Box

__all__ = ["StorageError", "TwoGridStorage", "CompressedStorage", "make_storage"]

#: Level bookkeeping dtype: levels stay far below 2**31, and half the
#: bytes of int64 are half the traffic of every validated update.
_LEVEL = np.int32

#: ``(axis, bit)`` of every radius-1 axis offset: bit 1 is the low outer
#: face of a region, bit 2 the high one.
_FACE_BIT = {(-1, 0, 0): (0, 1), (1, 0, 0): (0, 2), (0, -1, 0): (1, 1),
             (0, 1, 0): (1, 2), (0, 0, -1): (2, 1), (0, 0, 1): (2, 2)}


class StorageError(RuntimeError):
    """A storage-level legality violation (illegal schedule detected)."""


class _StorageBase:
    """Shared machinery: level tracking, ring reads, injection."""

    def __init__(self, grid: Grid3D, field: np.ndarray, validate: bool = True) -> None:
        if field.shape != grid.shape:
            raise ValueError(f"field shape {field.shape} != grid shape {grid.shape}")
        self.grid = grid
        self.domain = grid.domain
        #: Cells whose reads are level-checked: the domain, plus the ring
        #: cells a layout rewrites per level.
        self._checked = self.domain
        self.validate = bool(validate)
        #: Current time level of every interior cell; validation only,
        #: ``None`` otherwise.
        self.levels: Any = (np.zeros(grid.shape, dtype=_LEVEL)
                            if self.validate else None)

    # -- interface implemented by subclasses -------------------------------------

    def _view(self, box: Box, level: int) -> np.ndarray:
        """Where the values of ``box`` at ``level`` live (unvalidated view)."""
        raise NotImplementedError

    def _check_read(self, box: Box, level: int) -> None:
        """Raise unless ``box`` is legally readable at ``level``."""
        raise NotImplementedError

    def _read_levels(self, level: int) -> Tuple[np.ndarray, Tuple[int, int, int], int]:
        """The read predicate of :meth:`_check_read`, as data.

        ``(array, origin, window)``: cell ``c`` is readable at ``level``
        iff ``array[c + origin]`` is ``level`` (``window`` 1) or
        ``level`` or ``level + 1`` (``window`` 2).
        """
        raise NotImplementedError

    # -- common operations ---------------------------------------------------------

    def _read_inside(self, box: Box, level: int) -> np.ndarray:
        if self.validate:
            self._check_read(box, level)
        return self._view(box, level)

    def read(self, box: Box, level: int) -> np.ndarray:
        """Values of ``box`` at time ``level`` (validated; may be a view).

        The public read entry point of the execution engines; ``box``
        must lie inside the stored domain (use :meth:`gather` for
        stencil reads that may cross the Dirichlet ring).
        """
        return self._read_inside(box, level)

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
        calls :meth:`commit_write`; pre-write legality checks run now,
        before any byte moves.  Two-grid views live in the *other*
        array, so they never alias level-1 reads.  Compressed views are
        the *shifted* positions — the paper's in-place update — and
        overlap positions still holding level-1 values of other cells,
        so the caller must traverse planes in the direction the storage
        offsets move and fill each part only after all its reads; the
        commit then flips the position tracking, so an ordering mistake
        is still caught deterministically by the next validated read.
        """
        self.check_write(region, level)
        return self._view(region, level)

    def check_write(self, region: Box, level: int) -> None:
        """The pre-write legality checks of :meth:`write_view`, alone.

        For callers that address the destination themselves (the table
        slices of :meth:`TwoGridStorage.ring_array`).  No-op when
        validation is off or ``region`` is empty.
        """
        if self.validate and not region.is_empty:
            if not self.domain.contains_box(region):
                raise StorageError(f"write region {region} outside stored domain")
            self.check_uniform_level(region, level - 1)

    def commit_write(self, region: Box, level: int) -> None:
        """Mark a :meth:`write_view` destination as written.

        The caller must have filled the view completely; only after the
        commit do level bookkeeping (and, for the compressed grid, the
        position tracking) reflect the update.
        """
        if self.validate and not region.is_empty:
            self.levels[region.slices()] = level

    def extract_region(self, box: Box, level: int) -> np.ndarray:
        """Copy out ``box`` at a uniform ``level`` (validated)."""
        if self.validate:
            self.check_uniform_level(box, level)
            # A two-grid cell at exactly ``level`` is readable at it.
            if self._read_levels(level)[0] is not self.levels:
                self._check_read(box, level)
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
        cells stay within the stored ring.  Under validation the cells a
        layout level-checks (:meth:`check_traversal`) are checked.
        """
        nb = region.shift(off)
        if self.validate:
            if not self.domain.contains_box(region):
                raise StorageError(f"gather region {region} outside stored domain")
            self._check_read(nb.intersect(self._checked), level)
        return self._view(nb, level)

    def check_traversal(self, region: Box, offsets, level: int) -> None:
        """Validate every read a fused block traversal would perform.

        Fused engines read the raw arrays directly, so the legality
        validation :meth:`gather` would run per offset happens here
        instead, up front: the centre read plus each shifted read, on
        the domain and on the ring cells the layout rewrites per level,
        with the checks (two-buffer window, compressed-position
        tracking) a per-offset gather sequence performs.  ``offsets``
        are radius-1 axis offsets, as every star stencil's are.  Each
        cell is tested once; a failure raises the error the per-offset
        sequence raises first.  No-op when validation is off or
        ``region`` is empty.
        """
        if self.validate and self._bad_update(region, offsets, level, False):
            self._replay_reads(region, offsets, level)
            raise AssertionError(f"level test and per-read replay disagree on {region}")

    def check_update(self, region: Box, offsets, level: int) -> None:
        """:meth:`check_traversal` at ``level - 1``, then :meth:`check_write`.

        Every legality check of the update ``level-1 -> level`` on
        ``region``, in one call: the fused engines' entry point, after
        which they read :meth:`raw_read_array` ``(level - 1)``, write
        :meth:`raw_read_array` ``(level)`` and call :meth:`commit_write`.
        Raises exactly what the two calls would, in that order.
        """
        if self.validate and self._bad_update(region, offsets, level - 1, True):
            self._replay_reads(region, offsets, level - 1)
            self.check_write(region, level)
            raise AssertionError(f"level test and per-read replay disagree on {region}")

    def _bad_update(self, region: Box, offsets, level: int, write: bool) -> bool:
        """Whether some check of :meth:`check_traversal` (and, with
        ``write``, the uniform level :meth:`check_write` asks for) fails
        on ``region`` read at ``level``.

        The reads of the region and of the region displaced by each
        offset cover the region plus, per offset, the outer face on its
        side, clipped to the level-checked cells.  One array over their
        star hull holds each cell's distance above ``level``; the region
        and each axis' faces (one strided slice) are tested on it.
        """
        lo, hi = region.lo, region.hi
        if hi[0] <= lo[0] or hi[1] <= lo[1] or hi[2] <= lo[2]:
            return False
        dlo, dhi = self.domain.lo, self.domain.hi
        if not (dlo[0] <= lo[0] and dlo[1] <= lo[1] and dlo[2] <= lo[2]
                and hi[0] <= dhi[0] and hi[1] <= dhi[1] and hi[2] <= dhi[2]):
            return True
        sides = [0, 0, 0]
        for off in offsets:
            if off in _FACE_BIT:
                d, bit = _FACE_BIT[off]
                sides[d] |= bit
            elif any(off):
                raise ValueError(f"offset {off} is not a radius-1 axis offset")
        arr, origin, window = self._read_levels(level)
        clo, chi = self._checked.lo, self._checked.hi
        hull: List[slice] = []
        inner: List[slice] = []
        outer: List[Optional[slice]] = []
        for d in range(3):
            low = int(sides[d] & 1 and lo[d] > clo[d])
            high = int(sides[d] & 2 and hi[d] < chi[d])
            n = hi[d] - lo[d]
            at = lo[d] + origin[d] - low
            hull.append(slice(at, at + low + n + high))
            inner.append(slice(low, low + n))
            outer.append(slice(0, n + 2, n + 1) if low and high else slice(0, 1) if low
                         else slice(n, n + 1) if high else None)
        # Unsigned (``_LEVEL``'s width): 0 at ``level``, 1 one above,
        # huge below or beyond.
        dist = (arr[tuple(hull)] - level).view(np.uint32)
        here = dist[tuple(inner)]
        if write and np.count_nonzero(here if arr is self.levels else
                                      self.levels[region.slices()] != level):
            return True
        # A two-grid cell uniformly at ``level`` is inside the window.
        if not (write and arr is self.levels) and _outside(here, window):
            return True
        for d, face in enumerate(outer):
            if face is not None:
                cells = list(inner)
                cells[d] = face
                if _outside(dist[tuple(cells)], window):
                    return True
        return False

    def _replay_reads(self, region: Box, offsets, level: int) -> None:
        """The per-read checks of :meth:`check_traversal`, in order."""
        if region.is_empty:
            return
        if not self.domain.contains_box(region):
            raise StorageError(f"gather region {region} outside stored domain")
        self._check_read(region, level)
        for off in offsets:
            cells = region.shift(off).intersect(self._checked)
            if not cells.is_empty:
                self._check_read(cells, level)

    def raw_read_array(self, level: int) -> Tuple[np.ndarray, Tuple[int, int, int]]:
        """The backing array holding ``level`` plus its index origin.

        Raw access for fused engines: returns ``(array, origin)`` such
        that the value of cell ``c`` at time ``level`` — interior or
        ring — lives at ``array[c + origin]``, which is also where the
        update to ``level`` writes it.  Access through this path
        bypasses the legality validation — callers run
        :meth:`check_update` (or :meth:`check_traversal` and
        :meth:`write_view`) first and :meth:`commit_write` after.
        """
        raise NotImplementedError

    def check_uniform_level(self, box: Box, level: int) -> None:
        """Raise unless every cell of ``box`` sits at exactly ``level``."""
        sl = box.slices()
        if not bool(np.all(self.levels[sl] == level)):
            seen = np.unique(self.levels[sl])
            raise StorageError(
                f"cells in {box} expected uniformly at level {level}, "
                f"found levels {seen.tolist()}"
            )


class TwoGridStorage(_StorageBase):
    """Separate grids A and B, written in turn (Sect. 1.1 baseline layout).

    Both are padded: cell ``c`` lives at index ``c + (1, 1, 1)`` and the
    one-cell ring around the interior holds the Dirichlet values.
    """

    n_arrays = 2
    _ORIGIN = (1, 1, 1)

    def __init__(self, grid: Grid3D, field: np.ndarray, validate: bool = True) -> None:
        super().__init__(grid, field, validate)
        a = grid.padded(field)
        b = np.full(a.shape, np.nan, dtype=grid.dtype)
        grid.fill_ghost_ring(b)
        self._arrays = [a, b]

    def _view(self, box: Box, level: int) -> np.ndarray:
        return self._arrays[level % 2][box.slices(self._ORIGIN)]

    def _check_read(self, box: Box, level: int) -> None:
        lv = self.levels[box.slices()]
        ok = np.logical_or(lv == level, lv == level + 1)
        if not bool(np.all(ok)):
            bad = np.unique(lv[~ok])
            raise StorageError(
                f"two-buffer violation reading {box} at level {level}: "
                f"cells present at levels {bad.tolist()} (window is "
                f"[{level}, {level + 1}])"
            )

    def _read_levels(self, level: int) -> Tuple[np.ndarray, Tuple[int, int, int], int]:
        return self.levels, (0, 0, 0), 2

    def ring_array(self, level: int) -> np.ndarray:
        """Padded array ``level % 2``: holds ``level``, receives the update
        to it.

        Index 0 is cell ``-1``, the layout the slices of a
        :class:`~repro.grid.blocks.AxisSpan` address, so a region and its
        shifted reads are ``array[sz[dz], sy[dy], sx[dx]]``.  Raw access:
        callers run :meth:`check_update` before and :meth:`commit_write`
        after the update.
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
                 shift_vec: Tuple[int, int, int], updates_per_pass: int,
                 validate: bool = True) -> None:
        super().__init__(grid, field, validate)
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
        #: Level that last wrote each storage position (-1 = never).
        self._pos_level: Any = None
        if self.validate:
            self._pos_level = np.full(store_shape, -1, dtype=_LEVEL)
        moving = tuple(int(v or grid.boundary.func is not None) for v in self.shift_vec)
        self._checked = self.domain.grow_vec(moving)
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

    def _check_read(self, box: Box, level: int) -> None:
        pl = self._pos_level[box.slices(self._origin(level))]
        if not bool(np.all(pl == level)):
            bad = np.unique(pl[pl != level])
            raise StorageError(
                f"compressed-grid violation reading {box} at level {level}: "
                f"positions hold levels {bad.tolist()} — a later write "
                "clobbered live data or the value was never produced"
            )

    def _read_levels(self, level: int) -> Tuple[np.ndarray, Tuple[int, int, int], int]:
        return self._pos_level, self._origin(level), 1

    def commit_write(self, region: Box, level: int) -> None:
        """Mark ``region`` written and store its moving-face ring cells.

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
            at = cells.slices(origin)
            self._array[at] = values[cells.slices(tuple(-c for c in face.lo))]
            if self.validate:
                self._pos_level[at] = level
        if self.validate:
            self._pos_level[region.slices(origin)] = level
            self.levels[region.slices()] = level

    def raw_read_array(self, level: int) -> Tuple[np.ndarray, Tuple[int, int, int]]:
        """The compressed array; origin folds in level shift, margin and ring."""
        return self._array, self._origin(level)

    @property
    def array_bytes(self) -> int:
        """Bytes held by the (single) value array, margin and ring included."""
        return self._array.nbytes


def _outside(dist: np.ndarray, window: int) -> bool:
    """Whether a distance above the read level leaves ``[0, window)``."""
    return bool(np.count_nonzero(dist >= window if window > 1 else dist))


def make_storage(scheme: str, grid: Grid3D, field: np.ndarray,
                 shift_vec: Tuple[int, int, int], updates_per_pass: int,
                 validate: bool = True):
    """Factory used by the pipeline front-end."""
    if scheme == "twogrid":
        return TwoGridStorage(grid, field, validate=validate)
    if scheme == "compressed":
        return CompressedStorage(grid, field, shift_vec, updates_per_pass,
                                 validate=validate)
    raise ValueError(f"unknown storage scheme {scheme!r}")
