"""Axis-aligned box (region) algebra for 3-D grids.

The pipelined temporal-blocking schedule of Wittmann/Hager/Wellein is, at
its core, arithmetic on axis-aligned boxes: a block region is *shifted* by
one cell per update ("Shifting the block by one cell in each direction
after an update avoids extra boundary copies", Sect. 1.3 of the paper) and
*clipped* against the computational domain and, in the distributed case,
against the shrinking multi-halo trapezoid.  This module provides the
immutable :class:`Box` type and the operations the scheduler needs.

Coordinates are *interior* cell coordinates: cell ``(0, 0, 0)`` is the
first interior (updatable) cell; the Dirichlet boundary ring lives at
coordinate ``-1`` and ``n`` in each dimension and is owned by the grid
object, not by boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

__all__ = ["Box", "bounding_box", "boxes_are_disjoint", "boxes_partition"]

Coord = Tuple[int, int, int]


@dataclass(frozen=True)
class Box:
    """A half-open axis-aligned box ``[lo, hi)`` in 3-D cell coordinates.

    A box with ``hi[d] <= lo[d]`` in any dimension is *empty*; empty boxes
    are normal values (the schedule produces them for fully-clipped block
    regions) and all operations treat them consistently.

    Parameters
    ----------
    lo:
        Inclusive lower corner ``(z, y, x)``.
    hi:
        Exclusive upper corner ``(z, y, x)``.
    """

    lo: Coord
    hi: Coord

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def make(lo: Sequence[int], hi: Sequence[int]) -> "Box":
        """Build a box from any integer sequences (normalised to tuples)."""
        lo_t = (int(lo[0]), int(lo[1]), int(lo[2]))
        hi_t = (int(hi[0]), int(hi[1]), int(hi[2]))
        return Box(lo_t, hi_t)

    @staticmethod
    def from_shape(shape: Sequence[int]) -> "Box":
        """The box ``[0, shape)`` covering a whole interior of ``shape``."""
        return Box((0, 0, 0), (int(shape[0]), int(shape[1]), int(shape[2])))

    @staticmethod
    def empty() -> "Box":
        """A canonical empty box."""
        return Box((0, 0, 0), (0, 0, 0))

    # -- predicates ------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True if the box contains no cells."""
        lo, hi = self.lo, self.hi
        return hi[0] <= lo[0] or hi[1] <= lo[1] or hi[2] <= lo[2]

    def contains(self, cell: Sequence[int]) -> bool:
        """True if ``cell`` lies inside the box."""
        return all(self.lo[d] <= cell[d] < self.hi[d] for d in range(3))

    def contains_box(self, other: "Box") -> bool:
        """True if ``other`` is fully inside this box (empty boxes always are)."""
        if other.is_empty:
            return True
        return all(
            self.lo[d] <= other.lo[d] and other.hi[d] <= self.hi[d]
            for d in range(3)
        )

    # -- measures ---------------------------------------------------------------

    @property
    def shape(self) -> Coord:
        """Edge lengths, clamped at zero for empty dimensions."""
        return tuple(max(0, self.hi[d] - self.lo[d]) for d in range(3))  # type: ignore[return-value]

    @property
    def ncells(self) -> int:
        """Number of cells in the box (0 if empty)."""
        s = self.shape
        return s[0] * s[1] * s[2]

    def surface_cells(self) -> int:
        """Number of cells on the one-cell-thick surface shell of the box."""
        if self.is_empty:
            return 0
        s = self.shape
        inner = tuple(max(0, e - 2) for e in s)
        return self.ncells - inner[0] * inner[1] * inner[2]

    # -- transformations ---------------------------------------------------------

    def shift(self, vec: Sequence[int]) -> "Box":
        """Translate the box by ``vec`` (may be negative per component)."""
        lo = (self.lo[0] + vec[0], self.lo[1] + vec[1], self.lo[2] + vec[2])
        hi = (self.hi[0] + vec[0], self.hi[1] + vec[1], self.hi[2] + vec[2])
        return Box(lo, hi)

    def grow(self, layers: int) -> "Box":
        """Expand the box by ``layers`` cells on every face (negative shrinks)."""
        lo = tuple(self.lo[d] - layers for d in range(3))
        hi = tuple(self.hi[d] + layers for d in range(3))
        return Box(lo, hi)  # type: ignore[arg-type]

    def grow_vec(self, per_dim: Sequence[int]) -> "Box":
        """Expand by ``per_dim[d]`` layers on both faces of dimension ``d``."""
        lo = tuple(self.lo[d] - per_dim[d] for d in range(3))
        hi = tuple(self.hi[d] + per_dim[d] for d in range(3))
        return Box(lo, hi)  # type: ignore[arg-type]

    def intersect(self, other: "Box") -> "Box":
        """The intersection box (possibly empty)."""
        lo = tuple(max(self.lo[d], other.lo[d]) for d in range(3))
        hi = tuple(min(self.hi[d], other.hi[d]) for d in range(3))
        return Box(lo, hi)  # type: ignore[arg-type]

    def face(self, dim: int, side: int, width: int = 1) -> "Box":
        """A slab of ``width`` layers hugging one face of the box.

        Parameters
        ----------
        dim:
            Dimension index 0..2.
        side:
            ``-1`` for the low face, ``+1`` for the high face.
        width:
            Slab thickness in cells.
        """
        if side not in (-1, 1):
            raise ValueError(f"side must be -1 or +1, got {side}")
        lo = list(self.lo)
        hi = list(self.hi)
        if side < 0:
            hi[dim] = min(hi[dim], lo[dim] + width)
        else:
            lo[dim] = max(lo[dim], hi[dim] - width)
        return Box(tuple(lo), tuple(hi))  # type: ignore[arg-type]

    def outer_face(self, dim: int, side: int, width: int = 1) -> "Box":
        """A slab of ``width`` layers *outside* the box, adjacent to one face."""
        if side not in (-1, 1):
            raise ValueError(f"side must be -1 or +1, got {side}")
        lo = list(self.lo)
        hi = list(self.hi)
        if side < 0:
            hi[dim] = lo[dim]
            lo[dim] = lo[dim] - width
        else:
            lo[dim] = hi[dim]
            hi[dim] = hi[dim] + width
        return Box(tuple(lo), tuple(hi))  # type: ignore[arg-type]

    # -- numpy interop -----------------------------------------------------------

    def slices(self, offset: Sequence[int] = (0, 0, 0)) -> Tuple[slice, slice, slice]:
        """Slices addressing the box in an array whose origin is ``-offset``.

        For an array where interior cell ``(0,0,0)`` is stored at index
        ``offset``, ``arr[box.slices(offset)]`` views exactly the box.
        Empty boxes produce zero-length slices.
        """
        (l0, l1, l2), (h0, h1, h2) = self.lo, self.hi
        o0, o1, o2 = offset
        return (slice(l0 + o0, max(l0, h0) + o0), slice(l1 + o1, max(l1, h1) + o1),
                slice(l2 + o2, max(l2, h2) + o2))

    def iter_cells(self) -> Iterator[Coord]:
        """Iterate over all cell coordinates (small boxes only; O(ncells))."""
        for z in range(self.lo[0], self.hi[0]):
            for y in range(self.lo[1], self.hi[1]):
                for x in range(self.lo[2], self.hi[2]):
                    yield (z, y, x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Box({self.lo}..{self.hi})"


def bounding_box(boxes: Sequence[Box]) -> Box:
    """Smallest box containing every non-empty box in ``boxes``.

    Returns an empty box when there is nothing to bound.
    """
    nonempty = [b for b in boxes if not b.is_empty]
    if not nonempty:
        return Box.empty()
    lo = tuple(min(b.lo[d] for b in nonempty) for d in range(3))
    hi = tuple(max(b.hi[d] for b in nonempty) for d in range(3))
    return Box(lo, hi)  # type: ignore[arg-type]


def boxes_are_disjoint(boxes: Sequence[Box]) -> bool:
    """True if no two non-empty boxes intersect (O(n^2), for validation)."""
    nonempty = [b for b in boxes if not b.is_empty]
    for i in range(len(nonempty)):
        for j in range(i + 1, len(nonempty)):
            if not nonempty[i].intersect(nonempty[j]).is_empty:
                return False
    return True


def boxes_partition(boxes: Sequence[Box], domain: Box) -> bool:
    """True if the boxes exactly partition ``domain``.

    Used by the schedule validator: the shifted-and-clipped block regions of
    one time level must tile the (active) domain exactly once.
    """
    if not boxes_are_disjoint(boxes):
        return False
    covered = sum(b.intersect(domain).ncells for b in boxes)
    outside = sum(b.ncells - b.intersect(domain).ncells for b in boxes)
    return covered == domain.ncells and outside == 0
