"""Cartesian rank decomposition for the distributed-memory rail (Sect. 2).

The paper's hybrid scheme cuts the global domain into one subdomain per
MPI process on a 3-D process grid.  Each rank owns a *core* box (the
cells it is responsible for) and a *stored* box: the core grown by ``h``
ghost layers toward every neighbor, clipped to the global domain.  With
``h = n·t·T`` layers a rank can run ``h`` updates — the full pipelined
pass — between halo exchanges; update ``s`` covers a region ``h − s``
layers larger than the core (the shrinking trapezoid of Sect. 2.1), so
the ghost cells it consumes were produced *redundantly* by both owners
and stay consistent.

Rank numbering is z-major lexicographic (coordinate ``(pz, py, px)`` maps
to ``pz·Py·Px + py·Px + px``), matching the block traversal order of
:mod:`repro.grid.blocks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..grid.region import Box

__all__ = ["RankGeometry", "CartesianDecomposition"]

Coord = Tuple[int, int, int]


@dataclass(frozen=True)
class RankGeometry:
    """What one rank owns: its coordinates, core box and stored box.

    Both boxes are in *global* interior coordinates; the solver translates
    to rank-local coordinates by subtracting ``stored.lo``.
    """

    rank: int
    coords: Coord
    core: Box
    stored: Box


class CartesianDecomposition:
    """Partition of a 3-D interior onto a Cartesian process grid.

    Parameters
    ----------
    shape:
        Global interior extents ``(nz, ny, nx)``.
    proc_grid:
        Process counts per dimension ``(Pz, Py, Px)``.
    halo:
        Ghost-layer width ``h`` exchanged per superstep (the paper's
        multi-halo ``h = n·t·T`` for the hybrid pipelined scheme, 1 for
        the standard code).

    The constructor rejects oversubscription (more processes than cells
    along a dimension); the thinner ``core >= h`` requirement is checked
    by :func:`repro.dist.exchange.exchange_plan`, which knows which faces
    actually have neighbors.
    """

    def __init__(self, shape: Sequence[int], proc_grid: Sequence[int],
                 halo: int) -> None:
        if len(shape) != 3 or any(int(s) < 1 for s in shape):
            raise ValueError(f"shape must be three positive extents, got {shape!r}")
        if len(proc_grid) != 3 or any(int(p) < 1 for p in proc_grid):
            raise ValueError(f"proc_grid must be three positive counts, got {proc_grid!r}")
        if int(halo) < 1:
            raise ValueError(f"halo must be >= 1, got {halo}")
        self.shape: Coord = tuple(int(s) for s in shape)  # type: ignore[assignment]
        self.proc_grid: Coord = tuple(int(p) for p in proc_grid)  # type: ignore[assignment]
        self.halo = int(halo)
        for d in range(3):
            if self.proc_grid[d] > self.shape[d]:
                raise ValueError(
                    f"{self.proc_grid[d]} processes along dim {d} oversubscribe "
                    f"{self.shape[d]} cells (every core must be non-empty)"
                )
        # Per-dimension split points: the first `extent % P` parts get one
        # extra cell, the standard balanced 1-D partition.
        self._starts = []
        for d in range(3):
            n, p = self.shape[d], self.proc_grid[d]
            base, rem = divmod(n, p)
            starts = [0]
            for i in range(p):
                starts.append(starts[-1] + base + (1 if i < rem else 0))
            self._starts.append(tuple(starts))

    # -- rank numbering ---------------------------------------------------------

    @property
    def n_ranks(self) -> int:
        """Total number of ranks on the process grid."""
        p = self.proc_grid
        return p[0] * p[1] * p[2]

    @property
    def domain(self) -> Box:
        """The global interior as a box."""
        return Box.from_shape(self.shape)

    def rank_coords(self, rank: int) -> Coord:
        """Process-grid coordinates of a linear rank (z-major)."""
        p = self.proc_grid
        if not 0 <= rank < self.n_ranks:
            raise IndexError(f"rank {rank} out of range [0, {self.n_ranks})")
        px = rank % p[2]
        rest = rank // p[2]
        py = rest % p[1]
        pz = rest // p[1]
        return (pz, py, px)

    def coords_rank(self, coords: Sequence[int]) -> int:
        """Linear rank of process-grid coordinates (inverse of rank_coords)."""
        p = self.proc_grid
        for d in range(3):
            if not 0 <= coords[d] < p[d]:
                raise IndexError(f"coords {tuple(coords)} outside grid {p}")
        return (coords[0] * p[1] + coords[1]) * p[2] + coords[2]

    def neighbor(self, rank: int, dim: int, side: int) -> Optional[int]:
        """Rank of the face neighbor along ``dim`` on ``side``, or ``None``.

        The domain is not periodic: Dirichlet boundaries take over where
        there is no neighbor.
        """
        if side not in (-1, 1):
            raise ValueError(f"side must be -1 or +1, got {side}")
        c = list(self.rank_coords(rank))
        c[dim] += side
        if not 0 <= c[dim] < self.proc_grid[dim]:
            return None
        return self.coords_rank(c)

    # -- geometry ---------------------------------------------------------------

    def core_box(self, coords: Sequence[int]) -> Box:
        """The core box of the process at grid coordinates ``coords``."""
        lo = tuple(self._starts[d][coords[d]] for d in range(3))
        hi = tuple(self._starts[d][coords[d] + 1] for d in range(3))
        return Box(lo, hi)  # type: ignore[arg-type]

    def geometry(self, rank: int) -> RankGeometry:
        """Core and stored boxes of a rank (stored = core + h, clipped)."""
        coords = self.rank_coords(rank)
        core = self.core_box(coords)
        stored = core.grow(self.halo).intersect(self.domain)
        return RankGeometry(rank=rank, coords=coords, core=core, stored=stored)
