"""Star-stencil kernel abstraction.

The execution engines are generic over radius-1 *star* stencils (offsets
along coordinate axes only), which covers the paper's 7-point Jacobi
(Eq. 1) and common variants (weighted/damped Jacobi, anisotropic heat
kernels).  Radius 1 is a hard requirement of the one-cell-shift pipelined
schedule — the shift provides exactly one layer of history, so a radius-2
stencil would read values the scheme has already released.  The kernel
constructor enforces this.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["StarStencil", "AXIS_OFFSETS"]

Offset = Tuple[int, int, int]

#: The six axis-aligned unit offsets, in a fixed canonical order
#: (-z, +z, -y, +y, -x, +x).  Engines gather neighbor planes in this order.
AXIS_OFFSETS: Tuple[Offset, ...] = (
    (-1, 0, 0), (1, 0, 0),
    (0, -1, 0), (0, 1, 0),
    (0, 0, -1), (0, 0, 1),
)


@dataclass(frozen=True)
class StarStencil:
    """A linear radius-1 star stencil ``new = cw*c + sum_k w_k * n_k``.

    Parameters
    ----------
    weights:
        Mapping from axis offset to weight.  Offsets absent from the map
        contribute nothing (weight zero) and are *not gathered* by the
        engines, so e.g. a 2-D 5-point stencil embedded in 3-D costs no
        z-plane traffic.
    center_weight:
        Weight of the cell's own previous value (0 for plain Jacobi).
    name:
        Human-readable identifier used in reports.
    """

    weights: Dict[Offset, float]
    center_weight: float = 0.0
    name: str = "star"

    def __post_init__(self) -> None:
        for off in self.weights:
            nz = [o for o in off if o != 0]
            if len(off) != 3 or len(nz) != 1 or abs(nz[0]) != 1:
                raise ValueError(
                    f"{self.name}: offset {off} is not a radius-1 axis offset; "
                    "the pipelined one-cell-shift schedule requires star "
                    "stencils of radius 1"
                )
        object.__setattr__(self, "weights", dict(self.weights))

    @property
    def offsets(self) -> List[Offset]:
        """Gathered offsets in canonical order (subset of AXIS_OFFSETS)."""
        return [o for o in AXIS_OFFSETS if o in self.weights]

    @cached_property
    def terms(self) -> Tuple[Tuple[Offset, float], ...]:
        """The nonzero ``(offset, weight)`` terms in canonical order.

        Neighbours in :data:`AXIS_OFFSETS` order, then the centre; a
        weight of exactly ``0.0`` drops its term (the offset is never
        read, so an Inf/NaN there cannot reach the result).
        """
        out = [(off, float(self.weights[off])) for off in self.offsets
               if self.weights[off] != 0.0]
        if self.center_weight != 0.0:
            out.append(((0, 0, 0), float(self.center_weight)))
        return tuple(out)

    @cached_property
    def groups(self) -> Tuple[Tuple[float, Tuple[Offset, ...]], ...]:
        """The ``vector-v2`` per-cell sequence, as data.

        :attr:`terms` partitioned into ``(weight, offsets)`` groups of
        bitwise-equal weight, ordered by first member, members in
        canonical order.  Per cell, every engine sums each group's values
        left to right, multiplies the sum by the group weight once (in
        the field dtype), and adds the group products left to right; the
        first product starts the accumulator — there is no zero seed and
        no ``w == 1.0`` special case, and an empty table yields zeros.
        This is the only place term order and grouping are decided.
        """
        members: Dict[bytes, List[Offset]] = {}
        for off, w in self.terms:
            members.setdefault(struct.pack("<d", w), []).append(off)
        return tuple((struct.unpack("<d", bits)[0], tuple(offs))
                     for bits, offs in members.items())

    @property
    def n_neighbors(self) -> int:
        """Number of gathered neighbor values per cell."""
        return len(self.weights)

    @property
    def flops_per_cell(self) -> int:
        """Floating-point operations per cell update under ``vector-v2``.

        Counted from :attr:`groups`: the adds inside each group, one
        multiply per group and the adds between group products.  Plain
        Jacobi is one group of six — 5 adds + 1 multiply, the 6 flops
        the paper counts for Eq. 1.
        """
        n_terms = sum(len(offs) for _, offs in self.groups)
        return n_terms + max(len(self.groups) - 1, 0)

    def apply(self, center: np.ndarray, neighbors: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate the stencil on gathered arrays.

        ``neighbors`` must follow :attr:`offsets` order and broadcast
        against ``center``.  The straight version of the :attr:`groups`
        sequence: one fresh array per operation, no ``out=``.  Returns a
        new array (never aliases inputs), which is what permits in-place
        compressed-grid writes.
        """
        offs = self.offsets
        if len(neighbors) != len(offs):
            raise ValueError(
                f"{self.name}: expected {len(offs)} neighbor arrays, "
                f"got {len(neighbors)}"
            )
        values = dict(zip(offs, neighbors))
        values[0, 0, 0] = center
        dtype = np.asarray(center).dtype
        out = None
        for w, members in self.groups:
            total = values[members[0]]
            for off in members[1:]:
                total = total + values[off]
            product = total * dtype.type(w)
            out = product if out is None else out + product
        return np.zeros_like(center) if out is None else out

    def scaled(self, factor: float, name: str | None = None) -> "StarStencil":
        """A stencil with all weights (incl. center) multiplied by ``factor``."""
        return StarStencil(
            weights={o: w * factor for o, w in self.weights.items()},
            center_weight=self.center_weight * factor,
            name=name or f"{self.name}*{factor:g}",
        )

    def damped(self, omega: float) -> "StarStencil":
        """Damped/weighted variant ``new = (1-omega)*old + omega*stencil``.

        With ``omega=1`` this is the stencil itself.  Used by the heat
        equation example (under-relaxed Jacobi) — the engines treat it as
        just another star stencil.
        """
        return StarStencil(
            weights={o: w * omega for o, w in self.weights.items()},
            center_weight=(1.0 - omega) + omega * self.center_weight,
            name=f"{self.name}-damped({omega:g})",
        )
