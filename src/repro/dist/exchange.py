"""Ghost-cell-expansion exchange geometry (Fig. 4, Sect. 2.1).

Exchanging ``h > 1`` halo layers raises the corner problem: the trapezoid
updates need ghost data not just on faces but along edges and corners of
the stored box.  Rather than sending up to 26 messages, the paper's
scheme exchanges the three dimensions *consecutively* and lets every
message span the **already ghost-extended** extents of the dimensions
exchanged before it — "the data received in the previous step is included
in the messages of the following exchange steps" — so edge and corner
data rides along in exactly six messages (fewer at domain boundaries).

:func:`exchange_plan` returns, per rank, the list of

    ``(dim, side, peer_rank, send_box, recv_box)``

tuples in phase order (dim 0, then 1, then 2), with all boxes in global
coordinates.  The geometry is pure — no communication happens here —
which is what makes it unit-testable and reusable by both the functional
solver (:mod:`repro.dist.solver`) and the cluster performance model
(:mod:`repro.dist.cluster_sim`).
"""

from __future__ import annotations

from typing import List, Tuple

from ..grid.region import Box
from .decomp import CartesianDecomposition, RankGeometry

__all__ = ["ExchangeEntry", "exchange_plan"]

#: (dim, side, peer, send_box, recv_box) — boxes in global coordinates.
ExchangeEntry = Tuple[int, int, int, Box, Box]


def exchange_plan(decomp: CartesianDecomposition,
                  geo: RankGeometry) -> List[ExchangeEntry]:
    """The 3-phase send/recv schedule of one rank.

    Phase ``d`` sends a slab of ``h`` layers hugging the core face along
    dimension ``d``; across dimensions already exchanged (``dd < d``) the
    slab spans the full *stored* extent (ghost layers included — the
    expansion), across dimensions not yet exchanged (``dd > d``) only the
    core extent.  Both peers compute identical box pairs, so a rank's
    ``recv_box`` equals its peer's ``send_box`` exactly.

    Raises
    ------
    ValueError
        If a core is thinner than ``h`` along a dimension that has a
        neighbor: the send slab must consist of cells this rank fully
        updated itself, so the core must be at least h cells wide.
    """
    h = decomp.halo
    core, stored = geo.core, geo.stored
    plan: List[ExchangeEntry] = []
    for dim in range(3):
        for side in (-1, 1):
            peer = decomp.neighbor(geo.rank, dim, side)
            if peer is None:
                continue
            if core.hi[dim] - core.lo[dim] < h:
                raise ValueError(
                    f"rank {geo.rank}: core spans "
                    f"{core.hi[dim] - core.lo[dim]} cells along dim {dim} "
                    f"but the h-layer exchange needs at least h cells "
                    f"(h={h}); use fewer processes or a thinner halo"
                )
            send_lo, send_hi = list(core.lo), list(core.hi)
            recv_lo, recv_hi = list(core.lo), list(core.hi)
            for dd in range(3):
                if dd < dim:  # already exchanged: span the ghost extension
                    send_lo[dd], send_hi[dd] = stored.lo[dd], stored.hi[dd]
                    recv_lo[dd], recv_hi[dd] = stored.lo[dd], stored.hi[dd]
            if side < 0:
                send_hi[dim] = core.lo[dim] + h
                recv_lo[dim], recv_hi[dim] = core.lo[dim] - h, core.lo[dim]
            else:
                send_lo[dim] = core.hi[dim] - h
                recv_lo[dim], recv_hi[dim] = core.hi[dim], core.hi[dim] + h
            plan.append((dim, side, peer,
                         Box(tuple(send_lo), tuple(send_hi)),
                         Box(tuple(recv_lo), tuple(recv_hi))))
    return plan
