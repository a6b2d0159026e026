"""Fig. 5: analytic model of the multi-layer halo advantage (Sect. 2.1).

For cubic subdomains of size ``L^3``, exchanging ``h`` halo layers every
``h`` updates trades three effects:

* **message aggregation** — one big message instead of ``h`` small ones
  wins in the latency-dominated regime (small ``L``);
* **extra halo work** — update ``s`` covers a region ``h - s`` layers
  larger per side, so the bulk work grows by the trapezoid volume;
* **bigger messages** — the h-layer (ghost-expanded) faces carry more
  bytes.

The paper's parameters: QDR-IB (3.2 GB/s, 1.8 µs), single-node
performance 2000 MLUP/s independent of ``L``, no computation/communication
overlap.  "While only simple algebra is involved, the resulting
expressions are very complex, so we restrict ourselves to a graphical
analysis" — we do the same numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .network import NetworkModel, qdr_infiniband

__all__ = ["HaloModel", "HaloPoint", "fig5_parameters"]

W = 8  # bytes per double


@dataclass(frozen=True)
class HaloPoint:
    """One (L, h) evaluation of the model."""

    L: int
    h: int
    time_per_update: float
    compute_time: float
    comm_time: float

    @property
    def efficiency(self) -> float:
        """Computation over overall time — the inset of Fig. 5."""
        return self.compute_time / (self.compute_time + self.comm_time)


@dataclass(frozen=True)
class HaloModel:
    """Execution-time model for h-layer halo exchange on cubic subdomains.

    ``node_lups`` is the assumed single-node performance (the paper uses
    2000 MLUP/s for a vector-mode hybrid Jacobi solver); ``network`` the
    Hockney model.  Messages follow the ghost-cell-expansion scheme: the
    three directions are exchanged consecutively and each message spans
    the already-extended extents of previously exchanged dimensions
    (Fig. 4), so edges and corners ride along for free.
    """

    node_lups: float = 2000e6
    network: NetworkModel = qdr_infiniband()
    #: Include the ghost-expansion growth of message sizes (+2h in already
    #: exchanged dimensions).  The paper's own model appears to neglect it
    #: ("the amount of data communication per stencil update is roughly
    #: the same as for no temporal blocking, except for edge and corner
    #: contributions"); set False to reproduce that accounting.
    expanded_messages: bool = True

    def __post_init__(self) -> None:
        if self.node_lups <= 0:
            raise ValueError("node performance must be positive")

    # -- building blocks -----------------------------------------------------------

    def bulk_cells(self, L: int, h: int) -> int:
        """Cells updated during one h-update cycle, incl. trapezoid extra.

        Update ``s`` (1-based) covers ``(L + 2*(h-s))^3`` cells: "extra
        work is involved on the boundaries because update number s covers
        a domain that is h − s layers larger in each direction".
        """
        if L < 1 or h < 1:
            raise ValueError("L and h must be >= 1")
        return sum((L + 2 * (h - s)) ** 3 for s in range(1, h + 1))

    def message_bytes(self, L: int, h: int) -> List[float]:
        """Per-direction message sizes of the 3-phase expanded exchange.

        Direction ``d`` sends a slab of ``h`` layers spanning the full
        (already exchanged, hence ``+2h``) extent in earlier dimensions
        and the core extent in later ones.
        """
        sizes = []
        grow = 2 * h if self.expanded_messages else 0
        for d in range(3):
            ext = 1.0
            for dd in range(3):
                if dd == d:
                    continue
                ext *= (L + grow) if dd < d else L
            sizes.append(h * ext * W)
        return sizes

    def comm_time(self, L: int, h: int) -> float:
        """Time for one full halo exchange (both directions, 3 phases)."""
        return sum(self.network.exchange_time(m) for m in self.message_bytes(L, h))

    # -- model outputs ----------------------------------------------------------------

    def evaluate(self, L: int, h: int) -> HaloPoint:
        """Average time per update of the h-layer scheme on an L^3 core."""
        compute = self.bulk_cells(L, h) / self.node_lups
        comm = self.comm_time(L, h)
        return HaloPoint(L=L, h=h,
                         time_per_update=(compute + comm) / h,
                         compute_time=compute / h,
                         comm_time=comm / h)

    def advantage(self, L: int, h: int) -> float:
        """Fig. 5 main panel: time(h=1 scheme) / time(h-layer scheme).

        Values above 1 mean the multi-layer exchange wins.
        """
        return self.evaluate(L, 1).time_per_update / self.evaluate(L, h).time_per_update

    def advantage_series(self, L_values: Sequence[int],
                         h: int) -> List[Tuple[int, float]]:
        """The (L, advantage) series for one halo width."""
        return [(L, self.advantage(L, h)) for L in L_values]

    def efficiency_series(self, L_values: Sequence[int],
                          h: int) -> List[Tuple[int, float]]:
        """The inset: (L, computation/overall) for one halo width."""
        return [(L, self.evaluate(L, h).efficiency) for L in L_values]


def fig5_parameters() -> HaloModel:
    """The exact parameter set of Fig. 5 (2000 MLUP/s node, QDR-IB)."""
    return HaloModel(node_lups=2000e6, network=qdr_infiniband())
