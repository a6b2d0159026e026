"""Cluster-level performance model: Fig. 6 strong/weak scaling.

Combines the two node-level models with the Hockney network model into
the paper's Sect. 2.3 projection:

* per-process rates come from :func:`~repro.sim.baseline_sim.standard_jacobi_mlups`
  (standard variants, incl. the master-touch "hybrid vector mode"
  pathology) or the calibrated DES
  (:func:`~repro.sim.des_pipeline.simulate_pipelined`) for the pipelined
  variants;
* communication per superstep follows the 3-phase ghost-cell-expansion
  accounting of :class:`~repro.models.halo_model.HaloModel`, generalised
  to non-cubic subdomains on a :func:`balanced_grid` process grid, with
  the paper's ``copy ≈ transfer`` buffer overhead and no
  computation/communication overlap;
* the pipelined variants pay the trapezoid extra work (update ``s``
  covers ``h − s`` extra layers toward every neighbor).

The four measured variants of Fig. 6 are provided by
:func:`fig6_variants`: standard Jacobi at 8 and 1 process-per-node and
the hybrid pipelined code at 1 and 2 PPN (2PPN wins — one process per
socket sidesteps the ccNUMA page-placement penalty, Sect. 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.parameters import PipelineConfig, RelaxedSpec
from ..machine.topology import MachineSpec
from ..models.network import NetworkModel, qdr_infiniband
from ..sim.baseline_sim import standard_jacobi_mlups
from ..sim.des_pipeline import simulate_pipelined

__all__ = ["Fig6Variant", "ScalingPoint", "ClusterModel", "balanced_grid",
           "fig6_variants"]

W = 8  # bytes per double

#: The paper's pipelined block optimum, shared with repro.perf.figures.
_PIPE_BLOCK = (20, 20, 120)


def balanced_grid(n_procs: int) -> Tuple[int, int, int]:
    """The most cubic factorisation ``(a, b, c)`` of ``n_procs``, a<=b<=c.

    Minimises the extent sum, which for a fixed product minimises surface
    (communication) area — the natural process grid for cubic domains.
    """
    if n_procs < 1:
        raise ValueError("need at least one process")
    best: Optional[Tuple[int, int, int]] = None
    for a in range(1, int(round(n_procs ** (1.0 / 3.0))) + 2):
        if n_procs % a:
            continue
        rest = n_procs // a
        b = a
        while b * b <= rest:
            if rest % b == 0:
                cand = (a, b, rest // b)
                if best is None or sum(cand) < sum(best):
                    best = cand
            b += 1
    assert best is not None  # a=1 always divides
    return best


@dataclass(frozen=True)
class Fig6Variant:
    """One measured curve of Fig. 6.

    ``halo`` is the ghost width per exchange: 1 for standard Jacobi,
    ``n·t·T`` for the hybrid pipelined code (the full pass).
    """

    name: str
    mode: str                 # "standard" | "pipelined"
    ppn: int                  # MPI processes per node
    threads_per_process: int
    placement: str            # NUMA page placement of the node model
    teams: int = 1            # pipelined only: teams per process
    T: int = 2                # pipelined only: updates per thread
    halo: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("standard", "pipelined"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.ppn < 1 or self.threads_per_process < 1:
            raise ValueError("ppn and threads_per_process must be >= 1")

    def pipeline_config(self) -> PipelineConfig:
        """The per-process pipelined configuration (paper's optimum)."""
        return PipelineConfig(teams=self.teams, threads_per_team=4,
                              updates_per_thread=self.T,
                              block_size=_PIPE_BLOCK,
                              sync=RelaxedSpec(1, 4), storage="compressed")


def fig6_variants() -> Tuple[Fig6Variant, ...]:
    """The four measured Fig. 6 variants, standard first, pipelined last."""
    return (
        Fig6Variant("standard 8PPN", "standard", ppn=8, threads_per_process=1,
                    placement="first_touch", halo=1),
        Fig6Variant("standard 1PPN", "standard", ppn=1, threads_per_process=8,
                    placement="master_touch", halo=1),
        Fig6Variant("pipelined 1PPN", "pipelined", ppn=1,
                    threads_per_process=8, placement="round_robin",
                    teams=2, T=2, halo=16),
        Fig6Variant("pipelined 2PPN", "pipelined", ppn=2,
                    threads_per_process=4, placement="first_touch",
                    teams=1, T=2, halo=8),
    )


@dataclass(frozen=True)
class ScalingPoint:
    """One (variant, node count) evaluation of the cluster model."""

    nodes: int
    processes: int
    glups: float
    compute_time: float       # per superstep, incl. trapezoid extra work
    comm_time: float          # per superstep, 3-phase exchange
    useful_time: float        # core updates alone at the process rate
    subdomain: Tuple[float, float, float]


class ClusterModel:
    """Strong/weak scaling projection on the paper's QDR-IB cluster.

    Parameters
    ----------
    machine:
        Node description (the paper's Nehalem EP preset).
    network:
        Hockney model; defaults to QDR InfiniBand with the paper's
        profiling result that buffer copies cost as much as the wire
        (``copy_factor=1``) and no computation/communication overlap.
    sim_shape:
        Problem size for the DES runs that calibrate the pipelined
        per-process rates (rates are size-stable above ~250^3; tests use
        200^3 for speed).
    domain:
        Edge length of the scaling problem: ``domain^3`` total for strong
        scaling, ``domain^3`` *per process* for weak scaling (the
        paper's Fig. 6: "600^3 strong / 600^3-per-process weak").
    """

    def __init__(self, machine: MachineSpec,
                 network: Optional[NetworkModel] = None,
                 sim_shape: Sequence[int] = (300, 300, 300),
                 domain: int = 600, seed: int = 0) -> None:
        self.machine = machine
        self.network = network or qdr_infiniband(copy_factor=1.0)
        self.sim_shape = tuple(int(s) for s in sim_shape)
        self.domain = int(domain)
        self.seed = seed
        self._rates: Dict[Fig6Variant, float] = {}

    # -- node-level rates --------------------------------------------------------

    def process_rate(self, variant: Fig6Variant) -> float:
        """MLUP/s of one process of ``variant`` on this machine (cached).

        Pipelined rates come from one DES run each; caching keeps a full
        Fig. 6 sweep at four node-model evaluations total.
        """
        if variant not in self._rates:
            if variant.mode == "standard":
                node = standard_jacobi_mlups(
                    self.machine,
                    threads=variant.ppn * variant.threads_per_process,
                    placement=variant.placement).mlups
                rate = node / variant.ppn
            else:
                rate = simulate_pipelined(
                    self.machine, variant.pipeline_config(), self.sim_shape,
                    placement=variant.placement, seed=self.seed).mlups
            self._rates[variant] = rate
        return self._rates[variant]

    def node_rate(self, variant: Fig6Variant) -> float:
        """MLUP/s of one full node (all its processes)."""
        return self.process_rate(variant) * variant.ppn

    # -- cluster-level evaluation -----------------------------------------------

    def evaluate(self, variant: Fig6Variant, nodes: int,
                 scaling: str = "strong") -> ScalingPoint:
        """One point of a Fig. 6 curve.

        Models the representative *interior* process: trapezoid growth and
        exchange happen toward every dimension the process grid actually
        cuts.  No overlap: a superstep is (3-phase exchange, then h
        updates), serialised.
        """
        if scaling not in ("strong", "weak"):
            raise ValueError(
                f"unknown scaling {scaling!r}; choose 'strong' or 'weak'")
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        P = nodes * variant.ppn
        pgrid = balanced_grid(P)
        if scaling == "strong":
            sub = tuple(self.domain / pgrid[d] for d in range(3))
        else:
            sub = (float(self.domain),) * 3
        h = variant.halo

        bulk = 0.0
        for s in range(1, h + 1):
            vol = 1.0
            for d in range(3):
                vol *= sub[d] + (2 * (h - s) if pgrid[d] > 1 else 0)
            bulk += vol
        comm = 0.0
        for d in range(3):
            if pgrid[d] == 1:
                continue
            ext = 1.0
            for dd in range(3):
                if dd == d:
                    continue
                # Ghost-cell expansion: already-exchanged dims ride along.
                ext *= sub[dd] + (2 * h if dd < d and pgrid[dd] > 1 else 0)
            comm += self.network.exchange_time(h * ext * W, messages=2)

        rate = self.process_rate(variant) * 1e6
        useful = h * sub[0] * sub[1] * sub[2]
        compute = bulk / rate
        total = compute + comm
        glups = P * useful / total / 1e9
        return ScalingPoint(nodes=nodes, processes=P, glups=glups,
                            compute_time=compute, comm_time=comm,
                            useful_time=useful / rate, subdomain=sub)

    def series(self, variant: Fig6Variant,
               node_counts: Sequence[int] = (1, 8, 27, 64),
               scaling: str = "strong") -> List[ScalingPoint]:
        """One full curve of Fig. 6."""
        return [self.evaluate(variant, n, scaling=scaling)
                for n in node_counts]

    def ideal(self, variant: Fig6Variant,
              node_counts: Sequence[int] = (1, 8, 27, 64)) -> List[float]:
        """Ideal (communication-free) scaling reference, in GLUP/s."""
        base = self.node_rate(variant)
        return [base * n / 1e3 for n in node_counts]
