"""Distributed-memory rail (Sect. 2 of the paper).

Built from five pieces, bottom-up:

* :mod:`~repro.dist.decomp` — Cartesian rank decomposition with
  core/stored (ghost-extended) boxes;
* :mod:`~repro.dist.exchange` — the 3-phase ghost-cell-expansion
  exchange geometry (Fig. 4): six messages carry faces, edges *and*
  corners of an ``h``-layer halo;
* :mod:`~repro.dist.comm` / :mod:`~repro.dist.simmpi` /
  :mod:`~repro.dist.procmpi` — the transport protocol and its two
  implementations: thread-backed simulated MPI and true multiprocess
  ranks over :mod:`~repro.dist.shm` shared-memory blocks (a real
  ``mpi4py`` adapter slots into the same protocol);
* :mod:`~repro.dist.solver` — the hybrid pipelined solver (the
  multi-halo scheme is its one-stage config), transport-agnostic,
  returning the unified
  :class:`~repro.core.pipeline.SolveResult`;
* :mod:`~repro.dist.cluster_sim` — the Fig. 6 strong/weak cluster
  scaling model on top of the node models and the Hockney network.
"""

from .comm import Comm, MPI4PyComm
from .decomp import CartesianDecomposition, RankGeometry
from .exchange import exchange_plan
from .procmpi import SPAWNS_COUNTER, ProcComm, ProcMPIError, ProcWorld, run_procs
from .shm import SEGMENTS_COUNTER, ShmPool, live_segments
from .simmpi import RankComm, SimMPIError, run_ranks
from .solver import (
    TRANSPORTS,
    ProcSolverSession,
    SessionPool,
    distributed_jacobi_pipelined,
    drop_warm_pool,
)
from .cluster_sim import (
    ClusterModel,
    Fig6Variant,
    ScalingPoint,
    balanced_grid,
    fig6_variants,
)

__all__ = [
    "Comm",
    "MPI4PyComm",
    "CartesianDecomposition",
    "RankGeometry",
    "exchange_plan",
    "RankComm",
    "SimMPIError",
    "run_ranks",
    "ProcComm",
    "ProcMPIError",
    "ProcWorld",
    "ProcSolverSession",
    "SessionPool",
    "drop_warm_pool",
    "SPAWNS_COUNTER",
    "run_procs",
    "ShmPool",
    "live_segments",
    "SEGMENTS_COUNTER",
    "TRANSPORTS",
    "distributed_jacobi_pipelined",
    "ClusterModel",
    "Fig6Variant",
    "ScalingPoint",
    "balanced_grid",
    "fig6_variants",
]
