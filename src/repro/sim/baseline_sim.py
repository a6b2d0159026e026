"""Standard (non-temporally-blocked) Jacobi node performance model.

The baseline of Sect. 1.1: spatially blocked, SIMD-vectorised, NT-store
Jacobi is purely memory-bandwidth bound once all cores of a socket are
active, so its performance follows directly from the STREAM saturation
curve — Eq. 2's ``P0 = Ms / 16 B`` with the measured-achievable
efficiency factor.  What *does* need modelling is NUMA page placement:

* ``first_touch`` (the paper's baseline): each thread's pages land on its
  own socket, both memory controllers stream in parallel;
* ``master_touch`` (the "hybrid vector mode" 1PPN pathology, Fig. 6):
  the master thread touches everything, all traffic hits one controller
  and the second socket's bandwidth is wasted — which is why the paper
  calls 1PPN standard Jacobi "clearly inferior".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..machine.topology import MachineSpec
from .costmodel import CodeBalance

__all__ = ["BaselineReport", "standard_jacobi_mlups"]


@dataclass(frozen=True)
class BaselineReport:
    """Performance of the standard Jacobi sweep on a node."""

    threads: int
    mlups: float
    bandwidth_used: float
    bytes_per_lup: float
    placement: str


def standard_jacobi_mlups(
    machine: MachineSpec,
    threads: Optional[int] = None,
    nt_stores: bool = True,
    placement: str = "first_touch",
    balance: Optional[CodeBalance] = None,
) -> BaselineReport:
    """Memory-bound performance of the standard Jacobi sweep.

    ``threads`` defaults to all cores, filled socket by socket.  The
    per-socket bandwidth saturates at ``Ms`` (with the machine's stream
    efficiency) and a single stream is capped at ``Ms,1``; the compute
    rate of the cores bounds the result from above in the (rare)
    non-starved case.
    """
    if placement not in ("first_touch", "master_touch"):
        raise ValueError(f"unknown placement {placement!r}")
    bal = balance or CodeBalance.standard_jacobi(nt_stores)
    n = machine.total_cores if threads is None else int(threads)
    if not 1 <= n <= machine.total_cores:
        raise ValueError(f"threads must be in [1, {machine.total_cores}]")
    bpc = bal.mem_load_bpc + bal.mem_writeback_bpc
    eff = machine.stream_efficiency

    per_socket = [0] * machine.sockets
    for i in range(n):
        per_socket[i // machine.cores_per_socket] += 1

    if placement == "master_touch":
        # All pages on socket 0: one memory controller serves everyone.
        bw = min(n * machine.mem_bw_single, machine.mem_bw_socket) * eff
    else:
        bw = sum(
            min(k * machine.mem_bw_single, machine.mem_bw_socket) * eff
            for k in per_socket if k
        )
    mlups_bw = bw / bpc / 1e6
    mlups_compute = n * machine.core_mlups / 1e6
    mlups = min(mlups_bw, mlups_compute)
    return BaselineReport(threads=n, mlups=mlups, bandwidth_used=bw,
                          bytes_per_lup=bpc, placement=placement)
