"""Machine preset: the paper's test bed.

The Nehalem EP numbers are taken directly from the paper (Sect. 1.1, 1.4):
Xeon 5550, 2 sockets x 4 cores at 2.66 GHz, 8 MB shared L3 per socket,
``Ms = 18.5`` GB/s per socket with non-temporal stores, ``Ms,1 ≈ 10`` GB/s
(so ``Ms/Ms,1 ≈ 2``) and ``Mc ≈ 8 · Ms,1 = 80`` GB/s.
"""

from __future__ import annotations

from .topology import CacheLevel, GB, KB, MB, MachineSpec

__all__ = ["nehalem_ep"]


def nehalem_ep() -> MachineSpec:
    """The paper's test system: dual-socket Intel Xeon 5550 (Nehalem EP)."""
    return MachineSpec(
        name="Nehalem EP (Xeon 5550)",
        sockets=2,
        cores_per_socket=4,
        clock_hz=2.66e9,
        caches=(
            CacheLevel("L1D", 32 * KB, 1, 300 * GB),
            CacheLevel("L2", 256 * KB, 1, 150 * GB),
            CacheLevel("L3", 8 * MB, 4, 80 * GB),   # Mc ≈ 8 * Ms,1
        ),
        mem_bw_socket=18.5 * GB,   # Ms (STREAM COPY, NT stores)
        mem_bw_single=10.0 * GB,   # Ms,1
        remote_bw=11.0 * GB,       # QPI-class inter-socket transfer
        core_mlups=520e6,          # in-cache Jacobi rate per core (calibrated)
        jitter_sigma=0.42,         # calibrated: see EXPERIMENTS.md
    )
