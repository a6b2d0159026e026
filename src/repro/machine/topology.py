"""Machine description: sockets, cache groups, cores, bandwidths.

The paper's performance arguments are entirely about the *bandwidth
topology* of a multicore node: per-socket memory bandwidth ``Ms`` that a
single thread cannot saturate (``Ms,1 < Ms``), a shared outer-level cache
per socket with aggregate bandwidth ``Mc``, and synchronisation costs that
grow when crossing sockets.  :class:`MachineSpec` captures exactly those
quantities; the presets in :mod:`repro.machine.presets` fill in the
paper's Nehalem EP numbers.

All bandwidths are in bytes/second, times in seconds, sizes in bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["CacheLevel", "MachineSpec", "GB", "MB", "KB", "US"]

KB = 1024
MB = 1024 * KB
GB = 1e9  # bandwidth vendors use decimal GB/s; we follow the paper
US = 1e-6


@dataclass(frozen=True)
class CacheLevel:
    """One cache level of the hierarchy.

    ``shared_by`` is the number of cores forming the cache group at this
    level (1 = private).  ``bandwidth`` is the aggregate sustainable
    bandwidth for STREAM-COPY-like kernels, the paper's ``Mc`` for the
    outer level.
    """

    name: str
    size: int
    shared_by: int
    bandwidth: float

    def __post_init__(self) -> None:
        if self.size <= 0 or self.shared_by <= 0 or self.bandwidth <= 0:
            raise ValueError(f"invalid cache level {self}")


@dataclass(frozen=True)
class MachineSpec:
    """A shared-memory node in the paper's bandwidth-topology terms.

    Parameters
    ----------
    sockets, cores_per_socket:
        ccNUMA layout; one cache group (outer-level shared cache) per
        socket, as on Nehalem EP.
    clock_hz:
        Core clock; used to convert cycle-denominated costs.
    caches:
        Hierarchy from innermost to outermost; the last level must be the
        socket-shared cache.
    mem_bw_socket:
        ``Ms`` — saturated per-socket STREAM COPY bandwidth (NT stores).
    mem_bw_single:
        ``Ms,1`` — single-threaded STREAM COPY bandwidth ("a single stream
        is not able to saturate the memory bus", Sect. 1.4).
    remote_bw:
        Inter-socket transfer bandwidth (QPI-like), for blocks handed from
        one team's cache to the next.
    core_mlups:
        In-cache stencil update rate of one core in lattice-site updates
        per second; models the decoupled regime where "in-cache
        performance for stencil codes is not dominated by bandwidth
        effects alone" (Sect. 1.5, citing [8]).
    barrier_base_cycles, barrier_cycles_per_thread, barrier_socket_factor:
        Cost model for a global barrier: hundreds to thousands of cycles
        depending on topology (Sect. 1.3, citing [8]).
    coherence_latency_intra, coherence_latency_inter:
        Time for a progress-counter update to become visible to a spinning
        neighbor on the same / another socket.
    block_overhead:
        Fixed per-block-operation software overhead (loop setup, condition
        checks).
    jitter_sigma:
        Log-normal sigma of block-operation service-time jitter (memory
        contention bursts, prefetch hiccups).  This drives the convoy
        penalty of tightly coupled pipelines that Fig. 3 (right) shows;
        see DESIGN.md §2.
    lockstep_efficiency:
        In-cache execution efficiency when a pipeline runs in rigid
        lockstep (``d_l = d_u``): spinning on neighbor counters mid-stream
        defeats the hardware prefetchers, degrading the core's effective
        update rate.  1.0 disables the effect.
    """

    name: str
    sockets: int
    cores_per_socket: int
    clock_hz: float
    caches: Tuple[CacheLevel, ...]
    mem_bw_socket: float
    mem_bw_single: float
    remote_bw: float
    core_mlups: float
    barrier_base_cycles: float = 600.0
    barrier_cycles_per_thread: float = 100.0
    barrier_socket_factor: float = 4.0
    coherence_latency_intra: float = 0.08 * US
    coherence_latency_inter: float = 0.35 * US
    block_overhead: float = 0.5 * US
    jitter_sigma: float = 0.55
    stream_efficiency: float = 0.90
    lockstep_efficiency: float = 0.78

    def __post_init__(self) -> None:
        if self.sockets < 1 or self.cores_per_socket < 1:
            raise ValueError("need at least one socket and one core")
        if not self.caches:
            raise ValueError("need at least one cache level")
        if self.mem_bw_single > self.mem_bw_socket:
            raise ValueError("Ms,1 cannot exceed Ms")
        if self.caches[-1].shared_by != self.cores_per_socket:
            raise ValueError(
                "outer cache level must be shared by the whole socket "
                "(the paper's cache group)"
            )

    # -- derived -------------------------------------------------------------

    @property
    def total_cores(self) -> int:
        """Cores in the node."""
        return self.sockets * self.cores_per_socket

    @property
    def shared_cache(self) -> CacheLevel:
        """The outer-level (socket-shared) cache — the paper's cache group."""
        return self.caches[-1]

    def barrier_cost(self, n_threads: int, n_sockets: int) -> float:
        """Seconds for a global barrier across ``n_threads`` threads.

        Grows linearly in thread count and jumps by ``barrier_socket_factor``
        when the barrier spans sockets, reflecting that "a barrier may cost
        hundreds if not thousands of cycles" (Sect. 1.3).
        """
        cycles = self.barrier_base_cycles + self.barrier_cycles_per_thread * n_threads
        if n_sockets > 1:
            cycles *= self.barrier_socket_factor
        return cycles / self.clock_hz

    def coherence_latency(self, socket_a: int, socket_b: int) -> float:
        """Counter-visibility latency between two cores' sockets."""
        return (self.coherence_latency_intra if socket_a == socket_b
                else self.coherence_latency_inter)

    def describe(self) -> str:
        """One-line summary used in bench output headers."""
        c = self.shared_cache
        return (
            f"{self.name}: {self.sockets}x{self.cores_per_socket} cores @ "
            f"{self.clock_hz / 1e9:.2f} GHz, {c.name} {c.size // MB} MB "
            f"shared/{c.shared_by}, Ms={self.mem_bw_socket / GB:.1f} GB/s, "
            f"Ms1={self.mem_bw_single / GB:.1f} GB/s, "
            f"Mc={c.bandwidth / GB:.1f} GB/s"
        )
