"""Traffic accounting per block operation (code balance bookkeeping).

The paper's traffic arithmetic (Sect. 1.1, 1.4):

* a stencil update touches 8 bytes of load and 8 bytes of store per cell
  on the slowest path it reaches;
* the baseline with spatial blocking and non-temporal stores moves 16
  B/cell over the memory bus (24 with the read-for-ownership the NT
  stores avoid);
* under pipelined blocking, a block is loaded from memory once per team
  sweep (16 B/cell incl. the eventual writeback) while all other updates
  run 16 B/cell through the shared cache — Eq. 4's ``16/Ms,1 +
  2(tT−1)·8/Mc``;
* the compressed grid keeps one array instead of two, halving the cache
  footprint per block ("saving nearly half the memory") — which is what
  allows larger ``d_u`` before blocks fall out of cache;
* non-temporal stores are "unnecessary and even counterproductive" under
  temporal blocking because the block lives in cache anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..machine.topology import CacheLevel, MachineSpec

__all__ = ["CodeBalance", "BlockTraffic", "limplock"]

W = 8  # bytes per double-precision word


@dataclass(frozen=True)
class CodeBalance:
    """Bytes moved per cell for one scheme, split by data path.

    ``mem_load_bpc``/``mem_writeback_bpc`` are paid once per block per team
    sweep (by the front thread / at eviction); ``cache_bpc_update`` is paid
    per in-cache update; ``resident_arrays`` determines the block's cache
    footprint (two-grid: 2, compressed: 1).
    """

    name: str
    mem_load_bpc: float
    mem_writeback_bpc: float
    cache_bpc_update: float
    resident_arrays: int
    #: Memory bytes paid on *every* update (NT-store leakage: the stores
    #: bypass the cache, so the next update's loads come from memory too).
    mem_bpc_update: float = 0.0

    @staticmethod
    def standard_jacobi(nt_stores: bool = True) -> "CodeBalance":
        """Baseline streaming sweep: 16 B/cell (24 without NT stores)."""
        load = 1 * W + (0 if nt_stores else 1 * W)  # A read (+ B RFO)
        return CodeBalance(
            name=f"standard(nt={nt_stores})",
            mem_load_bpc=float(load),
            mem_writeback_bpc=float(W),
            cache_bpc_update=0.0,
            resident_arrays=2,
        )

    @staticmethod
    def pipelined(storage: str = "compressed", nt_stores: bool = False) -> "CodeBalance":
        """Pipelined temporal blocking; NT stores default *off* (Sect. 1.3).

        Enabling NT stores here is the paper's "counterproductive" case:
        every in-cache update's stores would bypass the cache and pay
        memory bandwidth, which the ablation benchmark demonstrates.
        """
        arrays = 1 if storage == "compressed" else 2
        cache_bpc = 2 * W  # one load + one store stream per update
        if nt_stores:
            # Stores bypass the cache entirely: every update writes its
            # results to memory AND the following update must load them
            # back from memory — temporal blocking is defeated.
            return CodeBalance(
                name=f"pipelined({storage},nt=True)",
                mem_load_bpc=float(W),
                mem_writeback_bpc=0.0,       # stores already went to memory
                cache_bpc_update=0.0,
                resident_arrays=arrays,
                mem_bpc_update=float(2 * W),
            )
        return CodeBalance(
            name=f"pipelined({storage})",
            mem_load_bpc=float(W),
            mem_writeback_bpc=float(W),
            cache_bpc_update=float(cache_bpc),
            resident_arrays=arrays,
        )

    def block_footprint(self, cells: int) -> int:
        """Cache bytes a block occupies (all resident arrays)."""
        return cells * W * self.resident_arrays


@dataclass(frozen=True)
class BlockTraffic:
    """Resolved traffic of one block operation for one pipeline stage."""

    cells: int
    updates: int
    mem_load_bytes: float      # from memory (front thread, or reload on miss)
    remote_bytes: float        # from the previous team's cache
    cache_bytes: float         # through the shared cache
    mem_store_bytes: float     # immediate NT-store leakage (not writeback)
    compute_cells: int         # cells * updates


def limplock(machine: MachineSpec, factor: float) -> MachineSpec:
    """``machine`` degraded node-wide by ``factor`` (a limplocked worker).

    Limplock is the degraded-but-alive failure mode: a node that still
    answers every liveness probe while running uniformly slower —
    thermal throttling, a resetting link, a neighbour saturating the
    memory bus.  Modelled as every service *rate* divided by ``factor``
    and every fixed *latency* multiplied by it, which time-dilates the
    whole DES schedule uniformly: the event order is preserved and the
    predicted total time scales by ``factor`` up to rounding.  That
    exactness is what lets the straggler detector's fault-injection
    battery pin observed detection latency against
    :func:`repro.obs.monitor.predict_limplock_ratio`.
    """
    if factor < 1.0:
        raise ValueError("limplock factor must be >= 1 (1 = healthy)")
    f = float(factor)
    caches = tuple(
        CacheLevel(name=c.name, size=c.size, shared_by=c.shared_by,
                   bandwidth=c.bandwidth / f)
        for c in machine.caches)
    return replace(
        machine,
        name=f"{machine.name} (limplock x{f:g})",
        clock_hz=machine.clock_hz / f,
        caches=caches,
        mem_bw_socket=machine.mem_bw_socket / f,
        mem_bw_single=machine.mem_bw_single / f,
        remote_bw=machine.remote_bw / f,
        core_mlups=machine.core_mlups / f,
        coherence_latency_intra=machine.coherence_latency_intra * f,
        coherence_latency_inter=machine.coherence_latency_inter * f,
        block_overhead=machine.block_overhead * f,
    )
