"""Discrete-event simulation of pipelined temporal blocking on a node.

This is the performance rail's centrepiece: it executes the *same*
schedule as the functional executor — same block traversal, same
region shifts, same sync conditions (barrier rounds or Eq. 3 counters) —
but instead of touching arrays it pushes the implied traffic through the
machine model:

* the team's front thread loads each block from memory (or from the
  previous team's cache over the inter-socket link),
* every in-cache update streams ``16 B/cell`` through the shared cache,
* completed blocks are written back when the LRU cache evicts them,
* the per-socket memory buses are max–min-fair fluid resources saturating
  at ``Ms`` with a per-stream cap ``Ms,1``,
* barrier rounds convoy on the slowest thread and pay the topology-aware
  barrier cost; relaxed pipelines with ``d_u > d_l`` absorb service-time
  jitter and overlap transfers with computation ("automatic overlapping
  of data transfer and calculation", Sect. 1.3), while lockstep pipelines
  expose them,
* a too-large ``d_u`` lets blocks fall out of the shared cache before the
  rear thread arrives, triggering reloads (the coupling of ``d_u`` and
  block size, Sect. 1.5).

Absolute numbers are calibrated against the paper's published machine
constants; EXPERIMENTS.md records paper-vs-simulated values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.parameters import BarrierSpec, PipelineConfig, RelaxedSpec
from ..core.sync import make_policy
from ..grid.blocks import make_decomposition
from ..grid.region import Box
from ..machine.cache import SharedCacheModel
from ..machine.topology import MachineSpec
from .costmodel import CodeBalance, W
from .engine import Engine
from .resources import FlowResource

__all__ = ["NodeSimReport", "PipelinedNodeSim", "simulate_pipelined"]


@dataclass
class NodeSimReport:
    """Outcome of one simulated pipelined run."""

    total_time: float
    cell_updates: int
    mlups: float
    mem_bytes: float
    remote_bytes: float
    cache_bytes: float
    writeback_bytes: float
    cache_hits: int
    cache_misses: int
    reloads: int
    barrier_time: float
    idle_time: Dict[int, float] = field(default_factory=dict)
    config_label: str = ""


class PipelinedNodeSim:
    """Event-driven simulation of one pipelined run on a machine model.

    Parameters
    ----------
    machine:
        Node description (see :mod:`repro.machine.presets`).
    config:
        Pipeline parameters; ``teams`` must not exceed the number of
        sockets (one team per cache group, the paper's design point).
    shape:
        Interior problem size ``(nz, ny, nx)``.
    balance:
        Code-balance bookkeeping; defaults to the pipelined scheme implied
        by ``config.storage``.
    placement:
        Page placement: ``"round_robin"`` (the paper's choice for
        pipelined blocking), ``"first_touch"`` (per-thread locality — used
        by the *standard* baseline), or ``"master_touch"`` (everything on
        socket 0, the hybrid-vector-mode pathology).
    seed:
        Jitter RNG seed; runs are reproducible.
    """

    def __init__(
        self,
        machine: MachineSpec,
        config: PipelineConfig,
        shape: Sequence[int],
        balance: Optional[CodeBalance] = None,
        placement: str = "round_robin",
        seed: int = 0,
    ) -> None:
        if config.teams > machine.sockets:
            raise ValueError(
                f"{config.teams} teams need {config.teams} cache groups; "
                f"machine has {machine.sockets}"
            )
        if config.threads_per_team > machine.cores_per_socket:
            raise ValueError("team does not fit in a cache group")
        if placement not in ("round_robin", "first_touch", "master_touch"):
            raise ValueError(f"unknown placement {placement!r}")
        self.machine = machine
        self.config = config
        self.shape = tuple(int(s) for s in shape)
        self.balance = balance or CodeBalance.pipelined(config.storage)
        self.placement = placement
        self.rng = np.random.default_rng(seed)

        self.decomp = make_decomposition(Box.from_shape(self.shape), config)
        self.policy = make_policy(config)

        self.engine = Engine()
        eff = machine.stream_efficiency
        self.mem_bus = [FlowResource(self.engine, machine.mem_bw_socket * eff,
                                     f"mem{s}") for s in range(machine.sockets)]
        self.l3_bus = [FlowResource(self.engine,
                                    machine.shared_cache.bandwidth,
                                    f"l3-{s}") for s in range(machine.sockets)]
        self.link = FlowResource(self.engine, machine.remote_bw, "qpi")
        self.caches = [SharedCacheModel(machine.shared_cache.size)
                       for _ in range(machine.sockets)]

        P = config.n_stages
        self.counters = [0] * P
        self.finished = [False] * P
        self.idle = [True] * P
        self.idle_since = [0.0] * P
        self.idle_time = [0.0] * P
        self.pending_parts = [0] * P
        self.pass_idx = 0
        self.n_passes = 1

        # statistics
        self.cell_updates = 0
        self.mem_bytes = 0.0
        self.remote_bytes = 0.0
        self.cache_bytes = 0.0
        self.writeback_bytes = 0.0
        self.reloads = 0
        self.barrier_time = 0.0

        spec = config.sync
        self.is_barrier = isinstance(spec, BarrierSpec)
        # Transfer/compute overlap: a loose window (d_u > d_l) lets the
        # pipeline stream ahead so hardware prefetch hides transfers; the
        # barrier version also streams within its round (threads only sync
        # at block boundaries).  True lockstep (d_u == d_l) stalls threads
        # mid-stream on the neighbor counters, defeating prefetch — its
        # transfers are exposed.  This reproduces the ~80 % lockstep
        # penalty of Fig. 3 (right) alongside the barrier bar of Fig. 3
        # (left); see DESIGN.md §2.
        self.loose = self.is_barrier or (
            isinstance(spec, RelaxedSpec) and spec.d_u > spec.d_l)
        self._seen_blocks = [set() for _ in range(machine.sockets)]

    # -- stage/socket mapping ----------------------------------------------------

    def stage_socket(self, stage: int) -> int:
        """Socket hosting a pipeline stage (one team per socket)."""
        return self.config.stage_team(stage)

    # -- main entry ---------------------------------------------------------------

    def run(self, passes: int = 1) -> NodeSimReport:
        """Simulate ``passes`` pipeline passes and return the report."""
        if passes < 1:
            raise ValueError("passes must be >= 1")
        self.n_passes = passes
        self._start_pass()
        self.engine.run()
        # Flush dirty blocks: account the final writebacks.
        for s, cache in enumerate(self.caches):
            for ev in cache.flush():
                if ev.dirty_bytes:
                    self._writeback(ev.dirty_bytes)
        self.engine.run()
        total = self.engine.now
        mlups = self.cell_updates / total / 1e6 if total > 0 else float("nan")
        return NodeSimReport(
            total_time=total,
            cell_updates=self.cell_updates,
            mlups=mlups,
            mem_bytes=self.mem_bytes,
            remote_bytes=self.remote_bytes,
            cache_bytes=self.cache_bytes,
            writeback_bytes=self.writeback_bytes,
            cache_hits=sum(c.hits for c in self.caches),
            cache_misses=sum(c.misses for c in self.caches),
            reloads=self.reloads,
            barrier_time=self.barrier_time,
            idle_time={s: t for s, t in enumerate(self.idle_time)},
            config_label=self.config.describe(),
        )

    # -- pass / stage control -------------------------------------------------------

    def _start_pass(self) -> None:
        P = self.config.n_stages
        self.counters = [0] * P
        self.finished = [False] * P
        for seen in self._seen_blocks:
            seen.clear()
        for s in range(P):
            self._try_start(s)

    def _try_start(self, stage: int) -> None:
        if self.finished[stage] or not self.idle[stage]:
            return
        if not self.policy.ready(stage, self.counters, self.finished):
            return
        self.idle[stage] = False
        self.idle_time[stage] += self.engine.now - self.idle_since[stage]
        self._begin_op(stage)

    def _op_done(self, stage: int) -> None:
        self.counters[stage] += 1
        self.idle[stage] = True
        self.idle_since[stage] = self.engine.now
        if self.counters[stage] == self.decomp.n_traversal_blocks:
            self.finished[stage] = True
            if all(self.finished):
                self.pass_idx += 1
                if self.pass_idx < self.n_passes:
                    self._start_pass()
                return
        # Wake self immediately; neighbors see the counter after the
        # coherence latency of the connecting path.
        self._try_start(stage)
        me = self.stage_socket(stage)
        for nb in (stage - 1, stage + 1):
            if 0 <= nb < self.config.n_stages:
                lat = self.machine.coherence_latency(me, self.stage_socket(nb))
                self.engine.schedule(lat, lambda nb=nb: self._try_start(nb))
        if self.is_barrier:
            # A barrier release is global: everyone re-evaluates.
            for s in range(self.config.n_stages):
                if s not in (stage - 1, stage, stage + 1):
                    self.engine.schedule(
                        self.machine.coherence_latency(me, self.stage_socket(s)),
                        lambda s=s: self._try_start(s))

    # -- block operation ------------------------------------------------------------

    def _begin_op(self, stage: int) -> None:
        cfg = self.config
        idx = self.counters[stage]
        shift = min(stage * cfg.updates_per_thread, self.decomp.max_shift)
        cells = self.decomp.region(idx, shift).ncells
        T = cfg.updates_per_thread
        if cells == 0:
            self.engine.schedule(self.machine.block_overhead,
                                 lambda: self._op_done(stage))
            return
        self.cell_updates += cells * T

        socket = self.stage_socket(stage)
        team = cfg.stage_team(stage)
        front = cfg.is_team_front(stage)
        bal = self.balance
        cache = self.caches[socket]
        footprint = bal.block_footprint(cells)

        mem_load = 0.0
        remote = 0.0
        cache_updates = T
        seen = self._seen_blocks[socket]
        hit, evicted = cache.touch(idx, footprint, dirty_bytes=cells * W)
        for ev in evicted:
            if ev.dirty_bytes:
                self._writeback(ev.dirty_bytes)

        if front:
            cache_updates = T - 1
            prev_cache = self.caches[self.stage_socket(stage - 1)] if team > 0 else None
            if team > 0 and prev_cache is not None and prev_cache.contains(idx):
                remote = cells * W
                prev_cache.evict(idx)  # ownership moves with the block
            else:
                mem_load = cells * bal.mem_load_bpc
                if idx in seen:
                    self.reloads += 1
        elif not hit:
            # Compulsory load if nobody on this socket touched the block
            # yet (clipped drain edges); otherwise the block fell out of
            # the shared cache (d_u too large for the block size) — the
            # paper's performance cliff.
            mem_load = cells * bal.mem_load_bpc
            if idx in seen:
                self.reloads += 1
            cache_updates = T - 1
        seen.add(idx)

        cache_b = cache_updates * cells * bal.cache_bpc_update
        mem_store = T * cells * bal.mem_bpc_update

        self.mem_bytes += mem_load + mem_store
        self.remote_bytes += remote
        self.cache_bytes += cache_b

        compute_t = T * cells / self.machine.core_mlups
        if not self.loose:
            compute_t /= self.machine.lockstep_efficiency
        sigma = self.machine.jitter_sigma
        f = float(self.rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))
        stall = max(0.0, f - 1.0) * compute_t
        overhead = self.machine.block_overhead
        if self.is_barrier:
            bcost = self.machine.barrier_cost(cfg.n_stages,
                                              min(cfg.teams, self.machine.sockets))
            overhead += bcost
            self.barrier_time += bcost

        flows: List[Tuple[FlowResource, float, float]] = []
        n_sk = self.machine.sockets
        for nbytes in (mem_load, mem_store):
            if nbytes <= 0:
                continue
            if self.placement == "round_robin":
                per = nbytes / n_sk
                cap = self.machine.mem_bw_single / n_sk
                for s in range(n_sk):
                    flows.append((self.mem_bus[s], per, cap))
                    if s != socket and n_sk > 1:
                        # Remote-socket pages transit the inter-socket
                        # link: the ccNUMA price of round-robin placement
                        # that makes one-process-per-socket (2PPN) win in
                        # Sect. 2.2.
                        flows.append((self.link, per, self.machine.remote_bw))
            elif self.placement == "first_touch":
                flows.append((self.mem_bus[socket], nbytes,
                              self.machine.mem_bw_single))
            else:  # master_touch: every page on socket 0
                flows.append((self.mem_bus[0], nbytes,
                              self.machine.mem_bw_single))
        if remote > 0:
            flows.append((self.link, remote, self.machine.remote_bw))
        if cache_b > 0:
            flows.append((self.l3_bus[socket], cache_b,
                          self.machine.shared_cache.bandwidth))

        if self.loose:
            # Transfers overlap computation: op ends when the slower of
            # (compute timer, all flows) completes.
            self.pending_parts[stage] = 1 + len(flows)
            done = lambda: self._part_done(stage)
            self.engine.schedule(compute_t + stall + overhead, done)
            for res, nbytes, cap in flows:
                res.start(nbytes, cap=cap, on_done=done)
        else:
            # Tight coupling defeats overlap/prefetch: transfers first,
            # then compute.
            def then_compute() -> None:
                self.engine.schedule(compute_t + stall + overhead,
                                     lambda: self._op_done(stage))

            if flows:
                self.pending_parts[stage] = len(flows)

                def part() -> None:
                    self.pending_parts[stage] -= 1
                    if self.pending_parts[stage] == 0:
                        then_compute()

                for res, nbytes, cap in flows:
                    res.start(nbytes, cap=cap, on_done=part)
            else:
                then_compute()

    def _part_done(self, stage: int) -> None:
        self.pending_parts[stage] -= 1
        if self.pending_parts[stage] == 0:
            self._op_done(stage)

    def _writeback(self, nbytes: float) -> None:
        self.writeback_bytes += nbytes
        n_sk = self.machine.sockets
        if self.placement == "round_robin":
            per = nbytes / n_sk
            for s in range(n_sk):
                self.mem_bus[s].start(per, cap=self.machine.mem_bw_single / n_sk)
        elif self.placement == "master_touch":
            self.mem_bus[0].start(nbytes, cap=self.machine.mem_bw_single)
        else:
            self.mem_bus[0].start(nbytes, cap=self.machine.mem_bw_single)


def simulate_pipelined(machine: MachineSpec, config: PipelineConfig,
                       shape: Sequence[int], passes: int = 1,
                       balance: Optional[CodeBalance] = None,
                       placement: str = "round_robin",
                       seed: int = 0) -> NodeSimReport:
    """Convenience wrapper: build the sim, run it, return the report."""
    sim = PipelinedNodeSim(machine, config, shape, balance=balance,
                           placement=placement, seed=seed)
    return sim.run(passes)
