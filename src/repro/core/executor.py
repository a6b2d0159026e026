"""The pipelined temporal-blocking executor (functional rail).

This engine runs the paper's scheme *as an algorithm*: simulated pipeline
stages (threads) walk the block traversal, each performing its ``T``
one-cell-shifted updates per block, gated by the synchronisation policy
(global barrier or relaxed counters, Eq. 3).  The engine explores *any*
legal interleaving — round-robin, seeded-random, or adversarial
front-/rear-biased orders — and every storage access is validated, so an
illegal schedule raises instead of silently producing a wrong (or even a
right) answer.

The geometry of a pass is resolved once, not per block: before a pass
starts, every update of every stage is bound to the three per-axis span
rows of its shift level (:meth:`BlockDecomposition.level_rows`, memoised
process-wide and already clipped to the update's active box), and a
block op — the one body the cooperative loop, the ``threads`` stage
threads and the ``dist`` per-rank trapezoid all run — indexes those rows
by its block index: emptiness and cell count are integer products, and
the engine receives spans whose slices address the storage directly.

What this deliberately does **not** model is wall-clock time; that is the
job of the discrete-event rail in :mod:`repro.sim`, which executes the
same schedule against a machine model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..engine import get_engine
from ..grid.blocks import BlockDecomposition
from ..grid.grid3d import Grid3D
from ..grid.region import Box
from ..kernels.stencils import StarStencil
from ..obs.tracer import NULL_TRACER, Tracer
from .parameters import PipelineConfig
from .schedule import make_decomposition
from .storage import CompressedStorage, make_storage
from .sync import make_policy, waiting_stages

__all__ = ["ScheduleDeadlock", "ExecutionStats", "PipelineExecutor", "ORDERS"]

ActiveFn = Callable[[int], Box]

#: Interleaving orders understood by the executor.
ORDERS = ("round_robin", "random", "front_first", "rear_first")


class ScheduleDeadlock(RuntimeError):
    """No stage is ready although work remains (e.g. ``d_u < d_l``)."""


@dataclass
class ExecutionStats:
    """Counters describing one executor run (all passes)."""

    block_ops: int = 0
    empty_block_ops: int = 0
    updates: int = 0
    cells_updated: int = 0
    per_stage_blocks: List[int] = field(default_factory=list)
    max_counter_gap: int = 0
    trace: Optional[List[Tuple[int, int, int]]] = None  # (pass, stage, idx)

    def mlups_equivalent(self, seconds: float) -> float:
        """Convenience: cell updates per second if the run took ``seconds``."""
        return self.cells_updated / seconds / 1e6 if seconds > 0 else float("nan")


class PipelineExecutor:
    """Run a pipelined temporal-blocking schedule on real arrays.

    Parameters
    ----------
    grid, field:
        The domain description and the level-0 interior values.
    config:
        Pipeline parameters (teams, T, block size, sync, storage).
    stencil:
        A radius-1 star stencil.
    order:
        Interleaving policy among ready stages: ``round_robin`` (default,
        deterministic), ``random`` (seeded via ``rng``), ``front_first``
        (front thread as eager as possible — maximal skew), or
        ``rear_first`` (minimal skew).
    active_fn:
        Optional map from *global* time level to the active box for that
        update; used by the distributed trapezoid.  Defaults to the whole
        interior.
    validate:
        Enable storage validation (two-buffer / compressed-position
        checks).  Tests run with it on; large demo runs may switch it off.
    record_trace:
        Keep the full (pass, stage, block) execution order in the stats.
    tracer:
        An :class:`repro.obs.tracer.Tracer` to record per-block spans and
        sync/drain counters into; defaults to the no-op tracer, whose
        guard variable keeps the instrumented paths allocation-free.
    """

    def __init__(
        self,
        grid: Grid3D,
        field: np.ndarray,
        config: PipelineConfig,
        stencil: StarStencil,
        order: str = "round_robin",
        rng: Optional[np.random.Generator] = None,
        active_fn: Optional[ActiveFn] = None,
        validate: bool = True,
        record_trace: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if order not in ORDERS:
            raise ValueError(f"unknown order {order!r}; choose from {ORDERS}")
        self.grid = grid
        self.config = config
        self.stencil = stencil
        self.order = order
        self.rng = rng or np.random.default_rng(0)
        self.active_fn = active_fn
        self.decomp: BlockDecomposition = make_decomposition(grid.domain, config)
        self.policy = make_policy(config)
        #: Kernel-execution engine every update dispatches through
        #: (:mod:`repro.engine`); engines are bit-identical, so this
        #: changes throughput, never the schedule or the results.
        self.engine = get_engine(config.engine)
        self.storage = make_storage(config.storage, grid, field,
                                    self.decomp.shift_vec,
                                    config.updates_per_pass, validate=validate)
        self.stats = ExecutionStats(per_stage_blocks=[0] * config.n_stages,
                                    trace=[] if record_trace else None)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._rr_next = 0
        #: Per stage, the ``(level, rows)`` of its updates in the current
        #: pass (:meth:`_begin_pass`).
        self._stage_rows: Tuple[Tuple[Tuple, ...], ...] = ()

    # -- public API -------------------------------------------------------------

    def run(self, passes: Optional[int] = None) -> np.ndarray:
        """Execute ``passes`` pipeline passes; return the final interior.

        Each pass advances every (active) cell by ``n*t*T`` levels; an
        implicit global barrier separates passes, as in the reference
        implementation.
        """
        n_passes = self.config.passes if passes is None else int(passes)
        for p in range(n_passes):
            self.run_pass(p)
        final = n_passes * self.config.updates_per_pass
        return self.storage.extract(final)

    def run_pass(self, pass_idx: int) -> None:
        """Execute one full pipeline pass (every stage over every block)."""
        cfg = self.config
        P = cfg.n_stages
        n_blocks = self.decomp.n_traversal_blocks
        self._begin_pass(pass_idx)
        counters = [0] * P
        finished = [False] * P
        with self.tracer.span("pass", cat="core", idx=pass_idx):
            while not all(finished):
                ready = [s for s in range(P)
                         if not finished[s]
                         and self.policy.ready(s, counters, finished)]
                if not ready:
                    raise ScheduleDeadlock(
                        f"pass {pass_idx}: no ready stage (counters={counters}); "
                        f"sync spec {cfg.sync.describe()} cannot make progress"
                    )
                if self.tracer.enabled:
                    # Sync-window pressure: how many unfinished stages the
                    # window blocks at this poll (the functional rail's
                    # deterministic proxy for wait time), and whether we
                    # are in a drain phase (some stage already done).
                    blocked = waiting_stages(self.policy, counters, finished)
                    if blocked:
                        self.tracer.count("sync.blocked_polls", len(blocked))
                    if any(finished):
                        self.tracer.count("core.drain_blocks")
                s = self._pick(ready)
                self._execute_block(pass_idx, s, counters[s])
                counters[s] += 1
                if counters[s] == n_blocks:
                    finished[s] = True
                gap = max(counters) - min(counters)
                if gap > self.stats.max_counter_gap:
                    self.stats.max_counter_gap = gap

    # -- internals ---------------------------------------------------------------

    def _pick(self, ready: List[int]) -> int:
        if self.order == "round_robin":
            for probe in range(self.config.n_stages):
                s = (self._rr_next + probe) % self.config.n_stages
                if s in ready:
                    self._rr_next = (s + 1) % self.config.n_stages
                    return s
            raise AssertionError("unreachable: ready set was non-empty")
        if self.order == "random":
            return int(self.rng.choice(ready))
        if self.order == "front_first":
            return min(ready)
        return max(ready)  # rear_first

    def _begin_pass(self, pass_idx: int) -> None:
        """Resolve the pass geometry before any block runs.

        Per stage, each of its updates becomes ``(level, rows)`` with the
        three per-axis span rows of its shift level, clipped to its
        active box — memoised lookups (:func:`repro.grid.blocks.axis_row`)
        shared by every pass, rank and solve of the same shape, so a
        block op below only indexes them.
        """
        cfg = self.config
        base = pass_idx * cfg.updates_per_pass
        # Compressed grid: odd passes unwind the storage shift, which
        # requires the reversed ("mirror") traversal — the paper's reverse
        # loops on even sweeps.  Two-grid passes are direction-agnostic.
        mirror = (pass_idx % 2 == 1) and isinstance(self.storage, CompressedStorage)
        domain = self.grid.domain
        plan = []
        for stage in range(cfg.n_stages):
            updates = []
            for u_local in cfg.stage_updates(stage):
                level = base + u_local
                active = (domain if self.active_fn is None
                          else self.active_fn(level).intersect(domain))
                updates.append((level, self.decomp.level_rows(
                    u_local - 1, active, mirror)))
            plan.append(tuple(updates))
        self._stage_rows = tuple(plan)

    def _execute_block(self, pass_idx: int, stage: int, traversal_idx: int,
                       stats: Optional[ExecutionStats] = None) -> None:
        # ``stats`` lets a caller isolate the counter sink per stage: the
        # threaded executor hands every stage thread its own
        # ExecutionStats (merged after the join), because concurrent
        # ``+=`` on one shared object loses updates.  The simulated rail
        # keeps the default — its single thread owns ``self.stats``.
        stats = self.stats if stats is None else stats
        stats.block_ops += 1
        if stats.trace is not None:
            stats.trace.append((pass_idx, stage, traversal_idx))
        k0, k1, k2 = self.decomp.block_index(traversal_idx)
        tracer, engine = self.tracer, self.engine
        any_work = False
        with tracer.span("block", cat="core", tid=stage + 1,
                         stage=stage, idx=traversal_idx):
            for level, (rz, ry, rx) in self._stage_rows[stage]:
                spans = (rz[k0], ry[k1], rx[k2])
                cells = spans[0].n * spans[1].n * spans[2].n
                if not cells:
                    continue
                any_work = True
                with tracer.span("apply", cat="engine", tid=stage + 1,
                                 engine=engine.name,
                                 semantics=engine.semantics, cells=cells):
                    engine.apply_spans(self.stencil, self.storage, spans, level)
                stats.updates += 1
                stats.cells_updated += cells
        stats.per_stage_blocks[stage] += 1
        if not any_work:
            stats.empty_block_ops += 1
