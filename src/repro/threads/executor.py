"""The truly-threaded pipeline executor: stages on real OS threads.

The simulated rail (:class:`repro.core.executor.PipelineExecutor`)
interleaves pipeline stages cooperatively on one thread — any legal
interleaving, but never two stages *at the same instant*.  This
executor runs the identical schedule with one ``threading.Thread`` per
pipeline stage, gated by the same Eq. 3 counter-window policies through
a :class:`~repro.core.sync.CounterBoard` (condition-variable wait and
notify instead of the simulated rail's poll loop), so the paper's
central artifact — n teams × t threads sharing a cache — actually runs
concurrently for the first time.

Why the results are still bit-identical to the simulated rail: the
schedule-legality invariant (machine-checked by
:func:`repro.analysis.assert_legal`, which :func:`run_threaded` calls
**unconditionally** before any thread starts) guarantees that every
interleaving the sync window permits reads exactly the values program
order would have produced — each cell update reads inputs that are
already final and writes a location nothing else touches until the
window lets it.  True concurrency is just one more permitted
interleaving, so ``threads ≡ shared`` holds byte-for-byte; the
differential battery in ``tests/test_threads.py`` pins it.

What real threads buy depends on the engine.  The ``numpy`` engine
overlaps wherever numpy releases the GIL (large-array arithmetic), the
``numba`` engine's fused loops release it explicitly (``nogil``) for
the compiled arithmetic — and the ``numba-deep`` engine extends that
to the *entire block traversal* (gather, boundary patch and
destination write in one ``nogil`` region), so a stage holds the GIL
only for its per-block Python dispatch.  On free-threaded CPython
(3.13t) every engine runs fully concurrently.  Single-core hosts still get a
correct, wall-clock-parallel executor — just no speedup, which is why
the perf gate for >1x lives behind a core-count/numba guard.

Thread-safety inventory (everything a stage thread touches):

* field arrays / level bookkeeping — disjoint slices per the certified
  schedule; the storage validation reads stay correct because any
  concurrently written cell is within the two-buffer window by
  legality;
* engines — stateless between calls (scratch is per call or per
  thread; the engine contract in :mod:`repro.engine.base` requires it);
* executor counters — per-stage :class:`ExecutionStats`, merged after
  the join (shared ``+=`` would lose updates);
* tracer — :class:`repro.obs.tracer.Tracer` accumulates per-thread and
  merges on ``finish()``; span rows are keyed by stage tid, so a
  traced threaded solve lands on one timeline with one row per stage.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

from ..core.executor import ExecutionStats, PipelineExecutor
from ..core.parameters import PipelineConfig
from ..core.pipeline import SolveResult
from ..core.sync import CounterBoard, SyncAborted
from ..grid.grid3d import Grid3D
from ..kernels.jacobi import jacobi7
from ..kernels.stencils import StarStencil
from ..obs.tracer import Tracer

__all__ = ["ThreadedPipelineExecutor", "run_threaded"]


class ThreadedPipelineExecutor(PipelineExecutor):
    """Run a certified pipelined schedule with one OS thread per stage.

    Construction mirrors :class:`PipelineExecutor` (same decomposition,
    policy, storage and engine resolution); only the pass loop differs.
    There is no ``order`` knob — the interleaving is whatever the
    hardware scheduler produces within the sync window, which is
    exactly the set of interleavings the static analyzer certified.

    ``watchdog_s`` bounds any single sync wait; a legal schedule never
    trips it, so it exists purely to turn upstream bugs into a
    diagnosable :class:`~repro.core.sync.SyncWaitTimeout` instead of a
    hung process (CI runs the stress hammer under ``timeout`` as the
    outer belt-and-braces).
    """

    def __init__(
        self,
        grid: Grid3D,
        field: np.ndarray,
        config: PipelineConfig,
        stencil: StarStencil,
        validate: bool = True,
        record_trace: bool = False,
        tracer: Optional[Tracer] = None,
        watchdog_s: Optional[float] = 120.0,
    ) -> None:
        super().__init__(grid, field, config, stencil,
                         validate=validate, record_trace=record_trace,
                         tracer=tracer)
        self.watchdog_s = watchdog_s

    def run_pass(self, pass_idx: int) -> None:
        """One pipeline pass: spawn stage threads, join, merge, re-raise."""
        P = self.config.n_stages
        self._begin_pass(pass_idx)
        board = CounterBoard(self.policy, P, self.decomp.n_traversal_blocks,
                             timeout=self.watchdog_s)
        stage_stats = [
            ExecutionStats(per_stage_blocks=[0] * P,
                           trace=[] if self.stats.trace is not None else None)
            for _ in range(P)
        ]
        threads = [
            threading.Thread(
                target=self._stage_body,
                args=(pass_idx, s, board, stage_stats[s]),
                name=f"repro-stage-{s}",
                daemon=True,
            )
            for s in range(P)
        ]
        with self.tracer.span("pass", cat="threads", idx=pass_idx,
                              stages=P):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        failure = board.failure
        if failure is not None:
            raise failure
        self._merge_stage_stats(board, stage_stats)

    # -- internals ---------------------------------------------------------------

    def _stage_body(self, pass_idx: int, stage: int, board: CounterBoard,
                    stats: ExecutionStats) -> None:
        """What one stage thread runs: wait / execute / publish, per block.

        Any exception — storage legality, engine failure, a peer's
        abort — is routed into the board, which wakes every waiter so
        the whole pass unwinds instead of deadlocking on a counter
        that will never move again.
        """
        try:
            for idx in range(self.decomp.n_traversal_blocks):
                board.wait_ready(stage)
                self._execute_block(pass_idx, stage, idx, stats=stats)
                board.advance(stage)
        except SyncAborted:
            pass  # a peer failed first; its exception is on the board
        except BaseException as exc:  # noqa: BLE001 - must release peers
            board.abort(exc)

    def _merge_stage_stats(self, board: CounterBoard,
                           stage_stats: List[ExecutionStats]) -> None:
        """Fold the per-stage sinks into ``self.stats`` after the join.

        Counters add; the counter gap comes from the board (the only
        place a consistent cross-stage view existed); the execution
        trace, if recorded, is merged in (pass, stage, block) order —
        under real concurrency there is no meaningful single global
        order, so the merged trace documents per-stage program order.
        """
        agg = self.stats
        for s, st in enumerate(stage_stats):
            agg.block_ops += st.block_ops
            agg.empty_block_ops += st.empty_block_ops
            agg.updates += st.updates
            agg.cells_updated += st.cells_updated
            agg.per_stage_blocks[s] += st.per_stage_blocks[s]
            if agg.trace is not None and st.trace is not None:
                agg.trace.extend(st.trace)
        if board.max_counter_gap > self.stats.max_counter_gap:
            self.stats.max_counter_gap = board.max_counter_gap
        if self.tracer.enabled:
            # The threaded analogues of the simulated rail's sync
            # pressure counters: real blocked waits, not poll-loop
            # iterations — comparable in spirit, not in magnitude.
            if board.blocked_polls:
                self.tracer.count("sync.blocked_polls", board.blocked_polls)
            if board.drain_blocks:
                self.tracer.count("core.drain_blocks", board.drain_blocks)


def run_threaded(
    grid: Grid3D,
    field: np.ndarray,
    config: PipelineConfig,
    stencil: Optional[StarStencil] = None,
    validate: bool = True,
    record_trace: bool = False,
    tracer: Optional[Tracer] = None,
    watchdog_s: Optional[float] = 120.0,
) -> SolveResult:
    """Advance ``field`` by ``config.total_updates`` levels on real threads.

    The wall-clock-parallel sibling of
    :func:`repro.core.pipeline.run_pipelined`, and the body behind
    ``repro.solve(..., backend="threads")``.

    A true-threads executor has no simulated scheduler to hide behind,
    so the schedule is certified **unconditionally** with
    :func:`repro.analysis.assert_legal` before the first thread starts
    — an illegal schedule raises
    :class:`~repro.analysis.StaticAnalysisError` with a witness
    interleaving and never touches the field.  ``validate`` then only
    controls the runtime storage checks (as on the other backends);
    the static proof cannot be switched off.
    """
    from ..analysis import assert_legal

    st = stencil or jacobi7()
    assert_legal(config, grid.shape, (1, 1, 1),
                 radius=getattr(st, "radius", 1))
    ex = ThreadedPipelineExecutor(
        grid, field, config, st,
        validate=validate, record_trace=record_trace, tracer=tracer,
        watchdog_s=watchdog_s,
    )
    out = ex.run()
    return SolveResult(
        field=out,
        levels_advanced=config.total_updates,
        stats=ex.stats,
        config=config,
        backend="threads",
    )
