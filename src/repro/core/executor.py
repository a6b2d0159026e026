"""The pipelined temporal-blocking executor (functional rail).

This engine runs the paper's scheme *as an algorithm*: pipeline stages
walk the block traversal, each performing its ``T`` one-cell-shifted
updates per block, gated by the synchronisation policy (global barrier
or relaxed counters, Eq. 3).  The executor checks no levels at run
time: a schedule's legality is certified before it runs
(:func:`repro.analysis.assert_legal`; ``repro.solve(validate=True)``
and the stage-thread driver call it), and the tests pin every rail
byte-equal to :func:`repro.kernels.reference_sweeps`.

There is one pass loop.  :meth:`PipelineExecutor.run_pass` builds a
:class:`~repro.core.sync.CounterBoard` — the only holder of the pass's
live sync state — defines one step (a *run* of a stage's next blocks,
then their publication) and hands both to a *driver*: the deterministic
**interleaver**, one thread playing every stage in *any* legal order
(round-robin, seeded-random, adversarial front-/rear-biased), or
**stage threads**, one OS thread per stage sleeping on the board
(``backend="threads"``).  Real concurrency is one more interleaving the
window permits, hence bit-identical on every schedule
:func:`repro.analysis.assert_legal` certifies — and the executor
certifies, unconditionally, before it starts a thread.  What a stage
thread touches, and why that is safe: field arrays — disjoint slices by
legality, and reads stay inside the two-buffer window; engines —
stateless between calls (:mod:`repro.engine.base`); work counts — each
stage writes only its own tally and board counter, folded after the
join; the tracer — per-thread buffers merged on ``finish()``.

A step runs every block the Eq. 3 window admits at once
(:meth:`~repro.core.sync.CounterBoard.run_length`: the policy's own
``ready`` asked about the stage's counter bumped by 1, 2, …), up to
:attr:`PipelineExecutor.run_cap` — as many *nominal* blocks as the
numpy engine's in-cache slab budget (:data:`~repro.engine.numpy_engine.SLAB_BYTES`)
holds, so a block that fills the budget alone keeps a step of its own
and its per-block cache reuse.  The run is published block by block at
its end; until then the counter lags the work, which only makes the
neighbours more cautious — a state a slow stage reaches anyway, and one
the certificate covers.  The interleaver takes the run after ``pick``,
a stage thread under the board's condition after ``wait_ready``.

The geometry of a pass is resolved once, not per block: before a pass
starts, every update of every stage is bound to the three per-axis span
rows of its shift level (:meth:`BlockDecomposition.level_rows`, memoised
process-wide and already clipped to the update's active box).  A run —
the one body both drivers and the ``dist`` per-rank trapezoid run —
splits into groups of blocks adjacent along the innermost axis cut into
more than one block (a row boundary ends a group) and updates each
group **level-major**: per update of the stage, one engine call over
the union of the group's spans (:func:`_run_span`, memoised by
integers).  That is legal because of the one-cell shift: along the
group's axis, block ``j+1``'s update ``u`` writes only cells that block
``j``'s later updates neither read nor write, and reads none they
write, so swapping the two leaves every value the same.  Emptiness and
cell counts are integer products, work is tallied per block as if each
ran alone, and the engine receives spans whose slices address the
storage directly.

What this deliberately does **not** model is wall-clock time; that is the
job of the discrete-event rail in :mod:`repro.sim`, which executes the
same schedule against a machine model.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import zip_longest
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..engine import get_engine
from ..engine.numpy_engine import SLAB_BYTES
from ..grid.blocks import AxisSpan, BlockDecomposition, RowKey, axis_row
from ..grid.grid3d import Grid3D
from ..grid.region import Box
from ..kernels.stencils import StarStencil
from ..obs.tracer import NULL_TRACER, Tracer
from .parameters import PipelineConfig
from .schedule import make_decomposition
from .storage import CompressedStorage, make_storage
from .sync import CounterBoard, SyncAborted, make_policy

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

    def merge(self, *others: "ExecutionStats") -> "ExecutionStats":
        """Add ``others`` — one more pass, every rank — into this one."""
        for other in others:
            self.block_ops += other.block_ops
            self.empty_block_ops += other.empty_block_ops
            self.updates += other.updates
            self.cells_updated += other.cells_updated
            self.per_stage_blocks = [a + b for a, b in zip_longest(
                self.per_stage_blocks, other.per_stage_blocks, fillvalue=0)]
            self.max_counter_gap = max(self.max_counter_gap,
                                       other.max_counter_gap)
            if self.trace is not None and other.trace is not None:
                self.trace.extend(other.trace)
        return self

    def to_json(self) -> Dict[str, Any]:
        """The counters, trace left out; ``ExecutionStats(**doc)`` rebuilds them."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trace"}

    def mlups_equivalent(self, seconds: float) -> float:
        """Convenience: cell updates per second if the run took ``seconds``."""
        return self.cells_updated / seconds / 1e6 if seconds > 0 else float("nan")


#: Merged spans the process-wide :func:`_run_span` memo holds.
RUN_MEMO_SIZE = 4096


@lru_cache(maxsize=RUN_MEMO_SIZE)
def _run_span(key: RowKey, a: int, b: int) -> Tuple[AxisSpan, int, int]:
    """Blocks ``a .. b-1`` of the row :func:`~repro.grid.blocks.axis_row`
    builds from ``key``, as one span: the union of their intervals (a
    mirrored row descends, hence min/max), how many hold cells, and
    which (bit ``j`` for block ``a + j``).  Memoised by integers alone,
    like the rows, so a run builds no span in steady state."""
    row = axis_row(*key)[a:b]
    full = [sp for sp in row if sp.n]
    if not full:
        return row[0], 0, 0
    first = min(full, key=lambda sp: sp.lo)
    hi = max(sp.hi for sp in full)
    assert hi - first.lo == sum(sp.n for sp in full), (key, a, b)
    bits = sum(1 << j for j, sp in enumerate(row) if sp.n)
    return first.sub(0, hi - first.lo), len(full), bits


@dataclass
class _Tally:
    """What one stage did in one pass; only that stage writes it."""

    updates: int = 0
    cells: int = 0
    empty_ops: int = 0


def _interleave(board: CounterBoard, step: Callable[[int, int], None],
                pick: Callable[[List[int]], int], cap: int) -> None:
    """Driver: one thread plays every stage, ``pick`` choosing among the
    open ones — any interleaving the window permits, deterministically —
    and the picked stage runs every block its window admits, up to ``cap``."""
    left = board.n_stages * board.n_blocks
    while left:
        is_open = board.poll()
        if not is_open:
            raise ScheduleDeadlock(
                "no stage can start its next block: " + board.describe_wait())
        stage = pick(is_open)
        k = board.run_length(stage, cap)
        step(stage, k)
        left -= k


def _stage_threads(board: CounterBoard, step: Callable[[int, int], None],
                   cap: int) -> None:
    """Driver: one OS thread per stage, sleeping on the board.  A stage's
    exception goes to the board, which wakes every waiter so the pass
    unwinds instead of hanging on a counter that will never move again;
    the original is re-raised after the join."""
    def stage_body(stage: int) -> None:
        try:
            left = board.n_blocks
            while left:
                k = board.wait_ready(stage, cap)
                step(stage, k)
                left -= k
        except SyncAborted:
            pass  # a peer failed first; its exception is on the board
        except BaseException as exc:  # noqa: BLE001 - must release peers
            board.abort(exc)

    threads = [threading.Thread(target=stage_body, args=(s,),
                                name=f"repro-stage-{s}", daemon=True)
               for s in range(board.n_stages)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    failure = board.failure
    if failure is not None:
        raise failure


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
    record_trace:
        Keep the (pass, stage, block) publication order in the stats.
    tracer:
        An :class:`repro.obs.tracer.Tracer` to record per-block spans and
        sync/drain counters into; defaults to the no-op tracer, whose
        guard variable keeps the instrumented paths allocation-free.
    threads:
        One OS thread per stage instead of the interleaver: the OS picks
        the interleaving, so ``order`` / ``rng`` are rejected, and the
        schedule is certified **unconditionally** (once per geometry per
        process), here (:class:`~repro.analysis.StaticAnalysisError`).
    watchdog_s:
        Bound on any single sync wait of a stage thread; a legal
        schedule never trips it (:class:`~repro.core.sync.SyncWaitTimeout`).
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
        record_trace: bool = False,
        tracer: Optional[Tracer] = None,
        threads: bool = False,
        watchdog_s: Optional[float] = 120.0,
    ) -> None:
        if order not in ORDERS:
            raise ValueError(f"unknown order {order!r}; choose from {ORDERS}")
        if threads:
            if order != "round_robin" or rng is not None:
                raise ValueError(
                    "order and rng choose among the interleaver's schedules; "
                    "stage threads run whatever the OS scheduler produces")
            from ..analysis import assert_legal

            assert_legal(config, grid.shape, (1, 1, 1))
        self.grid = grid
        self.config = config
        self.stencil = stencil
        self.order = order
        self.rng = rng or np.random.default_rng(0)
        self.active_fn = active_fn
        self.threads = threads
        self.watchdog_s = watchdog_s
        self.decomp: BlockDecomposition = make_decomposition(grid.domain, config)
        #: Most blocks one step runs (:meth:`CounterBoard.run_length`): as
        #: many nominal blocks as the numpy engine's in-cache slab budget
        #: holds, so a block that fills it alone keeps its own step.
        self.run_cap = max(1, SLAB_BYTES // self.decomp.block_bytes(
            np.dtype(grid.dtype).itemsize))
        #: The innermost axis cut into more than one block: consecutive
        #: traversal indices are adjacent along it within one row.
        counts = self.decomp.extended_counts
        self._run_axis = max((d for d in range(3) if counts[d] > 1), default=2)
        self.policy = make_policy(config)
        #: Kernel-execution engine every update dispatches through
        #: (:mod:`repro.engine`); engines are bit-identical, so this
        #: changes throughput, never the schedule or the results.
        self.engine = get_engine(config.engine)
        self.storage = make_storage(config.storage, grid, field,
                                    self.decomp.shift_vec,
                                    config.updates_per_pass)
        self.stats = ExecutionStats(per_stage_blocks=[0] * config.n_stages,
                                    trace=[] if record_trace else None)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._rr_next = 0
        #: Per stage, the ``(level, rows, key)`` of its updates in the
        #: current pass (:meth:`_begin_pass`).
        self._stage_rows: Tuple[Tuple[Tuple, ...], ...] = ()

    # -- public API -------------------------------------------------------------

    def run(self, passes: Optional[int] = None) -> np.ndarray:
        """Execute ``passes`` pipeline passes; return the final interior.

        Each pass advances every (active) cell by ``n*t*T`` levels; an
        implicit global barrier separates passes, as in the reference
        implementation.  The result is the storage's own buffer, so a run
        consumes its storage (:meth:`~repro.core.storage._StorageBase.release`):
        drive :meth:`run_pass` to inspect the storage after the last pass.
        """
        n_passes = self.config.passes if passes is None else int(passes)
        for p in range(n_passes):
            self.run_pass(p)
        return self.storage.release(n_passes * self.config.updates_per_pass)

    def run_pass(self, pass_idx: int) -> None:
        """Execute one full pipeline pass (every stage over every block)."""
        P = self.config.n_stages
        self._begin_pass(pass_idx)
        board = CounterBoard(self.policy, P, self.decomp.n_traversal_blocks,
                             timeout=self.watchdog_s,
                             record_log=self.stats.trace is not None)
        counters = board.counters
        tallies = [_Tally() for _ in range(P)]
        publish = board.advance if self.threads else board.publish

        def step(stage: int, k: int) -> None:
            self._execute_run(stage, counters[stage], k, tallies[stage])
            publish(stage, k)

        with self.tracer.span("pass", cat="threads" if self.threads else "core",
                              idx=pass_idx):
            if self.threads:
                _stage_threads(board, step, self.run_cap)
            else:
                _interleave(board, step, self._pick, self.run_cap)
        self.stats.merge(ExecutionStats(
            block_ops=sum(counters),
            empty_block_ops=sum(t.empty_ops for t in tallies),
            updates=sum(t.updates for t in tallies),
            cells_updated=sum(t.cells for t in tallies),
            per_stage_blocks=counters,
            max_counter_gap=board.max_counter_gap,
            trace=(None if board.log is None
                   else [(pass_idx, s, idx) for s, idx in board.log])))
        # Deterministic on the interleaver, real blocked wakeups under
        # stage threads: comparable in spirit, not in magnitude.
        if board.blocked_polls:
            self.tracer.count("sync.blocked_polls", board.blocked_polls)
        if board.drain_blocks:
            self.tracer.count("core.drain_blocks", board.drain_blocks)

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

        Per stage, each of its updates becomes ``(level, rows, key)``
        with the three per-axis span rows of its shift level, clipped to
        its active box — memoised lookups (:func:`repro.grid.blocks.axis_row`)
        shared by every pass, rank and solve of the same shape, so a
        run below only indexes them — and the integer key of its row
        along the run axis, which :func:`_run_span` merges by.
        """
        cfg = self.config
        base = pass_idx * cfg.updates_per_pass
        # Compressed grid: odd passes unwind the storage shift, which
        # requires the reversed ("mirror") traversal — the paper's reverse
        # loops on even sweeps.  Two-grid passes are direction-agnostic.
        mirror = (pass_idx % 2 == 1) and isinstance(self.storage, CompressedStorage)
        domain, decomp, axis = self.grid.domain, self.decomp, self._run_axis
        plan = []
        for stage in range(cfg.n_stages):
            updates = []
            for u_local in cfg.stage_updates(stage):
                level = base + u_local
                active = (domain if self.active_fn is None
                          else self.active_fn(level).intersect(domain))
                shift = u_local - 1
                updates.append((level, decomp.level_rows(shift, active, mirror),
                                decomp.level_keys(shift, active, mirror)[axis]))
            plan.append(tuple(updates))
        self._stage_rows = tuple(plan)

    def _execute_run(self, stage: int, first: int, k: int,
                     tally: _Tally) -> None:
        """Blocks ``first .. first+k-1`` of ``stage``, one group at a time.

        A group is the run's blocks within one row of the run axis
        (:attr:`_run_axis`); it is updated level-major, one engine call
        per update over the union of its blocks' spans.  ``k = 1`` is
        the single-block op.  Work is tallied per block, as if each ran
        alone.
        """
        decomp, axis = self.decomp, self._run_axis
        row_len = decomp.extended_counts[axis]
        tracer, engine, stencil, storage = (self.tracer, self.engine,
                                            self.stencil, self.storage)
        plan = self._stage_rows[stage]
        end = first + k
        with tracer.span("block", cat="core", tid=stage + 1,
                         stage=stage, idx=first, blocks=k):
            while first < end:
                k0, k1, k2 = ks = decomp.block_index(first)
                a = ks[axis]
                n = min(end - first, row_len - a)
                worked = 0
                for level, (rz, ry, rx), key in plan:
                    spans = [rz[k0], ry[k1], rx[k2]]
                    if n == 1:
                        count = bits = 1
                    else:
                        spans[axis], count, bits = _run_span(key, a, a + n)
                    cells = spans[0].n * spans[1].n * spans[2].n
                    if not cells:
                        continue
                    worked |= bits
                    with tracer.span("apply", cat="engine", tid=stage + 1,
                                     engine=engine.name,
                                     semantics=engine.semantics, cells=cells):
                        engine.apply_spans(stencil, storage, tuple(spans), level)
                    tally.updates += count
                    tally.cells += cells
                tally.empty_ops += n - bin(worked).count("1")
                first += n
