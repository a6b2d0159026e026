"""The stage-thread driver: differential battery, sync board, hammers.

What this file pins, in dependency order:

* **CounterBoard semantics** — the condition-variable sync counters
  behind the executor's stage threads: Eq. 3 gating, the drain-waiver wakeup
  (a stage becomes ready because its predecessor *finished*, not
  because a counter moved — the missed-wakeup bug class the board's
  notify-on-finish fixes), abort propagation, the watchdog, and a
  multi-thread hammer that must neither deadlock nor lose a count.
* **threads ≡ shared ≡ simmpi** — the cross-backend differential leg:
  bit-identity over kernels × storage schemes × sync windows and over
  every certified quick-suite schedule, with matching executor
  counters.  Legality certification is what makes this a theorem
  rather than luck: any interleaving the window permits — including
  true concurrency — produces the same bytes.
* **Unconditional legality gate** — every way of reaching the thread
  driver (``backend="threads"``, ``run_pipelined(threads=True)``, the
  executor's own constructor) refuses any schedule ``assert_legal``
  rejects even with ``validate=False``; no thread starts and the input
  field is untouched.
* **Diagnostics and publication order** — a stage that can never open
  raises, on either driver, an error naming its blocker; the recorded
  publication order replays as a schedule the policy permits.
* **Obs under threads** — a traced threaded solve merges every stage
  thread's spans onto one timeline; the tracer and registry survive a
  many-threads hammer without losing an event; the disabled-tracer
  zero-allocation contract holds off the main thread too.
* **ResultCache concurrency** — concurrent hits/misses/puts keep the
  LRU bounded and the counters exact (the serve-layer bugfix).
* **Speedup gate** — with the numba engine on a multicore host the
  threaded rail must beat the simulated rail >1x wall-clock.  Skipped,
  with the reason in the skip message, when numba is absent or the
  host has one core — single-core CI still proves correctness, never
  speed.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro import Grid3D, PipelineConfig, RelaxedSpec, solve
from repro.analysis import StaticAnalysisError
from repro.core.executor import ORDERS, PipelineExecutor, ScheduleDeadlock
from repro.core.parameters import BarrierSpec
from repro.core.pipeline import run_pipelined
from repro.core.sync import (CounterBoard, SyncAborted, SyncWaitTimeout,
                             make_policy)
from repro.grid import random_field
from repro.kernels.jacobi import anisotropic_jacobi, jacobi5_2d, jacobi7

STENCILS = {
    "jacobi7": jacobi7,
    "jacobi5_2d": jacobi5_2d,
    "anisotropic": lambda: anisotropic_jacobi(1.0, 2.0, 0.5),
}


def small_config(storage: str = "twogrid", sync=None,
                 passes: int = 2) -> PipelineConfig:
    return PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                          block_size=(3, 64, 64),
                          sync=sync or RelaxedSpec(1, 2),
                          storage=storage, passes=passes)


def board_config(sync=None) -> PipelineConfig:
    """A 4-stage config whose policy the board unit tests gate on."""
    return PipelineConfig(teams=2, threads_per_team=2, updates_per_thread=1,
                          block_size=(2, 64, 64), sync=sync or RelaxedSpec(1, 3))


# ---------------------------------------------------------------------------
# CounterBoard unit tests
# ---------------------------------------------------------------------------


class TestCounterBoard:
    def test_gating_follows_policy(self):
        cfg = board_config()
        board = CounterBoard(make_policy(cfg), cfg.n_stages, n_blocks=8)
        # Stage 0 (overall front) is always ready; stage 1 needs
        # c0 - c1 >= d_l = 1.
        board.wait_ready(0)  # returns immediately
        # Every non-front stage waits on its predecessor's counter.
        assert board.poll() == [0]
        assert board.blocked_polls == 3
        assert "stage 2 waits on stage 1" in board.describe_wait()
        assert board.advance(0) == 1
        board.wait_ready(1)  # window now open
        assert board.advance(1) == 1

    def test_drain_waiver_wakes_blocked_stage(self):
        # The missed-wakeup regression: with d_l=3 and only 2 blocks,
        # stage 1's lower bound can NEVER be met by counter values —
        # it becomes ready only through the drain waiver when stage 0
        # finishes.  The finish flag is set inside advance()'s critical
        # section and notify_all-ed; a wakeup scheme keyed on counter
        # changes alone parks this waiter forever.
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=1, block_size=(2, 64, 64),
                             sync=RelaxedSpec(3, 3))
        board = CounterBoard(make_policy(cfg), cfg.n_stages, n_blocks=2,
                             timeout=20.0)
        woke = threading.Event()

        def waiter():
            board.wait_ready(1)
            woke.set()

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        time.sleep(0.05)
        assert not woke.is_set()  # genuinely blocked
        board.advance(0)
        time.sleep(0.05)
        assert not woke.is_set()  # c0 - c1 = 1 < 3: still blocked
        board.advance(0)  # finishes stage 0 -> drain waiver
        t.join(timeout=10.0)
        assert woke.is_set()
        assert board.blocked_polls >= 2

    def test_drain_blocks_counts_waits_during_drain(self):
        # A stage that re-blocks while some other stage has already
        # finished is a drain-phase wait: the threaded analogue of the
        # simulated rail's ``core.drain_blocks`` counter.
        cfg = PipelineConfig(teams=1, threads_per_team=3,
                             updates_per_thread=1, block_size=(2, 64, 64),
                             sync=RelaxedSpec(1, 4))
        board = CounterBoard(make_policy(cfg), cfg.n_stages, n_blocks=1,
                             timeout=20.0)
        woke = threading.Event()

        def waiter():
            board.wait_ready(2)
            woke.set()

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        time.sleep(0.05)
        board.advance(0)  # stage 0 finishes; stage 2 still blocked on 1
        time.sleep(0.05)
        assert not woke.is_set()
        board.advance(1)  # stage 1 finishes -> waiver -> stage 2 ready
        t.join(timeout=10.0)
        assert woke.is_set()
        assert board.drain_blocks >= 1

    def test_watchdog_times_out_stuck_wait(self):
        cfg = board_config()
        board = CounterBoard(make_policy(cfg), cfg.n_stages, n_blocks=4,
                             timeout=0.05)
        with pytest.raises(SyncWaitTimeout):
            board.wait_ready(1)  # nobody will ever advance stage 0
        assert isinstance(board.failure, SyncWaitTimeout)

    def test_abort_unblocks_waiters_and_keeps_real_cause(self):
        cfg = board_config()
        board = CounterBoard(make_policy(cfg), cfg.n_stages, n_blocks=4,
                             timeout=20.0)
        raised = []

        def waiter():
            try:
                board.wait_ready(1)
            except SyncAborted as exc:
                raised.append(exc)

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        time.sleep(0.05)
        cause = RuntimeError("engine exploded")
        board.abort(cause)
        t.join(timeout=10.0)
        assert len(raised) == 1
        assert board.failure is cause
        # A later SyncAborted from an unwinding peer must not mask it.
        board.abort(SyncAborted("peer unwound"))
        assert board.failure is cause

    def test_counters_and_done(self):
        cfg = board_config()
        board = CounterBoard(make_policy(cfg), cfg.n_stages, n_blocks=1)
        assert not board.done
        for s in range(cfg.n_stages):
            board.advance(s)
        assert list(board.counters) == [1] * cfg.n_stages
        assert board.done

    @pytest.mark.parametrize("cap", [1, 7], ids=["blocks", "runs"])
    def test_hammer_full_run_loses_nothing(self, cap):
        # 4 stage threads drain a 60-block traversal through the real
        # wait/advance protocol, a block per step or, as the executor
        # steps, a run of up to ``cap`` blocks published at its end, at
        # a 1 us switch interval.  The assertions are exact: no lost
        # counter update, no deadlock (watchdog would trip), and every
        # link within d_u(s) + 1, team delay included: 4 + 5 + 4 in all.
        cfg = board_config(sync=RelaxedSpec(1, 3, team_delay=1))
        n_blocks = 60
        board = CounterBoard(make_policy(cfg), cfg.n_stages, n_blocks,
                             timeout=60.0)

        def stage_body(s):
            left = n_blocks
            while left:
                k = board.wait_ready(s, cap)
                board.advance(s, k)
                left -= k

        threads = [threading.Thread(target=stage_body, args=(s,), daemon=True)
                   for s in range(cfg.n_stages)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert board.done and board.failure is None
        assert list(board.counters) == [n_blocks] * cfg.n_stages
        assert board.max_counter_gap <= 13

    def test_rejects_degenerate_shapes(self):
        cfg = board_config()
        with pytest.raises(ValueError):
            CounterBoard(make_policy(cfg), 0, 4)


# ---------------------------------------------------------------------------
# Differential battery: threads ≡ shared ≡ simmpi
# ---------------------------------------------------------------------------


class TestThreadsBitIdentity:
    @pytest.mark.parametrize("kernel", sorted(STENCILS))
    @pytest.mark.parametrize("storage", ["twogrid", "compressed"])
    def test_kernel_storage_matrix(self, kernel, storage):
        grid = Grid3D((16, 14, 12))
        field = random_field(grid.shape, np.random.default_rng(3))
        cfg = small_config(storage=storage)
        st = STENCILS[kernel]()
        shared = solve(grid, field, cfg, stencil=st)
        threaded = solve(grid, field, cfg, backend="threads", stencil=st)
        assert np.array_equal(shared.field, threaded.field)
        if storage == "twogrid":
            # The simmpi leg runs on twogrid only (ghost injection
            # cannot target the compressed layout).
            sim = solve(grid, field, cfg, topology=(1, 1, 1),
                        backend="simmpi", stencil=st)
            assert np.array_equal(sim.field, threaded.field)
        assert threaded.backend == "threads"
        assert threaded.levels_advanced == cfg.total_updates
        # Same schedule, same work: every deterministic counter matches.
        for attr in ("block_ops", "updates", "cells_updated"):
            assert getattr(threaded.stats, attr) == getattr(shared.stats, attr)
        assert threaded.stats.per_stage_blocks == shared.stats.per_stage_blocks

    @pytest.mark.parametrize("sync", [
        BarrierSpec(),
        RelaxedSpec(1, 1),
        RelaxedSpec(1, 4),
        RelaxedSpec(2, 4, team_delay=1),
    ], ids=lambda s: s.describe())
    def test_sync_window_sweep(self, sync):
        grid = Grid3D((12, 10, 10))
        field = random_field(grid.shape, np.random.default_rng(5))
        cfg = PipelineConfig(teams=2, threads_per_team=2,
                             updates_per_thread=1, block_size=(2, 64, 64),
                             sync=sync, passes=2)
        shared = solve(grid, field, cfg)
        threaded = solve(grid, field, cfg, backend="threads")
        assert np.array_equal(shared.field, threaded.field)

    def test_every_certified_quick_schedule(self):
        # The acceptance criterion verbatim: bit-identity on every
        # single-process schedule the quick-suite analyzer run
        # certifies (the same list `repro.analysis check-schedule
        # --suite quick` proves legal before each release).
        from repro.analysis import assert_legal
        from repro.perf.scenarios import solver_schedules

        checked = 0
        for name, shape, cfg, topo in solver_schedules("quick"):
            if topo != (1, 1, 1):
                continue  # distributed schedules have no threads leg
            assert_legal(cfg, shape, topo)
            grid = Grid3D(shape)
            field = random_field(shape, np.random.default_rng(17))
            shared = solve(grid, field, cfg)
            threaded = solve(grid, field, cfg, backend="threads")
            assert np.array_equal(shared.field, threaded.field), name
            checked += 1
        assert checked >= 3

    def test_thread_driver_direct_entry(self):
        grid = Grid3D((12, 10, 10))
        field = random_field(grid.shape, np.random.default_rng(2))
        cfg = small_config()
        res = run_pipelined(grid, field.copy(), cfg, threads=True)
        ref = solve(grid, field, cfg)
        assert np.array_equal(res.field, ref.field)
        assert res.backend == "threads"


# ---------------------------------------------------------------------------
# The unconditional legality gate
# ---------------------------------------------------------------------------


def _tampered_config():
    """A config whose window was forced to ``d_l = 0`` after construction.

    ``RelaxedSpec`` refuses ``d_l < 1``, but a frozen dataclass can be
    overwritten; the analyzer rejects the result with a RAW witness (a
    stage may read a level its predecessor has not written), which
    makes it the lever for testing that every threaded entry refuses
    what the analyzer refuses.
    """
    cfg = small_config()
    object.__setattr__(cfg.sync, "d_l", 0)
    return cfg


@pytest.fixture
def started(monkeypatch):
    """Names of the threads whose ``start`` was called (none ever run)."""
    names = []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: names.append(self.name))
    return names


class TestUnconditionalLegalityGate:
    @pytest.mark.parametrize("validate", [True, False])
    def test_refuses_illegal_schedule_any_validate(self, validate, started):
        grid = Grid3D((16, 12, 12))
        field = np.full(grid.shape, 7.0)
        before = field.copy()
        with pytest.raises(StaticAnalysisError) as exc:
            solve(grid, field, _tampered_config(), backend="threads",
                  validate=validate)
        assert exc.value.report.errors[0].checker == "raw-hazard"
        # No thread ever launched: the input is untouched.
        assert started == []
        assert np.array_equal(field, before)

    def test_direct_entry_refuses_too(self, started):
        grid = Grid3D((16, 12, 12))
        field = np.full(grid.shape, 7.0)
        before = field.copy()
        with pytest.raises(StaticAnalysisError):
            run_pipelined(grid, field, _tampered_config(), threads=True)
        assert started == []
        assert np.array_equal(field, before)

    @pytest.mark.parametrize("record_trace", [True, False])
    def test_executor_itself_refuses(self, record_trace, started):
        # The gate lives in the executor, so constructing it directly —
        # the one entry that used to skip certification — refuses too,
        # before a single stage thread exists, whatever it records.
        grid = Grid3D((16, 12, 12))
        field = np.full(grid.shape, 7.0)
        before = field.copy()
        with pytest.raises(StaticAnalysisError):
            PipelineExecutor(grid, field, _tampered_config(), jacobi7(),
                             record_trace=record_trace, threads=True)
        assert started == []
        assert np.array_equal(field, before)

    @pytest.mark.parametrize("kwargs", [{"order": "random"},
                                        {"rng": np.random.default_rng(0)}])
    def test_thread_driver_rejects_interleaver_knobs(self, kwargs):
        grid = Grid3D((12, 10, 10))
        with pytest.raises(ValueError, match="stage threads"):
            PipelineExecutor(grid, np.zeros(grid.shape), small_config(),
                             jacobi7(), threads=True, **kwargs)

    def test_legal_schedule_passes_the_same_gate(self):
        grid = Grid3D((16, 12, 12))
        field = random_field(grid.shape, np.random.default_rng(0))
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=2, block_size=(3, 64, 64),
                             sync=RelaxedSpec(2, 4), passes=1)
        res = solve(grid, field, cfg, backend="threads")
        assert res.levels_advanced == cfg.total_updates

    def test_threads_backend_rejects_topology(self):
        grid = Grid3D((12, 10, 10))
        field = np.zeros(grid.shape)
        with pytest.raises(ValueError, match="single-process"):
            solve(grid, field, small_config(), backend="threads",
                  topology=(1, 1, 2))


# ---------------------------------------------------------------------------
# Obs under real threads
# ---------------------------------------------------------------------------


class TestObsUnderThreads:
    def test_traced_threaded_solve_merges_stage_rows(self):
        grid = Grid3D((14, 12, 10))
        field = random_field(grid.shape, np.random.default_rng(9))
        cfg = small_config()
        plain = solve(grid, field, cfg, backend="threads")
        traced = solve(grid, field, cfg, backend="threads", trace=True)
        assert np.array_equal(plain.field, traced.field)
        trace = traced.trace
        assert trace is not None and trace.pids() == [0]
        # One merged timeline with a span row per stage thread.
        block_tids = {s.tid for s in trace.spans if s.name == "block"}
        assert block_tids == {s + 1 for s in range(cfg.n_stages)}
        pass_spans = [s for s in trace.spans
                      if s.name == "pass" and s.cat == "threads"]
        assert len(pass_spans) == cfg.passes
        # Every stage's block spans sit inside some pass span.
        for s in trace.spans:
            if s.name == "block":
                assert any(p.start <= s.start and s.end <= p.end + 1e-9
                           for p in pass_spans)
        assert traced.metrics["spans"] == len(trace.spans)

    def test_blocked_waits_surface_as_counters(self):
        grid = Grid3D((16, 12, 12))
        field = random_field(grid.shape, np.random.default_rng(1))
        # A tight window forces real blocked waits.
        cfg = PipelineConfig(teams=1, threads_per_team=4,
                             updates_per_thread=1, block_size=(2, 64, 64),
                             sync=RelaxedSpec(1, 1), passes=2)
        res = solve(grid, field, cfg, backend="threads", trace=True)
        assert res.trace.counters.get("sync.blocked_polls", 0) > 0

    def test_tracer_many_threads_hammer(self):
        from repro.obs import Tracer
        tracer = Tracer(pid=0)
        n_threads, per_thread = 8, 200

        def worker(tid):
            for i in range(per_thread):
                with tracer.span("w", cat="hammer", tid=tid, i=i):
                    pass
                tracer.count("hammer.events")
                tracer.count(f"hammer.t{tid}")

        threads = [threading.Thread(target=worker, args=(t,), daemon=True)
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        trace = tracer.finish()
        # Exact totals: a lost update anywhere fails the equality.
        assert len(trace.spans) == n_threads * per_thread
        assert trace.counters["hammer.events"] == n_threads * per_thread
        for t in range(n_threads):
            assert trace.counters[f"hammer.t{t}"] == per_thread
            row = [s for s in trace.spans if s.tid == t]
            assert len(row) == per_thread
            # Per-thread completion order survives the merge.
            assert [s.arg("i") for s in row] == list(range(per_thread))

    def test_disabled_tracer_zero_alloc_off_main_thread(self):
        from repro.obs import NULL_SPAN, spans_started
        from repro.obs.tracer import NULL_TRACER
        before = spans_started()
        seen = []

        def worker():
            seen.append(NULL_TRACER.span("x") is NULL_SPAN)
            NULL_TRACER.count("never")

        t = threading.Thread(target=worker, daemon=True)
        t.start()
        t.join(timeout=10.0)
        assert seen == [True]
        assert spans_started() == before
        assert NULL_TRACER.finish().counters == {}

    def test_registry_many_threads_hammer(self):
        from repro.obs import MetricsRegistry
        reg = MetricsRegistry()
        n_threads, per_thread = 8, 500

        def worker():
            for _ in range(per_thread):
                reg.inc("hits")

        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert reg.counter("hits") == n_threads * per_thread


# ---------------------------------------------------------------------------
# ResultCache concurrency (serve-layer bugfix regression)
# ---------------------------------------------------------------------------


class TestResultCacheConcurrency:
    def test_concurrent_hits_misses_and_puts(self):
        from repro.serve.cache import ResultCache
        grid = Grid3D((8, 8, 8))
        field = random_field(grid.shape, np.random.default_rng(0))
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=1, block_size=(2, 64, 64),
                             sync=RelaxedSpec(1, 2))
        res = solve(grid, field, cfg)
        cache = ResultCache(max_entries=4)
        keys = [format(i, "064x") for i in range(8)]
        for k in keys[:4]:
            cache.put(k, res)
        n_threads, per_thread = 8, 100
        errors = []

        def worker(tid):
            rng = np.random.default_rng(tid)
            try:
                for _ in range(per_thread):
                    k = keys[int(rng.integers(len(keys)))]
                    got = cache.get(k)
                    if got is not None:
                        # Clones: mutating my copy must not corrupt
                        # the cached bits other threads read.
                        got.field[:] = -1.0
                    if rng.integers(3) == 0:
                        cache.put(k, res)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,), daemon=True)
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert errors == []
        # Counter exactness: every get was a hit or a miss.
        counted = cache.metrics.counter("hits") + cache.metrics.counter("misses")
        assert counted == n_threads * per_thread
        assert len(cache._entries) <= 4
        # Surviving entries are uncorrupted despite the mutating readers.
        for k in keys:
            got = cache.get(k)
            if got is not None:
                assert np.array_equal(got.field, res.field)


# ---------------------------------------------------------------------------
# Executor plumbing details
# ---------------------------------------------------------------------------


def _stage_threads_alive():
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-stage-")]


class _StageOneNeverOpens:
    """A sync policy under which stage 1 waits on stage 0 for ever."""

    def ready(self, stage, counters, finished):
        return stage != 1

    def blockers(self, stage, counters, finished):
        return [0] if stage == 1 else []


class TestThreadedExecutorInternals:
    def test_stage_failure_unwinds_cleanly(self):
        grid = Grid3D((12, 10, 10))
        field = random_field(grid.shape, np.random.default_rng(4))
        cfg = small_config(passes=1)
        ex = PipelineExecutor(grid, field, cfg, jacobi7(), threads=True,
                              watchdog_s=30.0)
        boom = RuntimeError("stage 1 exploded")
        orig = ex._execute_run

        def failing(stage, first, k, tally):
            if stage == 1 and first <= 1 < first + k:
                raise boom
            return orig(stage, first, k, tally)

        ex._execute_run = failing
        with pytest.raises(RuntimeError, match="stage 1 exploded") as err:
            ex.run_pass(0)
        assert err.value is boom  # the original, not a peer's SyncAborted
        # All threads unwound: none left alive.
        assert not _stage_threads_alive()

    @pytest.mark.parametrize("threads, error", [
        (False, ScheduleDeadlock), (True, SyncWaitTimeout)],
        ids=["interleaver", "stage-threads"])
    def test_stuck_stage_error_names_the_blocker(self, threads, error):
        grid = Grid3D((12, 10, 10))
        field = random_field(grid.shape, np.random.default_rng(8))
        ex = PipelineExecutor(grid, field, small_config(passes=1), jacobi7(),
                              threads=threads, watchdog_s=0.2)
        ex.policy = _StageOneNeverOpens()
        n_blocks = ex.decomp.n_traversal_blocks
        t0 = time.perf_counter()
        with pytest.raises(error) as err:
            ex.run_pass(0)
        assert time.perf_counter() - t0 < 10.0  # the watchdog, not a hang
        # Stage 0 ran to the end; stage 1 never started.
        assert (f"stage 1 waits on stage 0 (counters=[{n_blocks}, 0], "
                "finished=[True, False])") in str(err.value)
        assert not _stage_threads_alive()

    REPLAY_SYNCS = (RelaxedSpec(1, 2), RelaxedSpec(1, 4), BarrierSpec())

    def _replay(self, sync, **driver):
        """Run 3 stages x 2 passes recording the publication order, then
        replay it: each entry must be its stage's next block, and that
        stage's window must be open under the policy when its turn comes."""
        grid = Grid3D((12, 10, 10))
        field = random_field(grid.shape, np.random.default_rng(6))
        cfg = PipelineConfig(teams=1, threads_per_team=3,
                             updates_per_thread=1, block_size=(2, 64, 64),
                             sync=sync, passes=2)
        ex = PipelineExecutor(grid, field, cfg, jacobi7(), record_trace=True,
                              **driver)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = ex.run()
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(out, solve(grid, field, cfg).field)
        trace = ex.stats.trace
        n_blocks = ex.decomp.n_traversal_blocks
        assert len(trace) == ex.stats.block_ops == cfg.passes * 3 * n_blocks
        for p in range(cfg.passes):
            counters, finished = [0] * 3, [False] * 3
            for (_p, stage, idx) in trace[p * 3 * n_blocks:(p + 1) * 3 * n_blocks]:
                assert _p == p
                assert idx == counters[stage]  # per-stage program order
                assert ex.policy.ready(stage, counters, finished), (
                    sync.describe(), p, stage, counters)
                counters[stage] += 1
                finished[stage] = counters[stage] == n_blocks
            assert all(finished)

    def test_record_trace_collects_per_stage_program_order(self):
        # Under stage threads the record is the board's publication
        # order — a real linearisation of a truly concurrent pass, not
        # merely each stage's own order — so it must replay as a legal
        # schedule (3 stage threads on 2 cores, 1 us switch interval).
        for sync in self.REPLAY_SYNCS:
            self._replay(sync, threads=True)

    @pytest.mark.parametrize("order", ORDERS)
    def test_interleaver_replay_is_legal(self, order):
        for sync in self.REPLAY_SYNCS:
            self._replay(sync, order=order, rng=np.random.default_rng(1))


# ---------------------------------------------------------------------------
# The speedup gate (documented skip off multicore/numba hosts)
# ---------------------------------------------------------------------------


def _have_numba() -> bool:
    import importlib.util
    return importlib.util.find_spec("numba") is not None


@pytest.mark.skipif(
    not _have_numba() or (os.cpu_count() or 1) < 2,
    reason="the >1x threaded-vs-simulated speedup gate needs the numba "
           "engine (GIL-releasing compiled kernels) and >=2 cores; this "
           "host satisfies neither or only one — correctness legs above "
           "still ran")
class TestThreadedSpeedup:
    def test_threads_beat_simulated_rail_with_numba(self):
        from dataclasses import replace
        grid = Grid3D((64, 64, 64))
        field = random_field(grid.shape, np.random.default_rng(0))
        cfg = PipelineConfig(teams=2, threads_per_team=2,
                             updates_per_thread=2, block_size=(8, 64, 64),
                             sync=RelaxedSpec(1, 4), engine="numba")
        # Warm the JIT caches (both flavours) outside the timed region.
        solve(grid, field, cfg, backend="threads", validate=False)
        solve(grid, field, cfg, validate=False)

        def best_of(fn, n=3):
            return min(_timed(fn) for _ in range(n))

        def _timed(fn):
            t0 = time.perf_counter()
            fn()
            return time.perf_counter() - t0

        t_shared = best_of(lambda: solve(grid, field, cfg, validate=False))
        t_threads = best_of(lambda: solve(grid, field, cfg,
                                          backend="threads", validate=False))
        a = solve(grid, field, cfg, validate=False)
        b = solve(grid, field, cfg, backend="threads", validate=False)
        assert np.array_equal(a.field, b.field)
        assert t_shared / t_threads > 1.0, (
            f"threaded rail not faster: shared={t_shared:.3f}s "
            f"threads={t_threads:.3f}s")
