"""The process-wide per-axis row memo under sharing, threads and pressure.

``repro.grid.blocks.axis_row`` is the one piece of state solves share, so
these tests attack what sharing can break: a warm memo serving the wrong
geometry to a solve that differs in one parameter, stage threads racing a
cold memo, unbounded growth — and they pin what the tables bought, as a
host-independent call count instead of a wall-clock number.
"""

from __future__ import annotations

import cProfile
import multiprocessing as mp
import pstats
import sys
import threading

import numpy as np
import pytest

import repro
from repro import Grid3D, PipelineConfig, RelaxedSpec, reference_sweeps
from repro.core.executor import PipelineExecutor, _run_span
from repro.grid import Box, random_field
from repro.grid.blocks import ROW_MEMO_SIZE, BlockDecomposition, axis_row
from repro.kernels import jacobi7

SHAPE = (12, 10, 12)


def _cfg(block=(3, 4, 5), T=2, storage="twogrid", passes=2):
    return PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=T,
                          block_size=block, sync=RelaxedSpec(1, 3),
                          storage=storage, passes=passes)


#: Solves of one shape differing in exactly one geometric input each.
VARIANTS = {
    "base": (_cfg(), {}),
    "block": (_cfg(block=(4, 3, 4)), {}),
    "slab": (_cfg(block=(3, 1000, 1000)), {}),
    "T": (_cfg(T=1), {}),
    "compressed": (_cfg(storage="compressed"), {}),
    "ranks-x": (_cfg(), dict(topology=(1, 1, 2), backend="simmpi")),
    "ranks-z": (_cfg(), dict(topology=(2, 1, 1), backend="simmpi")),
}


def _solve(name, field):
    cfg, kwargs = VARIANTS[name]
    return repro.solve(Grid3D(SHAPE), field, cfg, **kwargs).field


class TestIsolation:
    def test_interleaved_solves_equal_their_cold_runs(self):
        field = random_field(SHAPE, np.random.default_rng(15))
        cold = {}
        for name in VARIANTS:
            axis_row.cache_clear()      # what a fresh process starts with
            cold[name] = _solve(name, field)
            cfg = VARIANTS[name][0]
            assert np.array_equal(cold[name], reference_sweeps(
                Grid3D(SHAPE), field, cfg.total_updates)), name
        axis_row.cache_clear()
        order = list(VARIANTS) + list(reversed(VARIANTS)) + list(VARIANTS)[::2]
        for name in order:              # one warm memo serves them all
            assert np.array_equal(_solve(name, field), cold[name]), name
        assert axis_row.cache_info().hits > 0

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_procmpi_ranks_inherited_or_cold(self, start_method, monkeypatch):
        # fork: the ranks inherit this process's warm memo, filled by a
        # different geometry of the same shape; spawn: they start cold.
        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"start method {start_method} unavailable")
        monkeypatch.setenv("REPRO_PROCMPI_START", start_method)
        field = random_field(SHAPE, np.random.default_rng(16))
        want = _solve("ranks-x", field)
        _solve("block", field)
        _solve("ranks-z", field)
        cfg, _ = VARIANTS["ranks-x"]
        got = repro.solve(Grid3D(SHAPE), field, cfg, topology=(1, 1, 2),
                          backend="procmpi").field
        assert np.array_equal(got, want)


class TestThreads:
    def test_stage_threads_from_a_cold_memo(self):
        grid = Grid3D((8, 6, 6))
        field = random_field(grid.shape, np.random.default_rng(17))
        cfg = PipelineConfig(teams=1, threads_per_team=3, updates_per_thread=1,
                             block_size=(2, 3, 3), sync=RelaxedSpec(1, 2))
        want = reference_sweeps(grid, field, cfg.total_updates)
        for run in range(50):
            axis_row.cache_clear()
            got = repro.solve(grid, field, cfg, backend="threads").field
            assert np.array_equal(got, want), run

    def test_concurrent_cold_lookups_agree_with_the_uncached_rows(self):
        decomps = [BlockDecomposition(Box.from_shape((n, 9, 7)), (b, 4, 2), 3)
                   for n in (5, 8, 11) for b in (1, 3)]
        want = {(i, s, m): tuple(
                    axis_row.__wrapped__(0, d.extents[a], d.block_size[a],
                                         d.extended_counts[a],
                                         s * d.shift_vec[a],
                                         m and d.shift_vec[a] == 1,
                                         0, d.extents[a])
                    for a in range(3))
                for i, d in enumerate(decomps) for s in range(4)
                for m in (False, True)}
        n_threads = 8
        start = threading.Barrier(n_threads)
        wrong = []

        def body():
            start.wait(timeout=30)
            for _ in range(20):
                for (i, s, m), rows in want.items():
                    if decomps[i].level_rows(s, None, m) != rows:
                        wrong.append((i, s, m))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            axis_row.cache_clear()
            threads = [threading.Thread(target=body, daemon=True)
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong


class TestBound:
    def test_size_stays_at_the_bound(self):
        axis_row.cache_clear()
        assert axis_row.cache_info().maxsize == ROW_MEMO_SIZE
        for n in range(3, ROW_MEMO_SIZE + 60):
            d = BlockDecomposition(Box.from_shape((n, n + 1, 3)), (2, 3, 8), 1)
            assert d.region(0, 1) == Box((0, 0, 0), (1, 2, 3))
        assert axis_row.cache_info().currsize == ROW_MEMO_SIZE
        # Evicted rows come back equal.
        d = BlockDecomposition(Box.from_shape((2, 3, 3)), (2, 3, 8), 1)
        assert d.level_regions(0) == [Box((0, 0, 0), (2, 3, 3))]


class _AlwaysReady:
    """A sync policy with no window: lets a stage overtake its predecessor."""

    def ready(self, stage, counters, finished):
        return True

    def blockers(self, stage, counters, finished):
        return []


class TestValidationThroughTheTables:
    @pytest.mark.parametrize("storage", ["twogrid", "compressed"])
    def test_overtaking_stage_raises_storage_error(self, storage):
        # Named for the runtime level check the bytes now stand in for.
        # Three tiled axes; the rear stage runs first and reads level-1
        # values nobody produced yet, so the result is not the reference.
        grid = Grid3D((8, 8, 8))
        field = random_field(grid.shape, np.random.default_rng(18))
        cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=1,
                             block_size=(4, 4, 4), storage=storage)
        want = reference_sweeps(grid, field, cfg.total_updates).tobytes()
        ex = PipelineExecutor(grid, field, cfg, jacobi7(), order="rear_first")
        assert ex.decomp.tiled_dims == (0, 1, 2)
        assert ex.run().tobytes() == want       # the window keeps it exact
        ex = PipelineExecutor(grid, field, cfg, jacobi7(), order="rear_first")
        ex.policy = _AlwaysReady()
        assert ex.run().tobytes() != want


def _profiled_solve(validate):
    """A warm 32^3 solve in ``(4, 8, 8)`` blocks under cProfile."""
    grid = Grid3D((32, 32, 32))
    field = random_field(grid.shape, np.random.default_rng(19))
    cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                         block_size=(4, 8, 8), sync=RelaxedSpec(1, 4),
                         passes=2)
    repro.solve(grid, field, cfg, validate=validate)    # warm
    misses = axis_row.cache_info().misses, _run_span.cache_info().misses
    prof = cProfile.Profile()
    res = prof.runcall(repro.solve, grid, field, cfg, validate=validate)
    assert res.field.tobytes() == reference_sweeps(
        grid, field, cfg.total_updates).tobytes()
    # Nothing is derived again: no row and no merged span is rebuilt.
    assert (axis_row.cache_info().misses,
            _run_span.cache_info().misses) == misses
    return cfg, res, pstats.Stats(prof)


def _module_calls(stats, module):
    return sum(ncalls for (path, _line, _func), (_cc, ncalls, *_rest)
               in stats.stats.items()
               if path.replace("\\", "/").endswith("repro/" + module))


class TestOverheadTripwire:
    def test_python_calls_per_update_and_no_geometry_in_the_loop(self):
        cfg, res, stats = _profiled_solve(validate=False)

        # Before the row tables: 210 calls per update; they left ~32, and
        # one pass loop over CounterBoard 33.7 (a draft that took the
        # board's lock on every poll and publish measured 44.6), the
        # engine's cost rule 34.8.  Runs of blocks — one step and one
        # engine call per update for each x-row of 5 blocks here —
        # measure 9.4.  The bound is tight on purpose: a step or an
        # engine call per block op again lands near 35.
        updates = res.stats.updates
        assert updates > 1000
        assert stats.total_calls / updates <= 10, stats.total_calls / updates

        # Per group of a run (here every run is one x-row) grid/blocks.py
        # does one index split, per update of a pass one row lookup — no
        # Box algebra from grid/region.py at all, and the merged spans
        # are memo hits.
        runs = sum(ncalls for (path, _line, func), (_cc, ncalls, *_rest)
                   in stats.stats.items()
                   if path.replace("\\", "/").endswith("repro/core/executor.py")
                   and func == "_execute_run")
        assert res.stats.block_ops // 5 <= runs < res.stats.block_ops // 4
        calls = {}
        for (path, _line, func), (_cc, ncalls, *_rest) in stats.stats.items():
            path = path.replace("\\", "/")
            for module in ("grid/blocks.py", "grid/region.py"):
                if path.endswith("repro/" + module):
                    calls[module, func] = calls.get((module, func), 0) + ncalls
        in_loop = {k: n for k, n in calls.items() if n >= runs}
        assert in_loop == {("grid/blocks.py", "block_index"): runs}, calls
        assert calls["grid/blocks.py", "level_rows"] == cfg.total_updates

    def test_validated_updates_check_their_reads_once(self):
        # validate=True, the default of solve() and Service, certifies
        # the schedule (a memo hit when warm) and checks no read at run
        # time, so it costs what an unvalidated solve costs.  A one-pass
        # level test per update measured 72 calls per update, seven
        # per-read checks 340, 169 of them in grid/region.py.
        _cfg, res, stats = _profiled_solve(validate=True)
        updates = res.stats.updates
        assert updates > 1000
        assert stats.total_calls / updates <= 10, stats.total_calls / updates
        region = _module_calls(stats, "grid/region.py")
        assert region / updates <= 1, region / updates
