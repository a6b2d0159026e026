"""Executor failure modes: deadlocks, bad parameters, trapezoid actives."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Grid3D, PipelineConfig, RelaxedSpec, ScheduleDeadlock
from repro.core.executor import PipelineExecutor
from repro.core.parameters import BarrierSpec
from repro.grid import Box, random_field
from repro.kernels import jacobi7, reference_sweeps

RNG = np.random.default_rng(9)


class TestParameterValidation:
    def test_bad_order(self):
        grid = Grid3D((8, 4, 4))
        cfg = PipelineConfig(block_size=(2, 8, 8))
        with pytest.raises(ValueError, match="unknown order"):
            PipelineExecutor(grid, np.zeros(grid.shape), cfg, jacobi7(),
                             order="alphabetical")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(teams=0)
        with pytest.raises(ValueError):
            PipelineConfig(updates_per_thread=0)
        with pytest.raises(ValueError):
            PipelineConfig(passes=0)
        with pytest.raises(ValueError):
            PipelineConfig(storage="hologram")
        with pytest.raises(ValueError):
            PipelineConfig(block_size=(0, 4, 4))

    def test_stage_helpers(self):
        cfg = PipelineConfig(teams=2, threads_per_team=3,
                             updates_per_thread=2, block_size=(2, 9, 9))
        assert cfg.n_stages == 6
        assert cfg.updates_per_pass == 12
        assert cfg.stage_team(4) == 1
        assert cfg.is_team_front(3) and not cfg.is_team_front(4)
        assert list(cfg.stage_updates(1)) == [3, 4]
        with pytest.raises(IndexError):
            cfg.stage_team(6)


class TestDeadlockDetection:
    def test_equal_window_progresses(self):
        # d_l == d_u is legal (rigid lockstep), not a deadlock.
        grid = Grid3D((10, 4, 4))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=3,
                             updates_per_thread=1, block_size=(2, 8, 8),
                             sync=RelaxedSpec(2, 2))
        ex = PipelineExecutor(grid, field, cfg, jacobi7())
        out = ex.run()
        ref = reference_sweeps(grid, field, cfg.total_updates)
        np.testing.assert_allclose(out, ref, atol=1e-13)

    def test_empty_window_rejected_at_spec(self):
        with pytest.raises(ValueError):
            RelaxedSpec(3, 2)


class TestTrapezoidActives:
    def test_shrinking_active_matches_regional_reference(self):
        # Emulate one rank's trapezoid: active shrinks from the full
        # domain toward an inner core, exactly like the multi-halo update.
        grid = Grid3D((12, 8, 8))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=1, block_size=(3, 8, 8),
                             sync=RelaxedSpec(1, 2))
        h = cfg.updates_per_pass
        core = Box((2, 2, 2), (10, 6, 6))

        def active(level):
            u = (level - 1) % h + 1
            return core.grow(h - u)

        ex = PipelineExecutor(grid, field, cfg, jacobi7(), active_fn=active)
        ex.run_pass(0)
        got = ex.storage.extract_region(core, h)

        # Regional reference: shrink the swept region by one layer/update.
        from repro.kernels.reference import reference_sweep_region
        cur = grid.padded(field)
        nxt = cur.copy()
        for s in range(1, h + 1):
            r = core.grow(h - s).intersect(grid.domain)
            reference_sweep_region(cur, nxt, r.lo, r.hi)
            cur, nxt = nxt, cur
        np.testing.assert_allclose(got, cur[core.slices((1, 1, 1))],
                                   atol=1e-13)

    def test_active_outside_domain_is_clipped(self):
        grid = Grid3D((8, 4, 4))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=1,
                             updates_per_thread=1, block_size=(2, 4, 4))
        ex = PipelineExecutor(grid, field, cfg, jacobi7(),
                              active_fn=lambda lvl: Box((-5, -5, -5), (50, 50, 50)))
        out = ex.run()
        ref = reference_sweeps(grid, field, 1)
        np.testing.assert_allclose(out, ref, atol=1e-13)


class TestStats:
    def test_counts_consistent(self):
        grid = Grid3D((12, 4, 4))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=2, block_size=(3, 4, 4),
                             sync=BarrierSpec(), passes=2)
        ex = PipelineExecutor(grid, field, cfg, jacobi7())
        ex.run()
        st = ex.stats
        n_blocks = ex.decomp.n_traversal_blocks
        assert st.block_ops == cfg.passes * cfg.n_stages * n_blocks
        assert sum(st.per_stage_blocks) == st.block_ops
        # Total cell updates = interior cells x total levels advanced.
        assert st.cells_updated == grid.domain.ncells * cfg.total_updates
