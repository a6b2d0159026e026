"""Service fault paths: one job's crash never takes the service down.

The contract (extending the rail-level guarantees of
``test_fault_injection``):

* a job whose rank raises — or is killed outright — fails **only its
  own future**, with the original exception (or the rail's
  ``ProcMPIError`` for a hard death) coming out of ``result()``;
* the broken warm session is dropped crash-only (its world, rank
  processes and shared-memory segments are already torn down) and the
  pool warms a fresh session, so **subsequent jobs keep being served**;
* after the service closes, ``/dev/shm`` holds no segment of ours and
  no rank process survives (the autouse fixture asserts both around
  every test).

Boundary functions are module-level so every test also runs under the
``spawn`` start method.
"""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro import Grid3D, PipelineConfig, RelaxedSpec
from repro.dist import drop_warm_pool
from repro.dist.procmpi import ProcMPIError
from repro.dist.shm import live_segments
from repro.grid import DirichletBoundary, random_field
from repro.kernels import reference_sweeps
from repro.serve import Service


@pytest.fixture(autouse=True)
def no_shm_leaks_or_zombies():
    # solve(backend="procmpi") keeps a warm world between calls; only
    # what survives dropping it counts as a leak.
    drop_warm_pool()
    before = live_segments()
    yield
    drop_warm_pool()
    after = live_segments()
    if before is not None:
        assert after == before
    assert mp.active_children() == []


def _poison_boundary(z, y, x):
    """A Dirichlet ``func`` that detonates when a rank evaluates it."""
    raise RuntimeError("poisoned boundary")


def _kill_boundary(z, y, x):
    """A Dirichlet ``func`` that kills the evaluating rank outright."""
    os._exit(17)


def _cfg() -> PipelineConfig:
    return PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                          block_size=(4, 64, 64), sync=RelaxedSpec(1, 2))


def _good_problem(seed: int = 0):
    grid = Grid3D((12, 12, 12))
    return grid, random_field(grid.shape, np.random.default_rng(seed))


def _bad_problem(boundary_func):
    grid = Grid3D((12, 12, 12),
                  boundary=DirichletBoundary(0.0, func=boundary_func))
    return grid, random_field(grid.shape, np.random.default_rng(1))


class TestProcmpiFaults:
    def test_crashing_job_fails_only_its_future(self):
        cfg = _cfg()
        good_grid, good_field = _good_problem()
        bad_grid, bad_field = _bad_problem(_poison_boundary)
        ref = reference_sweeps(good_grid, good_field, cfg.total_updates)
        with Service(workers=1, cache=False) as svc:
            before = svc.submit(good_grid, good_field, cfg,
                                topology=(1, 1, 2), backend="procmpi")
            bad = svc.submit(bad_grid, bad_field, cfg,
                             topology=(1, 1, 2), backend="procmpi")
            after = [svc.submit(good_grid,
                                random_field(good_grid.shape,
                                             np.random.default_rng(i)),
                                cfg, topology=(1, 1, 2), backend="procmpi")
                     for i in range(2, 4)]
            # Fail-fast with the original exception, on this future only.
            with pytest.raises(RuntimeError, match="poisoned boundary"):
                bad.result(timeout=120)
            np.testing.assert_allclose(before.result(timeout=120).field,
                                       ref, rtol=0, atol=1e-13)
            for fut in after:
                res = fut.result(timeout=120)
                assert res.backend == "procmpi"
                assert res.field.shape == good_grid.shape
            st = svc.stats
        assert st.failed == 1 and st.completed == 3
        # The poisoned session was dropped and a fresh one warmed.
        assert st.sessions_dropped == 1
        assert st.sessions_created == 2

    def test_killed_rank_fails_only_its_future(self):
        cfg = _cfg()
        good_grid, good_field = _good_problem()
        bad_grid, bad_field = _bad_problem(_kill_boundary)
        with Service(workers=1, cache=False) as svc:
            bad = svc.submit(bad_grid, bad_field, cfg,
                             topology=(1, 1, 2), backend="procmpi")
            good = svc.submit(good_grid, good_field, cfg,
                              topology=(1, 1, 2), backend="procmpi")
            with pytest.raises(ProcMPIError, match="died without reporting"):
                bad.result(timeout=120)
            ref = reference_sweeps(good_grid, good_field, cfg.total_updates)
            np.testing.assert_allclose(good.result(timeout=120).field,
                                       ref, rtol=0, atol=1e-13)
            st = svc.stats
        assert st.failed == 1 and st.completed == 1
        assert st.sessions_dropped == 1

    def test_broken_session_segments_are_gone_while_service_lives(self):
        # Crash-only teardown happens at failure time, not service close:
        # after the bad future resolves, only the *fresh* session's
        # segments may exist — the poisoned world's are unlinked.
        cfg = _cfg()
        bad_grid, bad_field = _bad_problem(_poison_boundary)
        baseline = live_segments()
        with Service(workers=1, cache=False) as svc:
            bad = svc.submit(bad_grid, bad_field, cfg,
                             topology=(1, 1, 2), backend="procmpi")
            with pytest.raises(RuntimeError, match="poisoned boundary"):
                bad.result(timeout=120)
            if baseline is not None:
                assert live_segments() == baseline


class TestThreadBackendFaults:
    @pytest.mark.parametrize("backend,topology", [
        ("shared", (1, 1, 1)),
        ("simmpi", (1, 1, 2)),
    ])
    def test_failing_job_releases_only_its_future(self, backend, topology):
        cfg = _cfg()
        good_grid, good_field = _good_problem()
        bad_grid, bad_field = _bad_problem(_poison_boundary)
        with Service(workers=1, cache=False) as svc:
            bad = svc.submit(bad_grid, bad_field, cfg, topology=topology,
                             backend=backend)
            good = svc.submit(good_grid, good_field, cfg, topology=topology,
                              backend=backend)
            with pytest.raises(RuntimeError, match="poisoned boundary"):
                bad.result(timeout=120)
            ref = reference_sweeps(good_grid, good_field, cfg.total_updates)
            np.testing.assert_allclose(good.result(timeout=120).field,
                                       ref, rtol=0, atol=1e-13)
            st = svc.stats
        assert st.failed == 1 and st.completed == 1
