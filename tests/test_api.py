"""Unified front-end: backend dispatch, result parity, error paths."""

from __future__ import annotations

import dataclasses
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import (
    BACKENDS,
    Grid3D,
    PipelineConfig,
    RelaxedSpec,
    SolveResult,
    run_pipelined,
    solve,
)
from repro.core import make_decomposition
from repro.core.executor import ExecutionStats
from repro.dist.decomp import CartesianDecomposition
from repro.dist.solver import distributed_jacobi_sweeps
from repro.grid import random_field
from repro.kernels import reference_sweeps
from repro.kernels.jacobi import anisotropic_jacobi, jacobi7

RNG = np.random.default_rng(17)
SRC = Path(__file__).resolve().parent.parent / "src"
#: Every ``repro`` package and subpackage that declares a public surface.
_PACKAGES_WITH_ALL = [
    name for name in ["repro"] + sorted(
        m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
        if m.ispkg)
    if hasattr(importlib.import_module(name), "__all__")]


def small_problem():
    grid = Grid3D((16, 12, 12))
    field = random_field(grid.shape, RNG)
    cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                         block_size=(3, 64, 64), sync=RelaxedSpec(1, 2),
                         passes=2)
    return grid, field, cfg


class TestDispatch:
    def test_default_is_shared(self):
        grid, field, cfg = small_problem()
        res = solve(grid, field, cfg)
        assert res.backend == "shared"
        assert res.n_ranks == 1 and res.topology == (1, 1, 1)
        assert (res.field.tobytes()
                == reference_sweeps(grid, field, cfg.total_updates).tobytes())

    def test_simmpi_dispatch(self):
        grid, field, cfg = small_problem()
        res = solve(grid, field, cfg, topology=(2, 1, 1), backend="simmpi")
        assert res.backend == "simmpi"
        assert res.n_ranks == 2 and res.topology == (2, 1, 1)
        assert res.halo == cfg.updates_per_pass
        assert (res.field.tobytes()
                == reference_sweeps(grid, field, cfg.total_updates).tobytes())

    def test_procmpi_dispatch(self):
        # The acceptance shape: procmpi on (1, 1, 2) must be
        # byte-identical to the shared backend.
        grid, field, cfg = small_problem()
        shared = solve(grid, field, cfg)
        res = solve(grid, field, cfg, topology=(1, 1, 2), backend="procmpi")
        assert res.backend == "procmpi"
        assert res.n_ranks == 2 and res.topology == (1, 1, 2)
        assert res.halo == cfg.updates_per_pass
        assert res.field.tobytes() == shared.field.tobytes()

    def test_backends_bit_identical_on_trivial_topology(self):
        grid, field, cfg = small_problem()
        shared = solve(grid, field, cfg, backend="shared")
        for backend in ("simmpi", "procmpi"):
            dist = solve(grid, field, cfg, topology=(1, 1, 1),
                         backend=backend)
            assert np.array_equal(shared.field, dist.field), backend

    def test_run_pipelined_is_the_shared_backend(self):
        grid, field, cfg = small_problem()
        a = run_pipelined(grid, field, cfg)
        b = solve(grid, field, cfg)
        assert isinstance(a, SolveResult)
        assert np.array_equal(a.field, b.field)

    def test_pipeline_result_alias(self):
        # Retired: one result type, under one name.
        from repro.core import pipeline
        assert [n for n in vars(pipeline) if n.endswith("Result")] == [
            "SolveResult"]

    @pytest.mark.parametrize("stencil", [jacobi7,
                                         lambda: anisotropic_jacobi(1.0, 2.0, 0.5)],
                             ids=["jacobi7", "anisotropic"])
    @pytest.mark.parametrize("validate", [True, False, "static"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_explicit_stencil_on_every_backend(self, backend, validate,
                                               stencil):
        # Every stencil is radius 1, so the legality gate (solve's for
        # validate="static", the thread driver's always) never reads it.
        grid, field, cfg = small_problem()
        st = stencil()
        res = solve(grid, field, cfg, backend=backend, stencil=st,
                    validate=validate)
        assert res.backend == backend
        ref = reference_sweeps(grid, field, cfg.total_updates, stencil=st)
        assert res.field.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("package", _PACKAGES_WITH_ALL)
    def test_every_exported_name_resolves(self, package):
        module = importlib.import_module(package)
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert hasattr(module, name), (package, name)


class TestResultParity:
    def test_same_fields_both_backends(self):
        grid, field, cfg = small_problem()
        shared = solve(grid, field, cfg)
        dist = solve(grid, field, cfg, topology=(2, 1, 1), backend="simmpi")
        names = {f.name for f in dataclasses.fields(SolveResult)}
        for res in (shared, dist):
            for name in names:
                assert hasattr(res, name)
        assert shared.levels_advanced == dist.levels_advanced
        assert shared.messages == 0 and shared.bytes_exchanged == 0
        assert dist.messages > 0 and dist.bytes_exchanged > 0

    def test_sweeps_solver_returns_solve_result(self):
        # The multi-halo sweeps count every trapezoid cell their ranks
        # update: per rank and superstep, |core.grow(h - s) ∩ stored|
        # for s = 1..h, derived from the decomposition alone.
        for shape, topo, supersteps, halo, want in [
                ((12, 10, 8), (2, 1, 1), 2, 2, 4160),
                ((10, 9, 8), (1, 1, 2), 2, 2, 3240)]:
            grid = Grid3D(shape)
            field = random_field(shape, RNG)
            res = distributed_jacobi_sweeps(grid, field, topo,
                                            supersteps=supersteps, halo=halo)
            assert isinstance(res, SolveResult)
            assert res.levels_advanced == supersteps * halo
            assert res.config.n_stages == 1
            assert res.config.updates_per_pass == halo
            decomp = CartesianDecomposition(shape, topo, halo)
            cells = 0
            for rank in range(decomp.n_ranks):
                geo = decomp.geometry(rank)
                cells += supersteps * sum(
                    geo.core.grow(halo - s).intersect(geo.stored).ncells
                    for s in range(1, halo + 1))
            assert cells == want
            assert res.cells_updated == res.stats.cells_updated == cells

    def test_sweeps_solver_keeps_its_argument_errors(self):
        grid, field, _ = small_problem()
        with pytest.raises(ValueError, match="halo must be >= 1"):
            distributed_jacobi_sweeps(grid, field, (2, 1, 1),
                                      supersteps=1, halo=0)
        with pytest.raises(ValueError, match="supersteps must be >= 1"):
            distributed_jacobi_sweeps(grid, field, (2, 1, 1),
                                      supersteps=0, halo=2)

    def test_stats_aggregated_across_ranks(self):
        grid, field, cfg = small_problem()
        shared = solve(grid, field, cfg)
        dist = solve(grid, field, cfg, topology=(2, 1, 1), backend="simmpi")
        # Trapezoid ghost updates are performed redundantly by both ranks,
        # so the distributed run does strictly more cell updates.
        assert dist.cells_updated > shared.cells_updated

    @pytest.mark.parametrize("backend", ["simmpi", "procmpi"])
    @pytest.mark.parametrize("topology", [(1, 1, 2), (2, 1, 1)])
    def test_rank_stats_merge_keeps_every_count(self, backend, topology,
                                                monkeypatch):
        per_rank = []
        merge = ExecutionStats.merge

        def spy(self, *others):
            if len(others) == 2:  # the fold over both ranks
                per_rank.extend(others)
            return merge(self, *others)

        monkeypatch.setattr(ExecutionStats, "merge", spy)
        grid, field, cfg = small_problem()
        total = solve(grid, field, cfg, topology=topology,
                      backend=backend).stats
        assert len(per_rank) == 2
        for name in ("block_ops", "empty_block_ops", "updates",
                     "cells_updated"):
            assert getattr(total, name) == sum(
                getattr(s, name) for s in per_rank), name
        assert len(total.per_stage_blocks) == cfg.n_stages
        assert sum(total.per_stage_blocks) == total.block_ops > 0
        assert total.per_stage_blocks == [
            sum(s.per_stage_blocks[i] for s in per_rank)
            for i in range(cfg.n_stages)]

    @pytest.mark.parametrize("backend", ["shared", "threads"])
    def test_per_stage_blocks_single_process(self, backend):
        grid, field, cfg = small_problem()
        n_blocks = make_decomposition(grid.domain, cfg).n_traversal_blocks
        stats = solve(grid, field, cfg, backend=backend).stats
        assert stats.per_stage_blocks == [n_blocks * cfg.passes] * cfg.n_stages
        assert stats.block_ops == n_blocks * cfg.passes * cfg.n_stages


class TestErrorPaths:
    def test_unknown_backend(self):
        grid, field, cfg = small_problem()
        with pytest.raises(ValueError, match="backend"):
            solve(grid, field, cfg, backend="mpi")

    def test_backends_constant(self):
        assert set(BACKENDS) == {"shared", "threads", "simmpi", "procmpi"}

    def test_unknown_transport_at_solver_level(self):
        grid, field, _ = small_problem()
        with pytest.raises(ValueError, match="transport"):
            distributed_jacobi_sweeps(grid, field, (2, 1, 1), supersteps=1,
                                      halo=2, transport="smoke-signals")

    def test_shared_rejects_nontrivial_topology(self):
        grid, field, cfg = small_problem()
        with pytest.raises(ValueError, match="single-process"):
            solve(grid, field, cfg, topology=(2, 1, 1), backend="shared")

    @pytest.mark.parametrize("validate", [True, "static"])
    @pytest.mark.parametrize("backend", ["shared", "threads"])
    def test_topology_is_refused_before_certification(self, backend,
                                                      validate, monkeypatch):
        # The analyzer would refuse this schedule's exchange plan, which
        # a single-process backend never runs: the argument check speaks
        # first and nothing is certified.
        from repro.analysis import assert_legal, checker

        calls = []
        real = checker.analyze_schedule
        monkeypatch.setattr(checker, "analyze_schedule",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        assert_legal.cache_clear()
        grid = Grid3D((8, 8, 8))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=4, block_size=(4, 8, 8),
                             sync=RelaxedSpec(1, 4))
        with pytest.raises(ValueError, match="single-process"):
            solve(grid, field, cfg, topology=(1, 1, 4), backend=backend,
                  validate=validate)
        assert calls == []

    def test_bad_topology_shape(self):
        grid, field, cfg = small_problem()
        with pytest.raises(ValueError, match="triple"):
            solve(grid, field, cfg, topology=(2, 1), backend="simmpi")

    def test_nonpositive_topology(self):
        grid, field, cfg = small_problem()
        with pytest.raises(ValueError, match=">= 1"):
            solve(grid, field, cfg, topology=(2, 0, 1), backend="simmpi")

    def test_oversubscribed_topology(self):
        grid, field, cfg = small_problem()
        with pytest.raises(ValueError, match="oversubscribe"):
            solve(grid, field, cfg, topology=(1, 1, 64), backend="simmpi")


def loaded_after(code: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    probe = ("\nimport json, sys\nprint(json.dumps(sorted(m for m in "
             "sys.modules if m.split('.')[0] == 'repro')))")
    proc = subprocess.run([sys.executable, "-c", code + probe],
                          capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
    return set(json.loads(proc.stdout.splitlines()[-1]))


PROBLEM = """
import numpy as np
import repro
grid = repro.Grid3D((12, 10, 10))
field = repro.random_field(grid.shape, np.random.default_rng(0))
cfg = repro.PipelineConfig(teams=1, threads_per_team=2, block_size=(4, 64, 64),
                           sync=repro.RelaxedSpec(1, 2))
want = repro.reference_sweeps(grid, field, cfg.total_updates).tobytes()
"""


class TestImportFootprint:
    # The performance rail (the DES, the machine and cost models, the
    # figure generator) and the distributed rail load on first use only.
    PERF_RAIL = {"repro.perf.figures", "repro.sim", "repro.models",
                 "repro.machine"}

    def test_a_shared_solve_loads_no_performance_rail(self):
        mods = loaded_after(PROBLEM + """
assert repro.solve(grid, field, cfg).field.tobytes() == want
""")
        assert not mods & self.PERF_RAIL, sorted(mods & self.PERF_RAIL)
        assert "repro.core" in mods and "repro.analysis" in mods

    def test_solve_with_engine_auto_loads_no_perf_harness(self):
        mods = loaded_after(PROBLEM + """
res = repro.solve(grid, field, cfg, engine="auto")
assert res.field.tobytes() == want
""")
        assert not {m for m in mods if m.startswith("repro.perf")}, \
            sorted(mods)

    def test_lazy_names_still_resolve(self):
        mods = loaded_after("""
import repro, repro.core
from repro.core.autotune import autotune
assert repro.autotune is autotune and callable(repro.core.wavefront_config)
assert repro.TuneResult is repro.core.autotune.TuneResult
""")
        assert {"repro.core.autotune", "repro.core.wavefront"} <= mods

    def test_an_in_thread_service_job_loads_no_dist_or_machine(self):
        mods = loaded_after(PROBLEM + """
from repro.serve import Service
with Service(workers=1) as svc:
    assert svc.submit(grid, field, cfg).result().field.tobytes() == want
""")
        assert not mods & {"repro.dist", "repro.machine"}, sorted(mods)
