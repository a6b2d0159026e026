"""Distributed-memory rail: decomposition, exchange, solver equivalence."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Grid3D, PipelineConfig, RelaxedSpec
from repro.dist.decomp import CartesianDecomposition
from repro.dist.exchange import exchange_plan
from repro.dist.simmpi import RankComm, SimMPIError, run_ranks
from repro.dist.solver import (
    distributed_jacobi_pipelined,
    distributed_jacobi_sweeps,
)
from repro.engine import numpy_engine
from repro.grid import DirichletBoundary, boxes_partition, random_field
from repro.kernels import reference_sweeps
from repro.kernels.jacobi import anisotropic_jacobi, jacobi5_2d, jacobi7

RNG = np.random.default_rng(5)


class TestDecomp:
    def test_partition(self):
        d = CartesianDecomposition((13, 9, 8), (2, 2, 2), 2)
        cores = [d.core_box(d.rank_coords(r)) for r in range(d.n_ranks)]
        assert boxes_partition(cores, d.domain)

    def test_rank_coords_roundtrip(self):
        d = CartesianDecomposition((8, 8, 8), (2, 3, 1), 1)
        for r in range(d.n_ranks):
            assert d.coords_rank(d.rank_coords(r)) == r

    def test_neighbors(self):
        d = CartesianDecomposition((8, 8, 8), (2, 2, 2), 1)
        assert d.neighbor(0, 0, -1) is None
        assert d.neighbor(0, 0, 1) == 4
        assert d.neighbor(0, 2, 1) == 1
        assert d.neighbor(7, 1, -1) == 5

    def test_stored_clipped_to_domain(self):
        d = CartesianDecomposition((8, 8, 8), (2, 1, 1), 3)
        g0 = d.geometry(0)
        assert g0.stored.lo == (0, 0, 0)
        assert g0.stored.hi == (7, 8, 8)

    def test_rejects_oversubscription(self):
        with pytest.raises(ValueError):
            CartesianDecomposition((4, 4, 4), (5, 1, 1), 1)


class TestSimMPI:
    def test_ring_pass(self):
        def fn(comm: RankComm, rank: int):
            data = np.array([float(rank)])
            nxt = (rank + 1) % comm.size
            prev = (rank - 1) % comm.size
            comm.send(nxt, data)
            return float(comm.recv(prev)[0])

        out = run_ranks(4, fn)
        assert out == [3.0, 0.0, 1.0, 2.0]

    def test_exception_propagates(self):
        def fn(comm: RankComm, rank: int):
            if rank == 1:
                raise ValueError("boom")
            comm.recv(1)

        with pytest.raises((ValueError, SimMPIError)):
            run_ranks(2, fn)

    def test_send_copies_arrays(self):
        def fn(comm: RankComm, rank: int):
            if rank == 0:
                a = np.ones(4)
                comm.send(1, a)
                a[:] = 99.0
                return None
            got = comm.recv(0)
            return float(got.sum())

        assert run_ranks(2, fn)[1] == 4.0


class TestSweepSolver:
    @pytest.mark.parametrize("proc_grid", [(2, 1, 1), (1, 2, 1), (2, 2, 1),
                                           (2, 2, 2)])
    def test_matches_reference_h2(self, proc_grid):
        grid = Grid3D((12, 10, 8))
        field = random_field(grid.shape, RNG)
        res = distributed_jacobi_sweeps(grid, field, proc_grid,
                                        supersteps=2, halo=2)
        ref = reference_sweeps(grid, field, 4)
        assert res.field.tobytes() == ref.tobytes()

    def test_larger_halo(self):
        grid = Grid3D((16, 12, 12))
        field = random_field(grid.shape, RNG)
        res = distributed_jacobi_sweeps(grid, field, (2, 2, 1),
                                        supersteps=1, halo=4)
        ref = reference_sweeps(grid, field, 4)
        assert res.field.tobytes() == ref.tobytes()

    def test_corner_data_via_expansion(self):
        # 2x2x2 grid forces diagonal dependencies through all corners;
        # h=3 over multiple supersteps stresses the 3-phase expansion.
        grid = Grid3D((12, 12, 12))
        field = random_field(grid.shape, RNG)
        res = distributed_jacobi_sweeps(grid, field, (2, 2, 2),
                                        supersteps=2, halo=3)
        ref = reference_sweeps(grid, field, 6)
        assert res.field.tobytes() == ref.tobytes()

    def test_nonzero_boundary(self):
        bc = DirichletBoundary(1.0, faces={(0, -1): -2.0, (1, 1): 3.0})
        grid = Grid3D((10, 10, 8), boundary=bc)
        field = random_field(grid.shape, RNG)
        res = distributed_jacobi_sweeps(grid, field, (2, 2, 1),
                                        supersteps=2, halo=2)
        ref = reference_sweeps(grid, field, 4)
        assert res.field.tobytes() == ref.tobytes()

    def test_single_rank_degenerate(self):
        grid = Grid3D((8, 8, 8))
        field = random_field(grid.shape, RNG)
        res = distributed_jacobi_sweeps(grid, field, (1, 1, 1),
                                        supersteps=3, halo=2)
        ref = reference_sweeps(grid, field, 6)
        assert res.field.tobytes() == ref.tobytes()

    def test_halo_thicker_than_core_rejected(self):
        grid = Grid3D((8, 8, 8))
        field = random_field(grid.shape, RNG)
        with pytest.raises(ValueError, match="at least h cells"):
            distributed_jacobi_sweeps(grid, field, (4, 1, 1),
                                      supersteps=1, halo=4)


def _ramp_boundary(z, y, x):
    # Module-level so procmpi ranks can unpickle it under spawn.
    return 0.25 * z - 0.5 * y + 0.125 * x


def _planned_traffic(grid, proc_grid, supersteps, halo):
    """(bytes, messages) read off every rank's exchange plan."""
    decomp = CartesianDecomposition(grid.shape, proc_grid, halo)
    sends = [send for r in range(decomp.n_ranks)
             for (_, _, _, send, _) in exchange_plan(decomp,
                                                     decomp.geometry(r))]
    itemsize = np.dtype(grid.dtype).itemsize
    return (supersteps * sum(b.ncells * itemsize for b in sends),
            supersteps * len(sends))


_DIFF_STENCILS = {"jacobi7": jacobi7, "jacobi5_2d": jacobi5_2d,
                  "anisotropic": lambda: anisotropic_jacobi(1.0, 2.0, 0.5)}


@st.composite
def _sweeps_problems(draw):
    halo = draw(st.integers(1, 4))
    supersteps = draw(st.integers(1, 3))
    proc_grid = tuple(draw(st.integers(1, 2)) for _ in range(3))
    # Every rank core must be at least h cells thick along a cut axis.
    shape = tuple(draw(st.integers(p * halo if p > 1 else 1,
                                   max(p * halo, 4) + 4))
                  for p in proc_grid)
    stencil = draw(st.sampled_from(sorted(_DIFF_STENCILS)))
    if draw(st.booleans()):
        bc = DirichletBoundary(0.5, func=_ramp_boundary)
    else:
        bc = DirichletBoundary(draw(st.floats(-2, 2)),
                               faces={(0, -1): draw(st.floats(-2, 2)),
                                      (2, 1): draw(st.floats(-2, 2))})
    seed = draw(st.integers(0, 2**16))
    return shape, proc_grid, halo, supersteps, stencil, bc, seed


class TestSweepsDifferential:
    """The sweeps scheme against the plain reference and the plan."""

    @staticmethod
    def _check(shape, proc_grid, halo, supersteps, stencil, bc, seed,
               transport):
        grid = Grid3D(shape, boundary=bc)
        field = random_field(shape, np.random.default_rng(seed))
        sten = _DIFF_STENCILS[stencil]()
        res = distributed_jacobi_sweeps(grid, field, proc_grid,
                                        supersteps=supersteps, halo=halo,
                                        stencil=sten, transport=transport)
        ref = reference_sweeps(grid, field, supersteps * halo, stencil=sten)
        assert res.field.tobytes() == ref.tobytes()
        assert res.levels_advanced == supersteps * halo
        assert (res.bytes_exchanged, res.messages) == _planned_traffic(
            grid, proc_grid, supersteps, halo)

    @settings(max_examples=40, deadline=None)
    @given(_sweeps_problems())
    def test_simmpi_matches_reference_and_plan(self, problem):
        self._check(*problem, transport="simmpi")

    def test_procmpi_matches_reference_and_plan(self):
        bc = DirichletBoundary(0.5, func=_ramp_boundary)
        self._check((10, 9, 8), (2, 1, 2), 3, 2, "anisotropic", bc, 4,
                    transport="procmpi")


class TestHybridPipelinedSolver:
    def test_matches_reference(self):
        grid = Grid3D((20, 12, 10))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                             block_size=(3, 100, 100),
                             sync=RelaxedSpec(1, 2), passes=2)
        res = distributed_jacobi_pipelined(grid, field, (2, 1, 1), cfg)
        ref = reference_sweeps(grid, field, cfg.total_updates)
        assert res.field.tobytes() == ref.tobytes()

    def test_two_teams_across_ranks(self):
        grid = Grid3D((24, 10, 10))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=2, threads_per_team=2, updates_per_thread=1,
                             block_size=(3, 100, 100),
                             sync=RelaxedSpec(1, 3), passes=1)
        res = distributed_jacobi_pipelined(grid, field, (2, 2, 1), cfg)
        ref = reference_sweeps(grid, field, cfg.total_updates)
        assert res.field.tobytes() == ref.tobytes()

    def test_compressed_rejected(self):
        grid = Grid3D((12, 8, 8))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=1,
                             block_size=(3, 100, 100), storage="compressed")
        with pytest.raises(ValueError, match="twogrid"):
            distributed_jacobi_pipelined(grid, field, (2, 1, 1), cfg)

    def test_message_accounting(self):
        grid = Grid3D((12, 12, 8))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=1,
                             block_size=(3, 100, 100), passes=1)
        res = distributed_jacobi_pipelined(grid, field, (2, 1, 1), cfg)
        assert res.bytes_exchanged > 0
        assert res.halo == 2
        assert res.n_ranks == 2


def _x_split(shape, passes=2):
    grid = Grid3D(shape)
    field = random_field(grid.shape, np.random.default_rng(13))
    cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=1,
                         block_size=(8, 999, 999), sync=RelaxedSpec(1, 2),
                         passes=passes)
    return grid, field, cfg


class TestRankLifecycle:
    """A rank hands its stored box to the executor uncopied and its final
    core back as a view of the storage, copied once into the result."""

    def test_validated_core_read_catches_a_tampered_level(self):
        # Named for the rank's final level check, gone with the level
        # bookkeeping (the schedule is certified before it runs): what
        # stays is the core read, a view copied once into the result.
        grid, field, cfg = _x_split((8, 8, 16))
        res = distributed_jacobi_pipelined(grid, field, (1, 1, 2), cfg)
        assert np.array_equal(res.field, reference_sweeps(
            grid, field, cfg.total_updates))
        assert res.field.flags.owndata

    def test_peak_allocation_is_rings_plus_the_assembled_field(
            self, monkeypatch):
        # While the ranks run, each holds its two ring arrays and its
        # engine scratch; at assembly, the ring its final level lives in
        # (the returned core is a view of it) and the assembled field.
        # At 64^3 one rank's stored box (1.1 MB) is well above the 10 %
        # slack, so a staging copy of it, or a core copy alive beside
        # the rings, fails.  A small slab keeps the scratch small.
        monkeypatch.setattr(numpy_engine, "SLAB_BYTES", 64 << 10)
        grid, field, cfg = _x_split((64, 64, 64))
        decomp = CartesianDecomposition(grid.shape, (1, 1, 2),
                                        cfg.updates_per_pass)
        rings = sum(np.prod([n + 2 for n in decomp.geometry(r).stored.shape])
                    for r in range(decomp.n_ranks)) * field.itemsize
        # Per rank thread two buffers, each one slab's run: at most
        # FLAT_RUN_MAX times a slab of SLAB_BYTES.
        scratch = decomp.n_ranks * 2 * (numpy_engine.FLAT_RUN_MAX
                                        * numpy_engine.SLAB_BYTES)
        bound = 1.1 * max(2 * rings + scratch, rings + field.nbytes)
        distributed_jacobi_pipelined(grid, field, (1, 1, 2), cfg)  # warm
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            res = distributed_jacobi_pipelined(grid, field, (1, 1, 2), cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"{peak} B peak, bound {bound:.0f} B"
        assert np.array_equal(res.field, reference_sweeps(
            grid, field, cfg.total_updates))
