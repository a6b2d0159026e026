"""Cross-backend differential battery: shared ≡ simmpi ≡ procmpi.

The correctness story of the ``procmpi`` backend is carried entirely by
differential testing: every backend runs the *same* problem and the
fields must agree — bit-identically on a ``(1, 1, 1)`` topology and
between the two distributed transports on any topology (same per-rank
body, same exchange plan, different transport) — and byte-identical to
the shared backend and the plain-Jacobi reference on multi-rank
topologies too (a rank's trapezoid and its owner update every ghost cell
with the same per-cell floating-point sequence).

The battery sweeps seeded randomized grids × kernels (7-point Jacobi,
embedded-2-D and anisotropic star stencils, plus the D2Q9 LBM kernel
run *through* both transports) × topologies, and checks that the
``SolveResult`` metadata — levels advanced, halo, rank count, exchange
byte/message counters, executor update counts — is consistent across
backends.

All rank functions are module-level so the battery also runs under the
``spawn`` start method (CI sets ``REPRO_PROCMPI_START=spawn``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Grid3D, PipelineConfig, RelaxedSpec, solve
from repro.dist.procmpi import run_procs
from repro.dist.simmpi import run_ranks
from repro.dist.solver import distributed_jacobi_sweeps
from repro.grid import DirichletBoundary, random_field
from repro.kernels import reference_sweeps
from repro.kernels.jacobi import anisotropic_jacobi, jacobi5_2d, jacobi7
from repro.kernels.lbm import D2Q9

STENCILS = {
    "jacobi7": jacobi7,
    "jacobi5_2d": jacobi5_2d,
    "anisotropic": lambda: anisotropic_jacobi(1.0, 2.0, 0.5),
}

TOPOLOGIES = [(2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1)]


def small_config(passes: int = 2) -> PipelineConfig:
    return PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                          block_size=(3, 64, 64), sync=RelaxedSpec(1, 2),
                          passes=passes)


def run_all_backends(grid, field, cfg, topology, stencil=None):
    shared = solve(grid, field, cfg, stencil=stencil)
    sim = solve(grid, field, cfg, topology=topology, backend="simmpi",
                stencil=stencil)
    proc = solve(grid, field, cfg, topology=topology, backend="procmpi",
                 stencil=stencil)
    return shared, sim, proc


def assert_metadata_consistent(shared, sim, proc, cfg, topology):
    n_ranks = topology[0] * topology[1] * topology[2]
    for res in (shared, sim, proc):
        assert res.levels_advanced == cfg.total_updates
        assert res.config is cfg
    assert shared.backend == "shared" and shared.n_ranks == 1
    assert sim.backend == "simmpi" and proc.backend == "procmpi"
    for res in (sim, proc):
        assert res.topology == topology
        assert res.n_ranks == n_ranks
        assert res.halo == cfg.updates_per_pass
    # The transports share one exchange plan and one executor schedule:
    # every deterministic counter must match exactly.
    assert sim.bytes_exchanged == proc.bytes_exchanged
    assert sim.messages == proc.messages
    assert sim.stats.cells_updated == proc.stats.cells_updated
    assert sim.stats.updates == proc.stats.updates
    assert sim.stats.block_ops == proc.stats.block_ops
    if n_ranks > 1:
        assert sim.messages > 0 and sim.bytes_exchanged > 0
        # Trapezoid ghost work is redundant, so distributed runs do
        # strictly more cell updates than the shared run — except at
        # h = 1, where the trapezoid degenerates to the bare core.
        if cfg.updates_per_pass > 1:
            assert sim.stats.cells_updated > shared.stats.cells_updated
        else:
            assert sim.stats.cells_updated == shared.stats.cells_updated


class TestTrivialTopology:
    def test_all_three_bit_identical(self):
        grid = Grid3D((14, 12, 10))
        field = random_field(grid.shape, np.random.default_rng(0))
        cfg = small_config()
        shared, sim, proc = run_all_backends(grid, field, cfg, (1, 1, 1))
        assert np.array_equal(shared.field, sim.field)
        assert np.array_equal(shared.field, proc.field)


class TestKernelTopologyMatrix:
    @pytest.mark.parametrize("kernel", sorted(STENCILS))
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_three_backends_agree(self, kernel, topology):
        grid = Grid3D((16, 14, 12))
        field = random_field(grid.shape, np.random.default_rng(11))
        cfg = small_config(passes=1)
        st = STENCILS[kernel]()
        shared, sim, proc = run_all_backends(grid, field, cfg, topology,
                                             stencil=st)
        ref = reference_sweeps(grid, field, cfg.total_updates, stencil=st)
        assert shared.field.tobytes() == ref.tobytes()
        assert sim.field.tobytes() == ref.tobytes()
        assert proc.field.tobytes() == ref.tobytes()
        assert np.array_equal(sim.field, proc.field)
        assert_metadata_consistent(shared, sim, proc, cfg, topology)


class TestRandomizedProblems:
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_random_grid_and_topology(self, seed):
        rng = np.random.default_rng(1000 + seed)
        cfg = PipelineConfig(
            teams=1,
            threads_per_team=int(rng.integers(1, 3)),
            updates_per_thread=int(rng.integers(1, 3)),
            block_size=(int(rng.integers(2, 5)), 64, 64),
            sync=RelaxedSpec(1, int(rng.integers(1, 4))),
            passes=int(rng.integers(1, 3)),
        )
        h = cfg.updates_per_pass
        # Every split dimension must keep cores at least h cells wide.
        shape = tuple(int(rng.integers(max(8, 2 * h), 20)) for _ in range(3))
        topology = TOPOLOGIES[int(rng.integers(0, len(TOPOLOGIES)))]
        bc = DirichletBoundary(float(rng.normal()),
                               faces={(0, -1): float(rng.normal())})
        grid = Grid3D(shape, boundary=bc)
        field = random_field(shape, rng)
        shared, sim, proc = run_all_backends(grid, field, cfg, topology)
        ref = reference_sweeps(grid, field, cfg.total_updates)
        assert proc.field.tobytes() == ref.tobytes()
        assert sim.field.tobytes() == ref.tobytes()
        assert np.array_equal(sim.field, proc.field)
        assert_metadata_consistent(shared, sim, proc, cfg, topology)


class TestSweepsSolverTransports:
    @pytest.mark.parametrize("topology", [(2, 1, 1), (2, 2, 1), (2, 2, 2)])
    def test_transports_bit_identical(self, topology):
        grid = Grid3D((12, 12, 12))
        field = random_field(grid.shape, np.random.default_rng(7))
        sim = distributed_jacobi_sweeps(grid, field, topology,
                                        supersteps=2, halo=2)
        proc = distributed_jacobi_sweeps(grid, field, topology,
                                         supersteps=2, halo=2,
                                         transport="procmpi")
        ref = reference_sweeps(grid, field, 4)
        assert np.array_equal(sim.field, proc.field)
        assert proc.field.tobytes() == ref.tobytes()
        assert sim.bytes_exchanged == proc.bytes_exchanged
        assert sim.messages == proc.messages
        assert (sim.levels_advanced, sim.halo) \
            == (proc.levels_advanced, proc.halo) == (4, 2)


# -- D2Q9 LBM through both transports ---------------------------------------
#
# The LBM rail is 2-D and not domain-decomposed, so its differential
# check drives the *transports* instead: every rank advances the same
# lattice and ships its (non-trivial, float-heavy) state through the
# comm; all replicas and the inline run must agree bit-for-bit.

def _lbm_fields(steps: int) -> np.ndarray:
    lat = D2Q9((10, 8), tau=0.8, body_force=(1e-5, 0.0))
    lat.step(steps)
    s = lat.macroscopic()
    return np.stack([s.density, s.ux, s.uy])


def _lbm_rank_fn(comm, rank, steps=5):
    fields = _lbm_fields(steps)
    if rank == 0:
        return np.stack([fields] + [comm.recv(r) for r in range(1, comm.size)])
    comm.send(0, fields)
    return None


class TestLBMDifferential:
    @pytest.mark.parametrize("runner", ["simmpi", "procmpi"])
    def test_replicated_lbm_bit_identical(self, runner):
        inline = _lbm_fields(5)
        if runner == "simmpi":
            outs = run_ranks(3, lambda comm, rank: _lbm_rank_fn(comm, rank))
        else:
            outs = run_procs(3, _lbm_rank_fn, timeout=60.0)
        stacked = outs[0]
        assert stacked.shape == (3,) + inline.shape
        for rank_fields in stacked:
            assert np.array_equal(rank_fields, inline)
