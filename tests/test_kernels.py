"""Tests for stencil kernels, reference sweeps and convergence tools."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid import DirichletBoundary, Grid3D, random_field
from repro.kernels import (
    StarStencil,
    anisotropic_jacobi,
    change_norm,
    jacobi5_2d,
    jacobi7,
    jacobi_residual,
    jacobi_sweep_blocked,
    jacobi_sweep_padded,
    reference_sweeps,
    solve_to_tolerance,
)
from repro.kernels.reference import reference_sweep_region

RNG = np.random.default_rng(11)


class TestStarStencil:
    def test_jacobi7_offsets_and_weights(self):
        st = jacobi7()
        assert st.n_neighbors == 6
        assert st.center_weight == 0.0
        assert abs(sum(st.weights.values()) - 1.0) < 1e-15

    def test_rejects_diagonal_offsets(self):
        with pytest.raises(ValueError, match="radius-1 axis offset"):
            StarStencil(weights={(1, 1, 0): 0.5})

    def test_rejects_radius_two(self):
        with pytest.raises(ValueError):
            StarStencil(weights={(2, 0, 0): 0.5})

    def test_flops_per_cell(self):
        # Counted from ``groups``: adds inside groups + one multiply per
        # group + adds between group products — Eq. 1 is the paper's 6.
        assert jacobi7().flops_per_cell == 6
        assert jacobi5_2d().flops_per_cell == 4
        assert jacobi7().damped(0.5).flops_per_cell == 8
        assert anisotropic_jacobi(1.0, 2.0, 0.5).flops_per_cell == 8
        assert StarStencil(weights={}).flops_per_cell == 0

    def test_apply_matches_manual(self):
        st = jacobi7()
        c = np.zeros((2, 2, 2))
        neigh = [np.full((2, 2, 2), float(i)) for i in range(6)]
        out = st.apply(c, neigh)
        np.testing.assert_allclose(out, np.full((2, 2, 2), 15.0 / 6.0))

    def test_apply_wrong_arity(self):
        with pytest.raises(ValueError):
            jacobi7().apply(np.zeros((1, 1, 1)), [np.zeros((1, 1, 1))] * 5)

    def test_damped_weights_sum(self):
        st = jacobi7().damped(0.7)
        total = sum(st.weights.values()) + st.center_weight
        assert abs(total - 1.0) < 1e-14

    def test_scaled(self):
        st = jacobi7().scaled(6.0)
        assert all(abs(w - 1.0) < 1e-15 for w in st.weights.values())


class TestSweeps:
    def test_sweep_matches_eq1_by_hand(self):
        grid = Grid3D((3, 3, 3))
        f = np.zeros(grid.shape)
        f[1, 1, 1] = 6.0
        out = reference_sweeps(grid, f, 1)
        # Each face neighbor of the centre receives 1.0; centre becomes 0.
        assert out[1, 1, 1] == 0.0
        assert out[0, 1, 1] == 1.0
        assert out[1, 0, 1] == 1.0
        assert out[1, 1, 0] == 1.0
        assert out[2, 1, 1] == 1.0

    def test_boundary_enters_update(self):
        bc = DirichletBoundary(6.0)
        grid = Grid3D((1, 1, 1), boundary=bc)
        out = reference_sweeps(grid, np.zeros((1, 1, 1)), 1)
        assert out[0, 0, 0] == pytest.approx(6.0)

    def test_zero_sweeps_identity(self):
        grid = Grid3D((4, 4, 4))
        f = random_field(grid.shape, RNG)
        np.testing.assert_array_equal(reference_sweeps(grid, f, 0), f)

    def test_negative_sweeps_rejected(self):
        grid = Grid3D((4, 4, 4))
        with pytest.raises(ValueError):
            reference_sweeps(grid, np.zeros(grid.shape), -1)

    @pytest.mark.parametrize("st", [
        jacobi7(), jacobi7().damped(0.7),
        StarStencil({(0, 0, -1): 0.5, (0, 0, 1): 0.0, (0, -1, 0): 0.5}),
    ], ids=["jacobi7", "damped", "zero-weight"])
    def test_reference_sweeps_equal_the_straight_version(self, st):
        # The suite's ground truth may not share its inner routine with
        # the code under test: StarStencil.apply on padded slices only
        # (itself pinned to the scalar per-cell sequence, bit for bit,
        # in test_vector_v2.py).
        grid = Grid3D((5, 6, 7), boundary=DirichletBoundary(
            func=lambda z, y, x: 0.1 * z + 0.2 * y - 0.05 * x))
        f = random_field(grid.shape, RNG)
        if 0.0 in st.weights.values():
            f[2, -1, -1] = np.inf  # read through the zero weight only
        cur = grid.padded(f)
        inner = (slice(1, -1),) * 3
        for _ in range(3):
            nxt = cur.copy()
            nxt[inner] = st.apply(cur[inner], [
                cur[tuple(slice(1 + o, n - 1 + o)
                          for o, n in zip(off, cur.shape))]
                for off in st.offsets])
            cur = nxt
        got = reference_sweeps(grid, f, 3, stencil=st)
        assert got.tobytes() == cur[inner].tobytes()
        assert not np.isnan(got).any()

    def test_blocked_sweep_equals_plain(self):
        grid = Grid3D((12, 10, 9))
        f = random_field(grid.shape, RNG)
        src = grid.padded(f)
        plain = jacobi_sweep_padded(src)
        blocked = np.empty_like(src)
        jacobi_sweep_blocked(src, blocked, (5, 3, 4))
        np.testing.assert_array_equal(plain, blocked)

    @pytest.mark.parametrize("block", [(1, 1, 1), (100, 100, 100), (2, 7, 3)])
    def test_blocked_sweep_any_block(self, block):
        grid = Grid3D((6, 6, 6))
        f = random_field(grid.shape, RNG)
        src = grid.padded(f)
        plain = jacobi_sweep_padded(src)
        blocked = jacobi_sweep_blocked(src, np.empty_like(src), block)
        np.testing.assert_array_equal(plain, blocked)

    def test_region_sweep_partial(self):
        grid = Grid3D((6, 6, 6))
        f = random_field(grid.shape, RNG)
        src = grid.padded(f)
        dst = src.copy()
        reference_sweep_region(src, dst, (0, 0, 0), (3, 6, 6))
        full = jacobi_sweep_padded(src)
        np.testing.assert_array_equal(dst[1:4, 1:7, 1:7], full[1:4, 1:7, 1:7])
        np.testing.assert_array_equal(dst[4:7], src[4:7])

    def test_region_sweep_empty_region_noop(self):
        grid = Grid3D((4, 4, 4))
        src = grid.padded(random_field(grid.shape, RNG))
        dst = src.copy()
        reference_sweep_region(src, dst, (2, 0, 0), (2, 4, 4))
        np.testing.assert_array_equal(dst, src)

    def test_anisotropic_conserves_constant(self):
        # With weights summing to 1, a constant field stays constant.
        bc = DirichletBoundary(3.0)
        grid = Grid3D((5, 5, 5), boundary=bc)
        f = np.full(grid.shape, 3.0)
        out = reference_sweeps(grid, f, 4, stencil=anisotropic_jacobi(1, 2, 3))
        np.testing.assert_allclose(out, f)


class TestConvergence:
    def test_change_norm(self):
        a = np.zeros((2, 2, 2))
        b = np.ones((2, 2, 2))
        assert change_norm(a, b) == 1.0
        assert change_norm(a, b, ord=2) == pytest.approx(np.sqrt(8.0))

    def test_residual_zero_at_fixed_point(self):
        bc = DirichletBoundary(2.0)
        grid = Grid3D((4, 4, 4), boundary=bc)
        f = np.full(grid.shape, 2.0)
        assert jacobi_residual(grid, f) == pytest.approx(0.0, abs=1e-14)

    def test_solver_converges_to_boundary_constant(self):
        bc = DirichletBoundary(1.0)
        grid = Grid3D((6, 6, 6), boundary=bc)
        hist = solve_to_tolerance(grid, np.zeros(grid.shape), tol=1e-10,
                                  max_sweeps=5000, sweep_batch=10)
        assert hist.converged
        np.testing.assert_allclose(hist.field, np.ones(grid.shape), atol=1e-7)

    def test_contraction_rate_below_one(self):
        grid = Grid3D((6, 6, 6))
        f = random_field(grid.shape, RNG)
        hist = solve_to_tolerance(grid, f, tol=1e-12, max_sweeps=500)
        assert 0.0 < hist.contraction_rate() < 1.0

    def test_callback_invoked(self):
        grid = Grid3D((4, 4, 4))
        seen = []
        solve_to_tolerance(grid, random_field(grid.shape, RNG), tol=1e-3,
                           max_sweeps=50,
                           callback=lambda k, n: seen.append((k, n)))
        assert seen

    def test_not_converged_flag(self):
        grid = Grid3D((8, 8, 8))
        hist = solve_to_tolerance(grid, random_field(grid.shape, RNG),
                                  tol=1e-300, max_sweeps=3)
        assert not hist.converged
        assert hist.sweeps == 3

    def test_bad_args(self):
        grid = Grid3D((4, 4, 4))
        with pytest.raises(ValueError):
            solve_to_tolerance(grid, np.zeros(grid.shape), tol=0.0)
        with pytest.raises(ValueError):
            solve_to_tolerance(grid, np.zeros(grid.shape), sweep_batch=0)
