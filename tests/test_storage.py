"""Tests for the two-grid and compressed-grid storage schemes.

The storages check nothing at run time (schedules are certified before
they run); a test of an illegal access pins what it returns: the bytes
of the wrong level.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.storage import (
    CompressedStorage,
    StorageError,
    TwoGridStorage,
    make_storage,
)
from repro.grid import Box, DirichletBoundary, Grid3D, random_field

RNG = np.random.default_rng(3)

BOUNDARIES = {
    "scalar": DirichletBoundary(1.25),
    "faces": DirichletBoundary(0.5, faces={(0, -1): 2.0, (1, 1): -0.5,
                                           (2, -1): 0.75, (2, 1): 3.0}),
    "func": DirichletBoundary(
        func=lambda z, y, x: 0.1 * z + 0.2 * y - 0.05 * x),
}


def make_twogrid(shape=(6, 5, 5), bc=None):
    grid = Grid3D(shape, boundary=bc)
    field = random_field(shape, RNG)
    return grid, field, TwoGridStorage(grid, field)


class TestTwoGrid:
    def test_initial_extract(self):
        grid, field, st = make_twogrid()
        np.testing.assert_array_equal(st.extract(0), field)

    def test_write_then_extract(self):
        grid, field, st = make_twogrid()
        region = grid.domain
        vals = np.ones(region.shape)
        st.write(region, 1, vals)
        np.testing.assert_array_equal(st.extract(1), vals)

    def test_write_shape_mismatch(self):
        grid, field, st = make_twogrid()
        with pytest.raises(StorageError):
            st.write(grid.domain, 1, np.zeros((1, 1, 1)))

    def test_two_buffer_window_ok(self):
        grid, field, st = make_twogrid()
        lower = Box((0, 0, 0), (3, 5, 5))
        st.write(lower, 1, np.zeros(lower.shape))
        # Reading level 0 next to cells now at level 1 is legal (window).
        out = st.gather(Box((3, 0, 0), (4, 5, 5)), (-1, 0, 0), 0)
        np.testing.assert_array_equal(out, field[2:3])

    def test_two_buffer_violation_detected(self):
        grid, field, st = make_twogrid()
        lower = Box((0, 0, 0), (3, 5, 5))
        st.write(lower, 1, np.ones(lower.shape))
        st.write(lower, 2, np.full(lower.shape, 2.0))
        # Cells at level 2 no longer hold level-0 values: a read outside
        # the window gets level 2's bytes.
        out = st.gather(Box((3, 0, 0), (4, 5, 5)), (-1, 0, 0), 0)
        np.testing.assert_array_equal(out, 2.0)

    def test_gather_boundary_patch_low_face(self):
        bc = DirichletBoundary(7.5)
        grid, field, st = make_twogrid(bc=bc)
        out = st.gather(Box((0, 0, 0), (1, 5, 5)), (-1, 0, 0), 0)
        np.testing.assert_array_equal(out, np.full((1, 5, 5), 7.5))

    def test_gather_boundary_patch_high_face(self):
        bc = DirichletBoundary(0.0, faces={(2, 1): -3.0})
        grid, field, st = make_twogrid(bc=bc)
        out = st.gather(Box((0, 0, 3), (6, 5, 5)), (0, 0, 1), 0)
        # Interior part from the field, last x-plane from the boundary.
        np.testing.assert_array_equal(out[:, :, -1], np.full((6, 5), -3.0))
        np.testing.assert_array_equal(out[:, :, 0], field[:, :, 4])

    def test_gather_interior_is_view_fast_path(self):
        grid, field, st = make_twogrid()
        box = Box((1, 1, 1), (3, 3, 3))
        out = st.gather(box, (1, 0, 0), 0)
        np.testing.assert_array_equal(out, field[2:4, 1:3, 1:3])

    def test_inject_jumps_level(self):
        grid, field, st = make_twogrid()
        box = Box((0, 0, 0), (2, 5, 5))
        st.inject(box, 5, np.full(box.shape, 2.0))
        np.testing.assert_array_equal(st.extract_region(box, 5),
                                      np.full(box.shape, 2.0))

    def test_array_bytes(self):
        # What is allocated: both level arrays as handed out raw, which
        # hold at least the two interiors.
        grid, field, st = make_twogrid()
        raw = [st.raw_read_array(level)[0] for level in (0, 1)]
        assert not np.shares_memory(*raw)
        assert st.array_bytes == sum(a.nbytes for a in raw)
        assert st.array_bytes >= 2 * field.nbytes


class TestCompressed:
    def make(self, shape=(8, 5, 5), upp=4):
        grid = Grid3D(shape)
        field = random_field(shape, RNG)
        st = CompressedStorage(grid, field, (1, 0, 0), upp)
        return grid, field, st

    def test_margin_allocation(self):
        # A margin of upp cells along the shifted axis and a one-cell
        # ring on every face, folded into every level's origin.
        grid, field, st = self.make(upp=4)
        assert st.margin == (4, 0, 0)
        arr, origin = st.raw_read_array(0)
        assert arr.shape == (8 + 4 + 2, 5 + 2, 5 + 2)
        assert [st.raw_read_array(v)[1][0] for v in range(9)] == [
            5, 4, 3, 2, 1, 2, 3, 4, 5]
        assert {st.raw_read_array(v)[1][1:] for v in range(9)} == {(1, 1)}
        np.testing.assert_array_equal(arr[grid.domain.slices(origin)], field)

    def test_offsets_forward_and_unwind(self):
        _, _, st = self.make(upp=4)
        assert [st.offset_scalar(v) for v in range(0, 9)] == [
            0, -1, -2, -3, -4, -3, -2, -1, 0]

    def test_initial_extract(self):
        grid, field, st = self.make()
        np.testing.assert_array_equal(st.extract(0), field)

    def test_write_goes_to_shifted_position(self):
        grid, field, st = self.make()
        region = grid.domain
        vals = np.full(region.shape, 1.5)
        old, origin0 = st.raw_read_array(0)
        st.write(region, 1, vals)
        # Level-1 values live one cell lower in storage; the top cell's
        # level-0 position now holds the level-1 ring of the +z face.
        arr, origin1 = st.raw_read_array(1)
        assert arr is old and origin1 == (origin0[0] - 1,) + origin0[1:]
        np.testing.assert_array_equal(arr[region.slices(origin1)], vals)
        np.testing.assert_array_equal(
            arr[Box((7, 0, 0), (8, 5, 5)).slices(origin0)], 0.0)
        np.testing.assert_array_equal(
            arr[Box((8, 0, 0), (9, 5, 5)).slices(origin1)], 0.0)
        np.testing.assert_array_equal(st.extract(1), vals)

    def test_clobber_detected_on_read(self):
        grid, field, st = self.make(shape=(8, 5, 5), upp=4)
        # Update the lower half twice; its level-1 write at offset -1
        # overwrites level-0 values of cells one layer below itself.
        lower = Box((0, 0, 0), (4, 5, 5))
        st.write(lower, 1, np.ones(lower.shape))
        st.write(lower, 2, np.full(lower.shape, 2.0))
        # The level-1 write at offset -1 put cell z=3's value where cell
        # z=2 kept its level-0 value: that value is gone, and a read of
        # it gets the level-1 bytes.
        out = st.gather(Box((3, 0, 0), (4, 5, 5)), (-1, 0, 0), 0)
        np.testing.assert_array_equal(out, 1.0)
        # Cell z=3's level-0 value (row 7) survived and is still readable.
        out = st.gather(Box((4, 0, 0), (5, 5, 5)), (-1, 0, 0), 0)
        np.testing.assert_array_equal(out[0], field[3])

    def test_single_array_bytes(self):
        # One array: interior, z margin and the ring on every face —
        # for every boundary, and still well under the two ring arrays
        # of the two-grid layout.
        grid, field, st = self.make(upp=4)
        assert st.array_bytes == (8 + 4 + 2) * (5 + 2) * (5 + 2) * 8
        assert st.array_bytes == st.raw_read_array(0)[0].nbytes
        assert st.array_bytes <= TwoGridStorage(grid, field).array_bytes * 0.7
        func = CompressedStorage(Grid3D(grid.shape, boundary=BOUNDARIES[
            "func"]), field, (1, 0, 0), 4)
        assert func.array_bytes == st.array_bytes

    @pytest.mark.parametrize("bc", sorted(BOUNDARIES))
    def test_gather_is_a_view_across_ring_faces_only(self, bc):
        # Every face carries the ring, the moving ones (z here, every
        # face of a func boundary) stored per level: each read across a
        # face is a view holding that level's Dirichlet values.
        grid = Grid3D((8, 5, 6), boundary=BOUNDARIES[bc])
        field = random_field(grid.shape, RNG)
        st = CompressedStorage(grid, field, (1, 0, 0), 4)
        region = grid.domain
        st.write(region, 1, field + 1.0)
        for dim in range(3):
            for side in (-1, 1):
                off = tuple(side if d == dim else 0 for d in range(3))
                out = st.gather(region, off, 1)
                assert np.shares_memory(out, st.raw_read_array(1)[0])
                face = region.outer_face(dim, side)
                rel = face.shift(tuple(-o for o in off)).slices()
                np.testing.assert_array_equal(
                    out[rel], grid.boundary.values_for_face(dim, side, face))
                inner = region.intersect(region.shift(tuple(-o for o in off)))
                np.testing.assert_array_equal(
                    out[inner.slices()],
                    field[inner.shift(off).slices()] + 1.0)

    def test_rejects_bad_shift_vec(self):
        grid = Grid3D((4, 4, 4))
        f = np.zeros((4, 4, 4))
        with pytest.raises(ValueError):
            CompressedStorage(grid, f, (0, 0, 0), 2)
        with pytest.raises(ValueError):
            CompressedStorage(grid, f, (2, 0, 0), 2)


class TestWriteView:
    """The in-place engine's entry point: view out, fill, commit."""

    def test_twogrid_view_targets_the_other_array(self):
        grid, field, st = make_twogrid()
        view = st.write_view(grid.domain, 1)
        view[...] = 2.5
        st.commit_write(grid.domain, 1)
        np.testing.assert_array_equal(st.extract(1),
                                      np.full(grid.shape, 2.5))
        old, origin = st.raw_read_array(0)
        new, _ = st.raw_read_array(1)
        assert np.shares_memory(view, new)
        assert not np.shares_memory(view, old)
        # The level-0 values were never touched.
        np.testing.assert_array_equal(old[grid.domain.slices(origin)], field)

    def test_compressed_view_is_shifted_and_commit_tracks_positions(self):
        grid = Grid3D((8, 5, 5))
        field = random_field(grid.shape, RNG)
        st = CompressedStorage(grid, field, (1, 0, 0), 4)
        region = Box((0, 0, 0), (8, 5, 5))
        view = st.write_view(region, 1)
        assert view.shape == region.shape
        view[...] = 3.0
        arr, origin = st.raw_read_array(1)
        np.testing.assert_array_equal(arr[region.slices(origin)], 3.0)
        st.commit_write(region, 1)
        np.testing.assert_array_equal(st.extract(1),
                                      np.full(grid.shape, 3.0))
        # Positions shifted by -1 along z now carry level 1: cells 0..6
        # lost their level-0 values, cell 7 its slot to the +z ring.
        np.testing.assert_array_equal(st.read(Box((0, 0, 0), (7, 5, 5)), 0),
                                      3.0)
        np.testing.assert_array_equal(st.read(Box((7, 0, 0), (8, 5, 5)), 0),
                                      0.0)
        np.testing.assert_array_equal(
            st.gather(Box((7, 0, 0), (8, 5, 5)), (1, 0, 0), 1), 0.0)

    def test_compressed_uncommitted_view_is_not_readable(self):
        # Until the commit, the moving +z ring of level 1 is not stored:
        # its slot still holds the top cell's level-0 value.
        grid = Grid3D((8, 5, 5), boundary=DirichletBoundary(-1.5))
        field = random_field(grid.shape, RNG)
        st = CompressedStorage(grid, field, (1, 0, 0), 4)
        top = Box((7, 0, 0), (8, 5, 5))
        view = st.write_view(grid.domain, 1)
        view[...] = 1.0  # filled but not committed yet
        np.testing.assert_array_equal(st.gather(top, (1, 0, 0), 1),
                                      field[7:8])
        st.commit_write(grid.domain, 1)
        np.testing.assert_array_equal(st.gather(top, (1, 0, 0), 1), -1.5)


class TestFactory:
    def test_make_twogrid(self):
        grid = Grid3D((4, 4, 4))
        st = make_storage("twogrid", grid, np.zeros(grid.shape), (1, 0, 0), 2)
        assert isinstance(st, TwoGridStorage)

    def test_make_compressed(self):
        grid = Grid3D((4, 4, 4))
        st = make_storage("compressed", grid, np.zeros(grid.shape), (1, 0, 0), 2)
        assert isinstance(st, CompressedStorage)

    def test_unknown_scheme(self):
        grid = Grid3D((4, 4, 4))
        with pytest.raises(ValueError):
            make_storage("tiled", grid, np.zeros(grid.shape), (1, 0, 0), 2)


def _assert_ring_intact(grid, st):
    """Both raw arrays still carry exactly ``grid``'s ghost ring."""
    for level in (0, 1):
        arr, origin = st.raw_read_array(level)
        want = grid.padded(arr[grid.domain.slices(origin)])
        np.testing.assert_array_equal(arr, want)  # NaN-tolerant


class TestGhostRing:
    """Dirichlet values live in a ring that is filled once, never written."""

    @pytest.mark.parametrize("bc", sorted(BOUNDARIES))
    @pytest.mark.parametrize("shape", [(6, 5, 7), (1, 6, 7), (6, 1, 7),
                                       (6, 7, 1), (1, 1, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_solve_matches_reference_and_keeps_the_ring(self, bc, shape,
                                                        dtype):
        from repro import PipelineConfig, RelaxedSpec, jacobi7
        from repro.core.executor import PipelineExecutor
        from repro.kernels import reference_sweeps

        grid = Grid3D(shape, boundary=BOUNDARIES[bc], dtype=dtype)
        field = random_field(shape, RNG).astype(dtype)
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=2, block_size=(4, 64, 64),
                             sync=RelaxedSpec(1, 2), passes=2)
        ex = PipelineExecutor(grid, field, cfg, jacobi7())
        got = ex.run()
        assert isinstance(ex.storage, TwoGridStorage)
        assert got.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(
            got, reference_sweeps(grid, field, cfg.total_updates))
        _assert_ring_intact(grid, ex.storage)

    @pytest.mark.parametrize("bc", sorted(BOUNDARIES))
    def test_gather_serves_every_face_from_the_ring(self, bc):
        grid, field, st = make_twogrid(bc=BOUNDARIES[bc])
        for dim in range(3):
            for side in (-1, 1):
                off = tuple(side if d == dim else 0 for d in range(3))
                out = st.gather(grid.domain, off, 0)
                assert np.shares_memory(out, st.raw_read_array(0)[0])
                face = grid.domain.outer_face(dim, side)
                rel = face.shift(tuple(-o for o in off)).slices()
                np.testing.assert_array_equal(
                    out[rel],
                    grid.boundary.values_for_face(dim, side, face))

    def test_inject_on_a_domain_edge_box_leaves_the_ring(self):
        grid, field, st = make_twogrid(bc=BOUNDARIES["func"])
        for box in (Box((0, 0, 0), (2, 5, 5)), Box((4, 3, 0), (6, 5, 5))):
            st.inject(box, 1, np.full(box.shape, 9.0))
            np.testing.assert_array_equal(st.extract_region(box, 1),
                                          np.full(box.shape, 9.0))
        _assert_ring_intact(grid, st)


class TestValidationOnlyBookkeeping:
    """No level tracking: a certified schedule needs none."""

    def test_unvalidated_storages_carry_no_level_arrays(self):
        # A storage allocates its value arrays and nothing per cell: an
        # int32 level per cell would add 16 KiB here.
        grid = Grid3D((16, 16, 16))
        field = random_field(grid.shape, RNG)
        for make in (lambda: TwoGridStorage(grid, field),
                     lambda: CompressedStorage(grid, field, (1, 0, 0), 4)):
            make()                              # warm the ring tables
            tracemalloc.start()
            try:
                st = make()
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert kept < st.array_bytes + (8 << 10), (kept, st.array_bytes)
        grid = Grid3D((8, 5, 5))
        field = random_field(grid.shape, RNG)
        two = TwoGridStorage(grid, field)
        comp = CompressedStorage(grid, field, (1, 0, 0), 4)
        for st in (two, comp):
            vals = np.full(grid.shape, 1.5)
            st.write(grid.domain, 1, vals)
            view = st.write_view(grid.domain, 2)
            view[...] = 2.5
            st.commit_write(grid.domain, 2)
            np.testing.assert_array_equal(st.extract(2),
                                          np.full(grid.shape, 2.5))
            box = Box((0, 0, 0), (2, 5, 5))
            st.inject(box, 3, np.zeros(box.shape))
            np.testing.assert_array_equal(st.extract_region(box, 3),
                                          np.zeros(box.shape))

    @pytest.mark.parametrize("storage", ["twogrid", "compressed"])
    def test_unvalidated_solve_is_bit_identical(self, storage):
        from repro import PipelineConfig, RelaxedSpec, solve

        grid = Grid3D((12, 10, 11), boundary=BOUNDARIES["faces"])
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=2, block_size=(4, 64, 64),
                             sync=RelaxedSpec(1, 2), storage=storage,
                             passes=2)
        checked = solve(grid, field, cfg, validate=True)
        fast = solve(grid, field, cfg, validate=False)
        assert np.array_equal(fast.field, checked.field)
