"""Tests for Grid3D and DirichletBoundary."""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid import Box, DirichletBoundary, Grid3D, random_field


class TestDirichletBoundary:
    def test_scalar_default(self):
        bc = DirichletBoundary(2.5)
        box = Box((-1, 0, 0), (0, 3, 3))
        np.testing.assert_array_equal(bc.values_for_face(0, -1, box),
                                      np.full((1, 3, 3), 2.5))

    def test_per_face(self):
        bc = DirichletBoundary(0.0, faces={(1, 1): 7.0})
        assert bc.face_value(1, 1) == 7.0
        assert bc.face_value(1, -1) == 0.0
        box = Box((0, 8, 0), (3, 9, 3))
        np.testing.assert_array_equal(bc.values_for_face(1, 1, box),
                                      np.full((3, 1, 3), 7.0))

    def test_func_evaluated_at_coords(self):
        bc = DirichletBoundary(func=lambda z, y, x: x * 1.0 + 0 * y + 0 * z)
        box = Box((0, 0, -1), (2, 2, 0))
        np.testing.assert_array_equal(bc.values_for_face(2, -1, box),
                                      np.full((2, 2, 1), -1.0))

    def test_one_row_on_the_high_x_face_is_not_the_high_y_value(self):
        # A z-row at y=2 on the +x face of a (4, 3, 4) grid: the face is
        # named, never guessed from which extent happens to be one.
        bc = DirichletBoundary(0.0, faces={(1, 1): 5.0})
        box = Grid3D((4, 3, 4)).domain.outer_face(2, 1).intersect(
            Box((0, 2, 0), (4, 3, 5)))
        assert box.shape == (4, 1, 1)
        np.testing.assert_array_equal(bc.values_for_face(2, 1, box),
                                      np.zeros(box.shape))
        assert not hasattr(bc, "values")

    def test_func_values_are_read_only_broadcasts(self):
        bc = DirichletBoundary(func=lambda z, y, x: 2.0 * z + 0 * y + 0 * x)
        out = bc.values_for_face(1, -1, Box((0, -1, 0), (3, 0, 4)))
        assert out.shape == (3, 1, 4) and not out.flags.writeable
        np.testing.assert_array_equal(out[:, 0, 0], [0.0, 2.0, 4.0])

    def test_bad_face_key(self):
        with pytest.raises(ValueError):
            DirichletBoundary(0.0, faces={(3, 1): 1.0})
        with pytest.raises(ValueError):
            DirichletBoundary(0.0, faces={(0, 2): 1.0})


class TestGrid3D:
    def test_domain(self):
        g = Grid3D((3, 4, 5))
        assert g.domain == Box((0, 0, 0), (3, 4, 5))
        assert g.domain.ncells == 60

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Grid3D((0, 4, 4))
        with pytest.raises(ValueError):
            Grid3D((4, 4))

    def test_make_field_scalar(self):
        g = Grid3D((2, 2, 2))
        np.testing.assert_array_equal(g.make_field(3.0), np.full((2, 2, 2), 3.0))

    def test_make_field_callable(self):
        g = Grid3D((2, 3, 4))
        f = g.make_field(lambda z, y, x: z * 100 + y * 10 + x)
        assert f[1, 2, 3] == 123.0
        assert f.shape == (2, 3, 4)

    def test_make_field_array_copy(self):
        g = Grid3D((2, 2, 2))
        src = np.ones((2, 2, 2))
        f = g.make_field(src)
        src[0, 0, 0] = 99
        assert f[0, 0, 0] == 1.0

    def test_make_field_shape_mismatch(self):
        g = Grid3D((2, 2, 2))
        with pytest.raises(ValueError):
            g.make_field(np.ones((3, 3, 3)))

    def test_padded_faces(self):
        bc = DirichletBoundary(0.0, faces={(0, -1): 5.0, (2, 1): -2.0})
        g = Grid3D((3, 3, 3), boundary=bc)
        p = g.padded(np.zeros((3, 3, 3)))
        assert p.shape == (5, 5, 5)
        np.testing.assert_array_equal(p[0, 1:-1, 1:-1], np.full((3, 3), 5.0))
        np.testing.assert_array_equal(p[1:-1, 1:-1, -1], np.full((3, 3), -2.0))
        np.testing.assert_array_equal(p[-1, 1:-1, 1:-1], np.zeros((3, 3)))

    def test_padded_preserves_interior(self):
        g = Grid3D((4, 4, 4))
        f = random_field(g.shape, np.random.default_rng(1))
        p = g.padded(f)
        np.testing.assert_array_equal(p[1:-1, 1:-1, 1:-1], f)

    def test_random_field_range(self):
        f = random_field((4, 4, 4), np.random.default_rng(0), lo=2.0, hi=3.0)
        assert f.min() >= 2.0 and f.max() <= 3.0
