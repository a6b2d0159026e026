"""Unit and property tests for the box algebra (repro.grid.region)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.region import Box, boxes_partition


def boxes(max_coord=12):
    """Strategy generating (possibly empty) small boxes."""
    coord = st.integers(-max_coord, max_coord)
    return st.builds(
        lambda a, b: Box(tuple(min(x, y) for x, y in zip(a, b)),
                         tuple(max(x, y) for x, y in zip(a, b))),
        st.tuples(coord, coord, coord),
        st.tuples(coord, coord, coord),
    )


class TestBasics:
    def test_from_shape_and_ncells(self):
        b = Box.from_shape((3, 4, 5))
        assert b.ncells == 60
        assert b.shape == (3, 4, 5)
        assert not b.is_empty

    def test_empty_box(self):
        assert Box((0, 0, 0), (0, 0, 0)).is_empty
        assert Box((0, 0, 0), (0, 0, 0)).ncells == 0
        assert Box((0, 0, 0), (2, 0, 2)).is_empty

    def test_contains_box_empty_always(self):
        assert Box((0, 0, 0), (2, 2, 2)).contains_box(Box((0, 0, 0), (0, 0, 0)))

    def test_shift(self):
        b = Box((0, 0, 0), (2, 2, 2)).shift((1, -1, 0))
        assert b == Box((1, -1, 0), (3, 1, 2))

    def test_grow_and_shrink(self):
        b = Box((2, 2, 2), (4, 4, 4))
        assert b.grow(1) == Box((1, 1, 1), (5, 5, 5))
        assert b.grow(-1).is_empty

    def test_intersect(self):
        a = Box((0, 0, 0), (4, 4, 4))
        b = Box((2, 2, 2), (6, 6, 6))
        assert a.intersect(b) == Box((2, 2, 2), (4, 4, 4))
        assert a.intersect(Box((5, 5, 5), (6, 6, 6))).is_empty

    def test_outer_face(self):
        b = Box((0, 0, 0), (4, 4, 4))
        assert b.outer_face(1, 1) == Box((0, 4, 0), (4, 5, 4))
        assert b.outer_face(2, -1, width=3) == Box((0, 0, -3), (4, 4, 0))
        with pytest.raises(ValueError):
            b.outer_face(0, 2)

    def test_slices_roundtrip(self):
        arr = np.zeros((6, 6, 6))
        b = Box((1, 2, 3), (3, 4, 6))
        arr[b.slices()] = 1.0
        assert arr.sum() == b.ncells

    def test_slices_of_an_inverted_box_are_empty(self):
        arr = np.zeros((6, 6, 6))
        assert arr[Box((4, 0, 0), (1, 6, 6)).slices()].size == 0

    def test_slices_with_offset(self):
        arr = np.zeros((8, 6, 6))
        b = Box((-2, 0, 0), (0, 6, 6))
        arr[b.slices((2, 0, 0))] = 1.0
        assert arr[:2].sum() == b.ncells


class TestAggregates:
    def test_partition(self):
        dom = Box.from_shape((4, 2, 2))
        halves = [Box((0, 0, 0), (2, 2, 2)), Box((2, 0, 0), (4, 2, 2))]
        assert boxes_partition(halves, dom)
        assert not boxes_partition(halves[:1], dom)
        # Overhang outside the domain disqualifies.
        over = [Box((0, 0, 0), (2, 2, 2)), Box((2, 0, 0), (5, 2, 2))]
        assert not boxes_partition(over, dom)
        # An overlap and a hole whose volumes sum to the domain's.
        lap = [Box((0, 0, 0), (2, 2, 2)), Box((1, 0, 0), (3, 2, 2))]
        assert not boxes_partition(lap, dom)


class TestProperties:
    @given(boxes(), st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                              st.integers(-5, 5)))
    @settings(max_examples=100)
    def test_shift_preserves_volume(self, b, vec):
        assert b.shift(vec).ncells == b.ncells

    @given(boxes(), boxes())
    @settings(max_examples=100)
    def test_intersection_commutative_and_bounded(self, a, b):
        i1 = a.intersect(b)
        i2 = b.intersect(a)
        assert i1.ncells == i2.ncells
        assert i1.ncells <= min(a.ncells, b.ncells)
        assert a.contains_box(i1) or i1.is_empty

    @given(boxes())
    @settings(max_examples=100)
    def test_intersect_self_identity(self, b):
        assert b.intersect(b).ncells == b.ncells

    @given(boxes(), st.integers(0, 4))
    @settings(max_examples=100)
    def test_grow_shrink_roundtrip(self, b, k):
        if not b.is_empty:
            assert b.grow(k).grow(-k) == b

    @given(boxes(), boxes(), boxes())
    @settings(max_examples=100)
    def test_intersection_associative(self, a, b, c):
        lhs = a.intersect(b).intersect(c)
        rhs = a.intersect(b.intersect(c))
        assert lhs.ncells == rhs.ncells

    @given(boxes())
    @settings(max_examples=100)
    def test_outer_face_disjoint_from_box(self, b):
        for dim in range(3):
            for side in (-1, 1):
                f = b.outer_face(dim, side)
                assert f.intersect(b).is_empty

    @given(boxes(), st.integers(0, 2), st.sampled_from([-1, 1]),
           st.integers(1, 3))
    @settings(max_examples=100)
    def test_outer_face_adjacent_and_inside_grown_box(self, b, dim, side,
                                                      width):
        if b.is_empty:
            return
        f = b.outer_face(dim, side, width)
        assert b.grow(width).contains_box(f)
        assert f.ncells == width * b.ncells // b.shape[dim]
        back = [0, 0, 0]
        back[dim] = -side
        assert not f.shift(back).intersect(b).is_empty

    @given(boxes(), st.integers(0, 2), st.data())
    @settings(max_examples=100)
    def test_a_split_box_is_partitioned_by_its_halves(self, b, dim, data):
        if b.is_empty or b.shape[dim] < 2:
            return
        cut = data.draw(st.integers(b.lo[dim] + 1, b.hi[dim] - 1))
        hi, lo = list(b.hi), list(b.lo)
        hi[dim], lo[dim] = cut, cut
        left, right = Box(b.lo, tuple(hi)), Box(tuple(lo), b.hi)
        assert boxes_partition([left, right], b)
        step = [0, 0, 0]
        step[dim] = 1
        assert not boxes_partition([left, right.shift(step)], b)
