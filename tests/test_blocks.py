"""Tests for the shift-aware block decomposition (repro.grid.blocks)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.blocks import BlockDecomposition, block_count
from repro.grid.region import Box, boxes_partition


class TestBlockCount:
    def test_exact_division(self):
        assert block_count(12, 4) == 3

    def test_remainder(self):
        assert block_count(13, 4) == 4

    def test_block_larger_than_extent(self):
        assert block_count(3, 100) == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            block_count(10, 0)


class TestGeometry:
    def make(self, shape=(16, 8, 8), block=(4, 100, 100), max_shift=3):
        return BlockDecomposition(Box.from_shape(shape), block, max_shift)

    def test_tiled_dims_slab(self):
        d = self.make()
        assert d.tiled_dims == (0,)
        assert d.shift_vec == (1, 0, 0)

    def test_tiled_dims_2d(self):
        d = BlockDecomposition(Box.from_shape((16, 16, 8)), (4, 4, 100), 3)
        assert d.tiled_dims == (0, 1)
        assert d.shift_vec == (1, 1, 0)

    def test_extension(self):
        d = self.make(shape=(16, 8, 8), block=(4, 100, 100), max_shift=3)
        # ceil((16+3)/4) = 5 blocks along z, 1 along y/x.
        assert d.extended_counts == (5, 1, 1)
        assert d.base_counts == (4, 1, 1)
        assert d.n_traversal_blocks == 5

    def test_no_extension_without_shift(self):
        d = self.make(max_shift=0)
        assert d.extended_counts == d.base_counts

    def test_block_index_roundtrip(self):
        d = BlockDecomposition(Box.from_shape((8, 8, 8)), (4, 4, 4), 2)
        c = d.extended_counts
        for idx in range(d.n_traversal_blocks):
            k = d.block_index(idx)
            lin = (k[0] * c[1] + k[1]) * c[2] + k[2]
            assert lin == idx
        with pytest.raises(IndexError):
            d.block_index(d.n_traversal_blocks)

    def test_region_clipping(self):
        d = self.make()
        r = d.region(0, 3)
        assert r == Box((0, 0, 0), (1, 8, 8))  # [0-3,4-3) clipped -> [0,1)
        r_last = d.region(4, 3)
        assert r_last == Box((13, 0, 0), (16, 8, 8))

    def test_region_rejects_bad_shift(self):
        d = self.make(max_shift=3)
        with pytest.raises(ValueError):
            d.region(0, 4)
        with pytest.raises(ValueError):
            d.region(0, -1)

    def test_mirror_region(self):
        d = self.make()
        fwd = d.region(0, 0)
        mir = d.region(0, 0, mirror=True)
        assert mir == Box((12, 0, 0), (16, 8, 8))
        assert fwd.ncells == mir.ncells

    def test_block_bytes(self):
        d = BlockDecomposition(Box.from_shape((16, 8, 8)), (4, 8, 8), 0)
        assert d.block_bytes() == 4 * 8 * 8 * 8
        assert d.block_bytes(arrays=2) == 2 * 4 * 8 * 8 * 8

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            BlockDecomposition(Box((0, 0, 0), (0, 0, 0)), (2, 2, 2), 0)


class TestCoverageProperties:
    @given(
        n=st.integers(4, 30),
        b=st.integers(1, 8),
        max_shift=st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_levels_partition_domain_1d(self, n, b, max_shift):
        dom = Box.from_shape((n, 3, 3))
        d = BlockDecomposition(dom, (b, 100, 100), max_shift)
        for shift in range(max_shift + 1):
            regions = d.level_regions(shift)
            assert boxes_partition(regions, dom), (n, b, shift)

    @given(
        nz=st.integers(4, 14),
        ny=st.integers(4, 14),
        bz=st.integers(1, 5),
        by=st.integers(1, 5),
        max_shift=st.integers(0, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_levels_partition_domain_2d(self, nz, ny, bz, by, max_shift):
        dom = Box.from_shape((nz, ny, 3))
        d = BlockDecomposition(dom, (bz, by, 100), max_shift)
        for shift in range(max_shift + 1):
            assert boxes_partition(d.level_regions(shift), dom)

    @given(
        n=st.integers(4, 20),
        b=st.integers(1, 6),
        max_shift=st.integers(0, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_mirror_levels_partition_domain(self, n, b, max_shift):
        dom = Box.from_shape((n, 3, 3))
        d = BlockDecomposition(dom, (b, 100, 100), max_shift)
        for shift in range(max_shift + 1):
            assert boxes_partition(d.level_regions(shift, mirror=True), dom)


# -- the straight version, kept here as the oracle of the row tables ----------

def _straight_region(d: BlockDecomposition, idx: int, shift: int,
                     active: Box, mirror: bool) -> Box:
    """``region()`` as derived per call before the per-axis tables:
    shift the block box, mirror it about the domain centre, clip it."""
    vec = tuple(1 if d.block_size[a] < d.domain.shape[a] else 0
                for a in range(3))
    counts = tuple(block_count(d.domain.shape[a] + vec[a] * d.max_shift,
                               d.block_size[a]) for a in range(3))
    k = (idx // (counts[1] * counts[2]), idx // counts[2] % counts[1],
         idx % counts[2])
    box = d.block_box(k).shift(tuple(-shift * v for v in vec))
    if mirror:
        lo, hi = list(box.lo), list(box.hi)
        for a in range(3):
            if vec[a]:
                span = d.domain.lo[a] + d.domain.hi[a]
                lo[a], hi[a] = span - box.hi[a], span - box.lo[a]
        box = Box(tuple(lo), tuple(hi))
    return box.intersect(active)


@st.composite
def decompositions(draw):
    lo = tuple(draw(st.integers(-4, 5)) for _ in range(3))
    shape = tuple(draw(st.integers(1, 9)) for _ in range(3))
    dom = Box(lo, tuple(lo[a] + shape[a] for a in range(3)))
    # Below, equal to and above the extent: the last two leave an axis
    # untiled, so it takes no shift.
    block = tuple(draw(st.sampled_from(
        sorted({1, 2, 3, max(1, shape[a] - 1), shape[a], shape[a] + 2})))
        for a in range(3))
    return BlockDecomposition(dom, block, draw(st.integers(0, 5)))


class TestRowTablesAgainstStraightVersion:
    @given(d=decompositions(), mirror=st.booleans(), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_region_equals_straight_formula(self, d, mirror, data):
        # Trapezoid-like actives: the domain grown or shrunk per face, far
        # enough to clip regions to empty and to reach past the domain.
        grow = [data.draw(st.integers(-4, 2)) for _ in range(6)]
        active = Box(tuple(d.domain.lo[a] - grow[a] for a in range(3)),
                     tuple(d.domain.hi[a] + grow[3 + a] for a in range(3)))
        for shift in range(d.max_shift + 1):
            for act in (None, active):
                want_act = d.domain if act is None else act
                for idx in range(d.n_traversal_blocks):
                    got = d.region(idx, shift, act, mirror)
                    want = _straight_region(d, idx, shift, want_act, mirror)
                    assert got == want, (d, idx, shift, act, mirror)
                regions = d.level_regions(shift, act, mirror)
                assert all(not r.is_empty for r in regions)
                if not want_act.is_empty:
                    clipped = want_act.intersect(d.domain)
                    assert boxes_partition(
                        [r.intersect(d.domain) for r in regions], clipped)

    def test_region_clipped_to_empty_keeps_the_raw_corners(self):
        # The last drain block at shift 0 lies wholly above the domain and
        # the trapezoid cuts block 0 away: both are "empty" the way
        # Box.intersect leaves them (hi <= lo), not the canonical zero box.
        d = BlockDecomposition(Box.from_shape((8, 8, 8)), (4, 4, 4), 2)
        core = Box((5, 1, 1), (7, 7, 7))
        last = d.n_traversal_blocks - 1
        for idx, act, mirror in ((last, None, False), (last, None, True),
                                 (0, core, False), (last, core, True)):
            got = d.region(idx, 0, act, mirror)
            assert got.is_empty
            assert got == _straight_region(d, idx, 0, act or d.domain, mirror)
        assert d.region(last, 0) == Box((8, 8, 8), (8, 8, 8))

    @given(d=decompositions(), mirror=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_spans_address_the_region_in_a_ring_array(self, d, mirror):
        import numpy as np

        # A ghost-ring array of the domain, every entry its own cell
        # coordinate along the axis: the three slices of a span must
        # read back [lo, hi) displaced by 0 / +1 / -1.
        for shift in range(d.max_shift + 1):
            rows = d.level_rows(shift, None, mirror)
            for axis, row in enumerate(rows):
                coord = np.arange(d.domain.lo[axis] - 1,
                                  d.domain.hi[axis] + 1)
                assert len(row) == d.extended_counts[axis]
                for span in row:
                    assert span.n == max(0, span.hi - span.lo)
                    for off in (0, 1, -1):
                        want = np.arange(span.lo, span.lo + span.n) + off
                        assert np.array_equal(coord[span[off]], want)

    def test_errors_are_the_same_exceptions(self):
        d = BlockDecomposition(Box.from_shape((8, 8, 8)), (4, 4, 4), 3)
        for bad in (-1, 4):
            with pytest.raises(ValueError, match=r"outside \[0, 3\]"):
                d.region(0, bad)
            with pytest.raises(ValueError, match=r"outside \[0, 3\]"):
                d.level_regions(bad)
        for bad in (-1, d.n_traversal_blocks):
            with pytest.raises(IndexError, match="out of range"):
                d.region(bad, 0)
        # A bad shift wins over a bad index, as before.
        with pytest.raises(ValueError):
            d.region(-1, 9)

    def test_derived_geometry_is_fixed_at_construction(self):
        d = BlockDecomposition(Box((2, 0, -1), (12, 3, 5)), (4, 3, 2), 2)
        assert d.extents == (10, 3, 6)
        assert d.tiled_dims == (0, 2) and d.shift_vec == (1, 0, 1)
        assert d.base_counts == (3, 1, 3)
        assert d.extended_counts == (3, 1, 4)
        assert d.n_traversal_blocks == 12 and d.n_base_blocks == 9
        assert d == BlockDecomposition(d.domain, [4, 3, 2], 2)
        assert hash(d) == hash(BlockDecomposition(d.domain, (4, 3, 2), 2))
