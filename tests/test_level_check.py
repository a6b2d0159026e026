"""The storage's one-pass read check against the per-read checks it replaced.

A validated update tests its region and the outer faces its stencil
offsets reach once (``check_traversal`` / ``check_update``); before, it
checked the region and then each shifted read, seven Box rounds.  The
per-read loop is kept here as the oracle: on generated level states —
both storages, regions clipped at or reaching past every domain face,
any subset of the six offsets, levels and position levels within two of
the read level, ring positions of moving faces included — the new calls
must raise exactly when the per-read sequence raises, with its message.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.core.storage import CompressedStorage, StorageError, TwoGridStorage
from repro.engine import NumbaDeepEngine, get_engine
from repro.grid import Box, DirichletBoundary, Grid3D
from repro.kernels.stencils import AXIS_OFFSETS, StarStencil

BOUNDARIES = {
    "scalar": DirichletBoundary(1.25),
    "func": DirichletBoundary(func=lambda z, y, x: 0.1 * z - 0.2 * y + 0.05 * x),
}


def per_read_checks(storage, region, offsets, level):
    """The check a fused traversal ran per read: the region, then every
    offset's shifted region on the level-checked cells."""
    if region.is_empty:
        return
    if not storage.domain.contains_box(region):
        raise StorageError(f"gather region {region} outside stored domain")
    storage._check_read(region, level)
    for off in offsets:
        cells = region.shift(off).intersect(storage._checked)
        if not cells.is_empty:
            storage._check_read(cells, level)


def outcome(call):
    """``None``, or the message of the :class:`StorageError` raised."""
    try:
        call()
    except StorageError as exc:
        event("raises")
        return str(exc)
    event("passes")
    return None


@st.composite
def level_states(draw):
    """``(storage, region, offsets, level)``: every tracked level at the
    read level ``L`` (the two-grid a mix of ``L`` and ``L + 1``), a few
    cells moved within two of it or to never-written, and a region that
    mostly lies inside the domain, touching any of its faces."""
    shape = tuple(draw(st.integers(1, 5)) for _ in range(3))
    bc = draw(st.sampled_from(sorted(BOUNDARIES)))
    grid = Grid3D(shape, boundary=BOUNDARIES[bc])
    field = np.zeros(shape)
    level = draw(st.integers(2, 9))
    if draw(st.booleans()):
        storage = TwoGridStorage(grid, field)
        ahead = np.random.default_rng(draw(st.integers(0, 2**16))).random(shape)
        storage.levels[...] = level + (ahead < draw(st.sampled_from([0, 0.3, 1])))
        tracked = [storage.levels]
    else:
        bits = draw(st.integers(1, 7))
        vec = (bits >> 2, bits >> 1 & 1, bits & 1)
        storage = CompressedStorage(grid, field, vec, draw(st.integers(1, 4)))
        storage.levels[...] = level
        storage._pos_level[...] = level
        tracked = [storage.levels, storage._pos_level]
    event(f"{type(storage).__name__}, {bc} boundary")
    for _ in range(draw(st.integers(0, 3))):
        arr = tracked[draw(st.integers(0, len(tracked) - 1))]
        cell = tuple(draw(st.integers(0, n - 1)) for n in arr.shape)
        arr[cell] = draw(st.sampled_from([-1, level - 2, level - 1,
                                          level + 1, level + 2]))
    inside = draw(st.integers(0, 3)) > 0
    bounds = []
    for n in shape:
        a = draw(st.integers(0, n - 1) if inside else st.integers(-1, n + 1))
        bounds.append((a, draw(st.integers(a + 1, n) if inside
                               else st.integers(a - 1, n + 1))))
    region = Box(tuple(b[0] for b in bounds), tuple(b[1] for b in bounds))
    offsets = draw(st.lists(st.sampled_from(AXIS_OFFSETS), unique=True))
    return storage, region, offsets, level


class TestAgainstThePerReadChecks:
    @settings(max_examples=400, deadline=None)
    @given(level_states())
    def test_check_traversal(self, case):
        storage, region, offsets, level = case
        assert outcome(lambda: storage.check_traversal(
            region, offsets, level)) == outcome(
            lambda: per_read_checks(storage, region, offsets, level))

    @settings(max_examples=400, deadline=None)
    @given(level_states())
    def test_check_update_is_traversal_then_write(self, case):
        storage, region, offsets, level = case

        def per_read_then_write():
            per_read_checks(storage, region, offsets, level)
            storage.check_write(region, level + 1)
        assert outcome(lambda: storage.check_update(
            region, offsets, level + 1)) == outcome(per_read_then_write)

    @settings(max_examples=150, deadline=None)
    @given(level_states(), st.sampled_from(["numpy", "numba-deep"]))
    def test_engines_raise_what_the_per_read_sequence_raises(self, case, name):
        # numba-deep runs its interpreted loop body where numba is absent
        # and its compiled one where it exists.  The numpy engine walks a
        # compressed region slab by slab, which the per-read sequence of
        # the whole region does not describe, so it runs the two-grid.
        storage, region, offsets, level = case
        if name == "numpy" and isinstance(storage, CompressedStorage):
            name = "numba-deep"
        engine = (get_engine("numpy") if name == "numpy"
                  else object.__new__(NumbaDeepEngine))
        stencil = StarStencil({off: 1.0 + i for i, off in enumerate(offsets)})

        def per_read_then_write():
            per_read_checks(storage, region, offsets, level)
            storage.check_write(region, level + 1)
        want = outcome(per_read_then_write)
        assert outcome(lambda: engine.apply(
            stencil, storage, region, level + 1)) == want


def test_offsets_beyond_radius_one_are_refused():
    grid = Grid3D((4, 4, 4))
    storage = TwoGridStorage(grid, np.zeros(grid.shape))
    storage.check_traversal(grid.domain, [(0, 0, 0)], 0)
    with pytest.raises(ValueError, match="radius-1 axis offset"):
        storage.check_traversal(grid.domain, [(1, 1, 0)], 0)
