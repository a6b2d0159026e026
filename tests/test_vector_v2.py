"""``vector-v2``: the per-cell sequence, pinned against a scalar straight version.

The sentence this file implements literally, one cell at a time, from
nothing but :attr:`StarStencil.groups`:

    sum each group's values left to right, multiply the sum by the group
    weight once, add the group products left to right; the first product
    starts the accumulator (no zero seed, no ``w == 1.0`` special case);
    an empty table yields zeros.

Every evaluation the host can run — ``StarStencil.apply``, the numpy
engine on both storages (flat ghost-ring runs and 3-D span slices), the
interpreted numba loop bodies and ``reference_sweeps`` — must agree with
it **bitwise** (``tobytes``: the sign of zero counts, which
``array_equal`` would forgive).  The second half covers what the flat
run adds to the numpy engine: which regions take it, that the ghost ring
is read but never written, and that nothing about it is per-process
state threads could race on; then the compressed grid's ring on every
face — bytes equal to the two-grid layout and the reference across
tilings, passes, boundaries, dtypes and backends, no patched read, margin
positions never read, and a generated differential against the
reference on the shared and threads rails.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import repro
from repro import (BarrierSpec, Grid3D, PipelineConfig, RelaxedSpec,
                   reference_sweeps, run_pipelined, solve)
from repro.analysis import analyze_schedule
from repro.core.executor import ORDERS, PipelineExecutor
from repro.core.storage import CompressedStorage, TwoGridStorage
from repro.engine import (NumbaDeepEngine, NumbaEngine, get_engine,
                          numpy_engine, register_engine, unregister_engine)
from repro.engine.numpy_engine import accumulate_padded
from repro.grid import Box, DirichletBoundary, random_field
from repro.grid.blocks import axis_row, box_spans
from repro.kernels import (AXIS_OFFSETS, StarStencil, anisotropic_jacobi,
                           jacobi5_2d, jacobi7)

SIXTH = 1.0 / 6.0


def _linear(z, y, x):       # module level: procmpi ranks unpickle it
    return 0.1 * z + 0.2 * y - 0.05 * x


LINEAR = DirichletBoundary(func=_linear)


# ---------------------------------------------------------------------------
# The straight version
# ---------------------------------------------------------------------------

def _value(cur, z, y, x, off):
    return cur[1 + z + off[0], 1 + y + off[1], 1 + x + off[2]]


def straight_cell(groups, value, dtype):
    acc = None
    for w, offs in groups:
        total = value(offs[0])
        for off in offs[1:]:
            total = total + value(off)
        product = total * dtype.type(w)
        acc = product if acc is None else acc + product
    return dtype.type(0.0) if acc is None else acc


def straight_region(stencil, cur, nxt, lo, hi):
    """One update of interior cells ``[lo, hi)`` of a padded pair."""
    for z in range(lo[0], hi[0]):
        for y in range(lo[1], hi[1]):
            for x in range(lo[2], hi[2]):
                nxt[1 + z, 1 + y, 1 + x] = straight_cell(
                    stencil.groups, partial(_value, cur, z, y, x), cur.dtype)


def straight_sweeps(stencil, grid, field, sweeps):
    cur = grid.padded(field)
    for _ in range(sweeps):
        nxt = cur.copy()
        straight_region(stencil, cur, nxt, (0, 0, 0), grid.shape)
        cur = nxt
    return cur[1:-1, 1:-1, 1:-1].copy()


def assert_same_bits(got, want, what=""):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


# ---------------------------------------------------------------------------
# The table itself
# ---------------------------------------------------------------------------

def _star(weights, center=0.0):
    return StarStencil(weights=dict(zip(AXIS_OFFSETS, weights)),
                       center_weight=center)


class TestGroups:
    def test_jacobi_is_one_group_of_six(self):
        assert jacobi7().groups == ((SIXTH, AXIS_OFFSETS),)

    def test_distinct_centre_is_its_own_last_group(self):
        assert jacobi7().damped(0.5).groups == (
            (SIXTH * 0.5, AXIS_OFFSETS), (0.5, ((0, 0, 0),)))

    def test_centre_joins_the_group_of_an_equal_neighbour_weight(self):
        s = _star([0.25, 0.5, 0.25, 0.5, 0.125, 0.125], center=0.5)
        assert s.groups == (
            (0.25, (AXIS_OFFSETS[0], AXIS_OFFSETS[2])),
            (0.5, (AXIS_OFFSETS[1], AXIS_OFFSETS[3], (0, 0, 0))),
            (0.125, (AXIS_OFFSETS[4], AXIS_OFFSETS[5])),
        )

    def test_all_distinct_weights_keep_canonical_order(self):
        s = _star([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], center=7.0)
        assert [w for w, _ in s.groups] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        assert [offs for _, offs in s.groups] == \
            [(off,) for off in AXIS_OFFSETS + ((0, 0, 0),)]

    def test_zero_weights_of_either_sign_have_no_term(self):
        s = _star([0.0, -0.0, 1.0, 1.0, 0.0, 0.5], center=-0.0)
        assert s.groups == ((1.0, AXIS_OFFSETS[2:4]), (0.5, AXIS_OFFSETS[5:]))
        assert StarStencil(weights={}).groups == ()

    def test_every_reader_shares_the_one_table(self):
        # Term order and grouping are decided in exactly one place.
        s = anisotropic_jacobi(1.0, 2.0, 0.5)
        assert s.groups is s.groups
        flat = [(off, w) for w, offs in s.groups for off in offs]
        assert sorted(flat) == sorted(s.terms)


# ---------------------------------------------------------------------------
# The differential
# ---------------------------------------------------------------------------

NAMED = [
    jacobi7(), jacobi5_2d(), anisotropic_jacobi(1.0, 2.0, 0.5),
    jacobi7().damped(0.7), jacobi7().damped(0.5),
    _star([0.25, 0.5, 0.25, 0.5, 0.125, 0.125], center=0.5),
    _star([1.0] * 6), _star([1.0] * 6, center=1.0),
    _star([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], center=-7.0),
    _star([0.3, -0.3, 0.3, -0.3, 0.3, -0.3], center=0.3),
    StarStencil(weights={(0, 0, 1): -1.0}),
    StarStencil(weights={}, center_weight=1.0),
    StarStencil(weights={}),
]
POOL = [1.0, 0.5, SIXTH, -0.25, 0.1, 3.0, 1.0 / 3.0, 0.0]
weight = st.one_of(st.sampled_from(POOL),
                   st.floats(-4.0, 4.0, allow_nan=False, width=32))


@st.composite
def stencils(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(NAMED))
    offs = draw(st.lists(st.sampled_from(AXIS_OFFSETS), unique=True))
    return StarStencil(weights={off: draw(weight) for off in offs},
                       center_weight=draw(weight))


@st.composite
def problems(draw, max_side=4):
    dtype = np.dtype(draw(st.sampled_from([np.float64, np.float32])))
    shape = tuple(draw(st.integers(1, max_side)) for _ in range(3))
    boundary = draw(st.sampled_from([
        DirichletBoundary(-0.0), DirichletBoundary(0.25),
        DirichletBoundary(faces={(0, -1): 1.0, (2, 1): -0.0, (1, 1): -2.0}),
        LINEAR,
    ]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    field = rng.uniform(-2.0, 2.0, shape)
    kind = rng.integers(0, 4, shape)
    field[kind == 0] = -0.0
    field[kind == 1] = 0.0
    return Grid3D(shape, boundary=boundary, dtype=dtype), field.astype(dtype)


def _apply_sweeps(stencil, grid, field, sweeps):
    """``StarStencil.apply`` on padded slices, nothing else."""
    cur = grid.padded(field)
    inner = (slice(1, -1),) * 3
    for _ in range(sweeps):
        nxt = cur.copy()
        nxt[inner] = stencil.apply(cur[inner], [
            cur[tuple(slice(1 + o, n - 1 + o) for o, n in zip(off, cur.shape))]
            for off in stencil.offsets])
        cur = nxt
    return cur[inner].copy()


def _storages(grid, field):
    yield "twogrid", TwoGridStorage(grid, field)
    yield "compressed", CompressedStorage(grid, field, (1, 0, 0), 1)


def _interpreted(cls):
    """A numba engine around its loop bodies; compiled where numba exists."""
    return object.__new__(cls)


class TestStraightVersion:
    @settings(max_examples=200, deadline=None)
    @given(stencils(), problems(), st.integers(1, 3))
    def test_apply_and_reference_sweeps(self, stencil, problem, sweeps):
        grid, field = problem
        want = straight_sweeps(stencil, grid, field, sweeps)
        assert_same_bits(_apply_sweeps(stencil, grid, field, sweeps), want,
                         "StarStencil.apply")
        assert_same_bits(reference_sweeps(grid, field, sweeps, stencil), want,
                         "reference_sweeps")

    @settings(max_examples=150, deadline=None)
    @given(stencils(), problems())
    def test_engines_on_both_storages(self, stencil, problem):
        grid, field = problem
        want = straight_sweeps(stencil, grid, field, 1)
        engines = {"numpy": get_engine("numpy"),
                   "numba": _interpreted(NumbaEngine),
                   "numba-deep": _interpreted(NumbaDeepEngine)}
        for name, engine in engines.items():
            for kind, storage in _storages(grid, field):
                engine.apply(stencil, storage, grid.domain, 1)
                assert_same_bits(storage.extract(1), want, f"{name}/{kind}")
            src = grid.padded(field)
            dst = src.copy()
            engine.apply_padded(stencil, src, dst, (0, 0, 0), grid.shape)
            assert_same_bits(dst[1:-1, 1:-1, 1:-1], want, f"{name}/padded")

    @settings(max_examples=100, deadline=None)
    @given(stencils(), problems(max_side=6),
           st.sampled_from(["twogrid", "compressed"]),
           st.sampled_from([(2, 99, 99), (2, 3, 99), (99, 2, 2), (1, 2, 3)]))
    def test_pipelined_solves(self, stencil, problem, storage, block):
        # Tiled in z only (flat runs, trapezoid-free), in y/x (3-D span
        # slices) and in all three; two stages, shifted regions.
        grid, field = problem
        # The compressed grid shifts along tiled axes; it needs one.
        assume(storage == "twogrid"
               or any(b < n for b, n in zip(block, grid.shape)))
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=1, block_size=block,
                             sync=RelaxedSpec(1, 2), storage=storage)
        got = solve(grid, field, cfg, stencil=stencil)
        assert_same_bits(got.field, straight_sweeps(
            stencil, grid, field, cfg.total_updates))

    def test_sign_of_zero_is_what_the_straight_version_says(self):
        # A zero-seeded accumulator would turn every -0.0 into +0.0.
        grid = Grid3D((2, 2, 2), boundary=DirichletBoundary(-0.0))
        field = np.full(grid.shape, -0.0)
        got = reference_sweeps(grid, field, 1)
        assert np.signbit(got).all()
        assert_same_bits(got, straight_sweeps(jacobi7(), grid, field, 1))
        assert not np.signbit(reference_sweeps(
            grid, field, 1, StarStencil(weights={}))).any()


# ---------------------------------------------------------------------------
# The flat run
# ---------------------------------------------------------------------------

def _run_over_cells(shape, first, last):
    """Flat-run length from cell ``first`` to cell ``last`` (inclusive) of
    a C-ordered array of ``shape``, over the cells of the box they span."""
    run = (np.ravel_multi_index(last, shape)
           - np.ravel_multi_index(first, shape) + 1)
    return run / np.prod([b - a + 1 for a, b in zip(first, last)])


def _rule_path(src, dst, spans):
    """The slab routine the cost rule picks for a ring-pair region."""
    sz, sy, sx = spans
    t = min(sz.n, max(1, numpy_engine.SLAB_BYTES
                      // (sy.n * sx.n * dst.itemsize)))
    first = (sz.zero.start, sy.zero.start, sx.zero.start)
    last = (sz.zero.start + t - 1, sy.zero.stop - 1, sx.zero.stop - 1)
    flat = (src.flags.c_contiguous and _run_over_cells(src.shape, first, last)
            <= numpy_engine.FLAT_RUN_MAX)
    return "_slab_run" if flat else "_slab_views"


@pytest.fixture
def paths(monkeypatch):
    """Which slab routine ran, and on how many planes: ``[(name, nz)]``.

    Every ring-pair region is also held to the cost rule, recomputed
    here from flat indices: a slab that took the other routine fails.
    """
    seen = []
    region = threading.local()

    def spy(name, planes):
        inner = getattr(numpy_engine, name)

        def wrapper(*args):
            seen.append((name, planes(*args)))
            assert getattr(region, "path", name) == name, "not the rule's path"
            inner(*args)
        monkeypatch.setattr(numpy_engine, name, wrapper)

    ring = numpy_engine._accumulate_ring

    def ring_spy(groups, src, dst, spans):
        region.path = _rule_path(src, dst, spans)
        try:
            ring(groups, src, dst, spans)
        finally:
            del region.path

    monkeypatch.setattr(numpy_engine, "_accumulate_ring", ring_spy)
    spy("_slab_run", lambda groups, src, first, out: out.shape[0])
    spy("_slab_views", lambda groups, src, dst, sz, sy, sx: sz.n)
    return seen


def _padded_case(shape=(5, 6, 7), seed=3):
    grid = Grid3D(shape, boundary=LINEAR)
    return grid, grid.padded(random_field(shape, np.random.default_rng(seed)))


#: Wide enough that a full region's run is ≤ 1.37 times its cells; full
#: 6×7 planes read 1.24 alone but 1.56–1.62 three to five at a time.
WIDE = (5, 10, 11)


STENCIL = anisotropic_jacobi(1.0, 2.0, 0.5).damped(0.8)


def _check_region(src, lo, hi, paths, expect, dst=None):
    dst = np.full(src.shape, 7.5) if dst is None else dst
    before = dst.copy()
    want = before.copy()
    straight_region(STENCIL, src, want, lo, hi)
    accumulate_padded(STENCIL, src, dst, lo, hi)
    assert_same_bits(np.ascontiguousarray(dst), want)
    assert {name for name, _ in paths} == {expect}


class TestFlatRun:
    def test_full_width_regions_run_flat(self, paths):
        _, src = _padded_case(WIDE)
        _check_region(src, (1, 0, 0), (4, 10, 11), paths, "_slab_run")

    @pytest.mark.parametrize("lo, hi", [
        ((0, 1, 0), (5, 6, 7)), ((0, 0, 0), (5, 5, 7)),
        ((0, 0, 1), (5, 6, 7)), ((0, 0, 0), (5, 6, 6)),
    ], ids=["y-lo", "y-hi", "x-lo", "x-hi"])
    def test_one_cell_short_takes_the_span_slices(self, paths, lo, hi):
        _, src = _padded_case()
        _check_region(src, lo, hi, paths, "_slab_views")

    @pytest.mark.parametrize("shape", [(1, 6, 7), (6, 1, 7), (6, 7, 1),
                                       (1, 1, 1)])
    @pytest.mark.parametrize("storage, block", [
        ("twogrid", (2, 99, 99)), ("compressed", (2, 3, 99))])
    def test_one_cell_axes(self, paths, shape, storage, block):
        if storage == "compressed" and shape == (1, 1, 1):
            pytest.skip("the compressed grid needs a tiled axis to shift on")
        grid, src = _padded_case(shape)
        # One plane reads 1.0 / 1.24 and runs flat; six planes of one
        # row or one column read 3.4 / 3.7, mostly ring, and do not.
        _check_region(src, (0, 0, 0), shape, paths,
                      "_slab_run" if shape[0] == 1 else "_slab_views")
        field = src[1:-1, 1:-1, 1:-1].copy()
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=1, block_size=block,
                             sync=RelaxedSpec(1, 2), storage=storage)
        assert_same_bits(solve(grid, field, cfg, stencil=STENCIL).field,
                         straight_sweeps(STENCIL, grid, field, 2))

    def test_short_last_slab(self, paths, monkeypatch):
        # The slab is sized on interior cells: two 6x7 planes, so five
        # planes split 2 + 2 + 1 — the padded row count must not shrink it.
        monkeypatch.setattr(numpy_engine, "SLAB_BYTES", 2 * 6 * 7 * 8)
        _, src = _padded_case()
        _check_region(src, (0, 0, 0), (5, 6, 7), paths, "_slab_run")
        assert paths == [("_slab_run", 2), ("_slab_run", 2), ("_slab_run", 1)]

    @pytest.mark.parametrize("make", [
        np.asfortranarray,
        lambda a: np.repeat(a, 2, axis=2)[:, :, ::2],
        lambda a: a.transpose(2, 1, 0).copy().transpose(2, 1, 0),
    ], ids=["fortran", "strided", "transposed"])
    def test_non_contiguous_source_is_never_evaluated_as_a_copy(self, paths,
                                                                make):
        _, base = _padded_case()
        src = make(base)
        assert not src.flags.c_contiguous and np.array_equal(src, base)
        _check_region(src, (0, 0, 0), (5, 6, 7), paths, "_slab_views")
        assert np.array_equal(src, base)

    def test_non_contiguous_destination_still_runs_flat(self, paths):
        _, src = _padded_case(WIDE)
        dst = np.asfortranarray(np.full(src.shape, 7.5))
        _check_region(src, (0, 0, 0), WIDE, paths, "_slab_run", dst)

    @pytest.mark.parametrize("block", [(2, 99, 99), (2, 3, 4)])
    def test_ghost_ring_is_read_but_never_written(self, paths, block):
        # NaN edges and corners: the run's ghost columns read them into
        # values nobody keeps, silently — and both rings stay as filled.
        # 9×10 planes: two-plane full slabs read 1.32 and run flat.
        grid = Grid3D((6, 9, 10), boundary=LINEAR)
        field = random_field(grid.shape, np.random.default_rng(4))
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=2, block_size=block,
                             sync=RelaxedSpec(1, 2), passes=2)
        ex = PipelineExecutor(grid, field, cfg, STENCIL)
        ring = np.ones(ex.storage.ring_array(0).shape, bool)
        ring[1:-1, 1:-1, 1:-1] = False
        faces = np.zeros_like(ring)
        for axis in range(3):
            sl = [slice(1, -1)] * 3
            sl[axis] = slice(None)
            faces[tuple(sl)] = True
        for level in (0, 1):
            ex.storage.ring_array(level)[ring & ~faces] = np.nan

        def ring_hash():
            return [hashlib.sha256(ex.storage.ring_array(level)[ring]
                                   .tobytes()).hexdigest()
                    for level in (0, 1)]

        before = ring_hash()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in range(cfg.passes):   # run() would consume the rings
                ex.run_pass(p)
        got = ex.storage.extract(cfg.total_updates)
        assert ring_hash() == before
        assert_same_bits(got, straight_sweeps(STENCIL, grid, field,
                                              cfg.total_updates))
        # Full regions run flat; 3×4 blocks take span slices, except the
        # one-row (run/cells 1.0) regions the shift clips off their edges.
        assert {name for name, _ in paths} == (
            {"_slab_run"} if block[1] == 99 else {"_slab_run", "_slab_views"})

    @pytest.mark.parametrize("backend", ["simmpi", "procmpi"])
    @pytest.mark.parametrize("topology, expect", [
        ((2, 1, 1), "_slab_run"), ((1, 1, 2), "_slab_views")])
    def test_trapezoid_regions(self, paths, backend, topology, expect):
        # Cut in z the shrinking active boxes stay full in y and x and
        # run flat.  Cut in x they are clipped there: at 6..10 of a
        # rank's 12 padded columns some cross the rule and take the span
        # slices, each region the rule's path (the fixture checks).
        grid = Grid3D((12, 6, 12), boundary=LINEAR)
        field = random_field(grid.shape, np.random.default_rng(5))
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=2, block_size=(3, 99, 99),
                             sync=RelaxedSpec(1, 2), passes=2)
        got = solve(grid, field, cfg, stencil=STENCIL, topology=topology,
                    backend=backend)
        assert_same_bits(got.field, straight_sweeps(STENCIL, grid, field,
                                                    cfg.total_updates))
        if backend == "simmpi":         # procmpi ranks are other processes
            assert {name for name, _ in paths} == (
                {expect} if topology[0] == 2 else {"_slab_run", expect})

    @pytest.mark.parametrize("validate", [False, True])
    def test_x_split_trapezoids_run_flat(self, paths, validate):
        # dist-halo's geometry scaled down: full y, 16–18 of a rank's 20
        # padded columns, run/cells 1.16–1.31.  Every region runs flat.
        grid = Grid3D((16, 32, 32), boundary=LINEAR)
        field = random_field(grid.shape, np.random.default_rng(12))
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=1, block_size=(4, 99, 99),
                             sync=RelaxedSpec(1, 2), passes=3)
        got = solve(grid, field, cfg, stencil=STENCIL, topology=(1, 1, 2),
                    backend="simmpi", validate=validate)
        assert_same_bits(got.field, reference_sweeps(
            grid, field, cfg.total_updates, STENCIL))
        assert {name for name, _ in paths} == {"_slab_run"}


#: A 10×12 ring-pair plane (12×14 padded) and regions around the constant.
RULE_DOMAIN = (3, 10, 12)


class TestCostRule:
    @pytest.mark.parametrize("lo, hi, slab_planes, limit, ratio, want", [
        # One plane, 9 of 12 columns: the run is exactly 1.5 its cells.
        ((1, 0, 0), (2, 10, 9), 1, 1.5, 1.5, [("_slab_run", 1)]),
        ((1, 0, 3), (2, 10, 12), 1, 1.5, 1.5, [("_slab_run", 1)]),
        # One plane, 8 columns: 1.675.
        ((1, 0, 2), (2, 10, 10), 1, 1.5, 1.675, [("_slab_views", 1)]),
        # 10 columns: 1.36 a plane at a time, 1.52 two at a time — the
        # first slab decides for the region, whose last slab is one plane.
        ((0, 0, 2), (3, 10, 12), 1, 1.5, 1.36, [("_slab_run", 1)] * 3),
        ((0, 0, 1), (3, 10, 11), 2, 1.5, 1.52,
         [("_slab_views", 2), ("_slab_views", 1)]),
        # The same region once the constant allows 1.52.
        ((0, 0, 1), (3, 10, 11), 2, 1.55, 1.52,
         [("_slab_run", 2), ("_slab_run", 1)]),
    ], ids=["at-lo", "at-hi", "above", "below-thin-slabs", "above-thick-slab",
            "raised-constant"])
    def test_regions_at_the_constant(self, paths, monkeypatch, lo, hi,
                                     slab_planes, limit, ratio, want):
        _, src = _padded_case(RULE_DOMAIN)
        plane = (hi[1] - lo[1]) * (hi[2] - lo[2]) * src.itemsize
        monkeypatch.setattr(numpy_engine, "SLAB_BYTES", slab_planes * plane)
        monkeypatch.setattr(numpy_engine, "FLAT_RUN_MAX", limit)
        first = tuple(a + 1 for a in lo)
        last = (lo[0] + slab_planes, hi[1], hi[2])
        assert _run_over_cells(src.shape, first, last) == pytest.approx(
            ratio, abs=5e-3)
        _check_region(src, lo, hi, paths, want[0][0])
        assert paths == want

    @settings(max_examples=300, deadline=None)
    @given(stencil=stencils(), data=st.data())
    def test_any_ring_region_matches_the_straight_version(self, stencil,
                                                          data):
        # Random ring shapes (one-cell axes too), random sub-boxes, random
        # slab sizes and memory orders: the engine's region update equals
        # the straight version's, and nothing else of dst or src moves.
        shape = tuple(data.draw(st.integers(1, 8)) for _ in range(3))
        lo = tuple(data.draw(st.integers(0, n - 1)) for n in shape)
        hi = tuple(data.draw(st.integers(a + 1, n)) for a, n in zip(lo, shape))
        dtype = np.dtype(data.draw(st.sampled_from([np.float64, np.float32])))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        ring = tuple(n + 2 for n in shape)
        src, dst = (np.asarray(rng.uniform(-2.0, 2.0, ring), dtype=dtype,
                               order=data.draw(st.sampled_from("CF")))
                    for _ in range(2))
        before = src.copy()
        want = dst.copy()
        straight_region(stencil, src, want, lo, hi)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numpy_engine, "SLAB_BYTES",
                       data.draw(st.integers(1, 4096)))
            event(_rule_path(src, dst, box_spans(Box.make(lo, hi),
                                                 Box.from_shape(shape))))
            accumulate_padded(stencil, src, dst, lo, hi)
        assert_same_bits(dst, want)
        assert_same_bits(src, before)


#: +inf on the low x face, -inf on the high one: a flat run's discarded
#: lanes add them (row end + next row's start) long before a kept cell
#: could — twelve columns keep them apart for five sweeps.
INF_FACES = DirichletBoundary(faces={(2, -1): np.inf, (2, 1): -np.inf})


class TestFloatingPointSilence:
    @pytest.mark.parametrize("rail", ["reference", "shared", "threads",
                                      "simmpi"])
    def test_discarded_lanes_raise_nothing(self, paths, rail):
        # Split in x, a rank's trapezoids run flat at 12–13 columns of
        # 16 padded ones (6–7 of 10 would not).
        grid = Grid3D((12, 12, 24 if rail == "simmpi" else 12),
                      boundary=INF_FACES)
        field = random_field(grid.shape, np.random.default_rng(14))
        with np.errstate(all="ignore"):
            want = _apply_sweeps(jacobi7(), grid, field, 2)
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=1, block_size=(4, 12, 12),
                             sync=RelaxedSpec(1, 2))
        # Stage and rank threads keep numpy's default error state, so a
        # warning there is made an error by the filter instead.
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            if rail == "reference":
                got = reference_sweeps(grid, field, 2)
            else:
                got = solve(grid, field, cfg, validate=False, backend=rail,
                            topology=(1, 1, 2) if rail == "simmpi"
                            else None).field
        assert_same_bits(got, want)
        assert "_slab_run" in {name for name, _ in paths}


class TestThreads:
    def test_hammer_through_the_flat_path(self, paths):
        # tests/test_row_memo.py's hammer, aimed at the engine: 8 threads
        # at a 1 us switch interval, every one driving full-width regions
        # of its own problem through the one registered engine from a
        # cold row memo.  Scratch is per thread; nothing else is shared.
        # 9–10 × 10 planes: two-plane slabs read ≤ 1.32 and run flat.
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=2, block_size=(2, 99, 99),
                             sync=RelaxedSpec(1, 2), passes=2)
        n_threads = 8
        shapes = [(6 + i % 3, 9 + i % 2, 10) for i in range(n_threads)]
        fields = [random_field(s, np.random.default_rng(20 + i))
                  for i, s in enumerate(shapes)]
        want = [reference_sweeps(Grid3D(s), f, cfg.total_updates)
                for s, f in zip(shapes, fields)]
        start = threading.Barrier(n_threads)
        wrong = []

        def body(i):
            start.wait(timeout=30)
            for run in range(10):
                got = repro.solve(Grid3D(shapes[i]), fields[i], cfg).field
                if got.tobytes() != want[i].tobytes():
                    wrong.append((i, run))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            axis_row.cache_clear()
            threads = [threading.Thread(target=body, args=(i,), daemon=True)
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        assert {name for name, _ in paths} == {"_slab_run"}

    def test_threads_backend_through_the_flat_path(self, paths):
        grid = Grid3D((16, 12, 13))
        field = random_field(grid.shape, np.random.default_rng(6))
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=2, block_size=(4, 99, 99),
                             sync=RelaxedSpec(1, 2), passes=2)
        want = reference_sweeps(grid, field, cfg.total_updates)
        for _ in range(5):
            got = solve(grid, field, cfg, backend="threads")
            assert_same_bits(got.field, want)
        assert {name for name, _ in paths} == {"_slab_run"}

    def test_hammer_flat_runs_over_cells_another_stage_writes(self, paths,
                                                               monkeypatch):
        # Tiled on all three axes, (4, 22, 22) regions are not full yet
        # run flat (run/cells 1.34): their discarded lanes are interior
        # cells of the neighbouring blocks, which the other stage thread
        # may be writing right then.  Only kept cells may reach dst.
        grid = Grid3D((24, 24, 24), boundary=LINEAR)
        field = random_field(grid.shape, np.random.default_rng(15))
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=2, block_size=(4, 22, 22),
                             sync=RelaxedSpec(1, 2), passes=2)
        want = reference_sweeps(grid, field, cfg.total_updates, STENCIL)
        widths = []
        slab_run = numpy_engine._slab_run

        def spy(groups, src, first, out):
            widths.append(out.shape[1:])
            slab_run(groups, src, first, out)
        monkeypatch.setattr(numpy_engine, "_slab_run", spy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                got = solve(grid, field, cfg, stencil=STENCIL,
                            backend="threads", validate=True)
                assert_same_bits(got.field, want)
        finally:
            sys.setswitchinterval(interval)
        assert any(w != grid.shape[1:] and min(w) > 1 for w in widths)
        assert "_slab_views" in {name for name, _ in paths}


# ---------------------------------------------------------------------------
# The compressed grid: a ring on every face, flat runs at full width
# ---------------------------------------------------------------------------

RING_BCS = {
    "scalar": DirichletBoundary(0.25),
    "faces": DirichletBoundary(0.5, faces={(0, -1): 1.0, (1, 1): -0.0,
                                           (2, -1): -2.0}),
    "func": LINEAR,     # varies along z, where the positions move
}
#: ``(shape, block)``: tiled in z only (full-width slabs run flat), in y
#: or x only (views), in z and y (views), and one-cell y / x axes under
#: z tiling.
RING_CASES = {
    "z-flat": ((12, 5, 6), (5, 99, 99)),
    "y-views": ((6, 11, 5), (99, 4, 99)),
    "x-views": ((6, 5, 11), (99, 99, 4)),
    "zy": ((9, 7, 6), (4, 3, 99)),
    "one-cell-y": ((12, 1, 6), (5, 99, 99)),
    "one-cell-x": ((12, 6, 1), (5, 99, 99)),
}
#: Two planes of the z-flat case: five-plane regions walk 2 + 2 + 1.
RING_SLAB_BYTES = 2 * 5 * 6 * 8


def _ring_cfg(block, storage, passes, engine="numpy"):
    return PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=1,
                          block_size=block, sync=RelaxedSpec(1, 2),
                          storage=storage, passes=passes, engine=engine)


@pytest.fixture
def compressed_reads(monkeypatch):
    """Per compressed region update: ``[full width, slab reads, copies]``;
    a slab read is one offset's source of a slab not run flat."""
    regions = []
    current = threading.local()
    accumulate = numpy_engine._accumulate_inplace
    shifted = numpy_engine._shifted

    def accumulate_spy(stencil, storage, region, level):
        full = (region.lo[1:] == (0, 0)
                and region.hi[1:] == storage.grid.shape[1:])
        current.entry = [full, 0, 0]
        regions.append(current.entry)
        accumulate(stencil, storage, region, level)

    def shifted_spy(src, at, off):
        out = shifted(src, at, off)
        current.entry[1] += 1
        if not np.may_share_memory(out, src):
            current.entry[2] += 1
        return out
    monkeypatch.setattr(numpy_engine, "_accumulate_inplace", accumulate_spy)
    monkeypatch.setattr(numpy_engine, "_shifted", shifted_spy)
    return regions


class TestCompressedRing:
    @pytest.mark.parametrize("bc", sorted(RING_BCS))
    @pytest.mark.parametrize("passes", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(RING_CASES))
    def test_bits_equal_twogrid_and_reference(self, paths, compressed_reads,
                                              monkeypatch, case, passes, bc):
        shape, block = RING_CASES[case]
        monkeypatch.setattr(numpy_engine, "SLAB_BYTES", RING_SLAB_BYTES)
        for dtype, validate, backend in (
                (np.float64, True, "shared"), (np.float32, False, "shared"),
                (np.float64, False, "threads"), (np.float32, True, "threads")):
            grid = Grid3D(shape, boundary=RING_BCS[bc], dtype=dtype)
            field = random_field(shape, np.random.default_rng(7)).astype(dtype)
            want = reference_sweeps(grid, field, 2 * passes, STENCIL)
            for storage in ("twogrid", "compressed"):
                paths.clear()
                seen = len(compressed_reads)
                got = solve(grid, field, _ring_cfg(block, storage, passes),
                            stencil=STENCIL, validate=validate,
                            backend=backend)
                assert_same_bits(got.field, want, f"{storage}/{backend}")
            # The compressed solve runs flat iff a region spans y and x in
            # full: every one of a z-slab tiling, and a run of zy blocks
            # that covers a whole y row.
            ran_flat = "_slab_run" in {name for name, _ in paths}
            full = [f for f, _reads, _copies in compressed_reads[seen:]]
            assert ran_flat == any(full)
            if block[1:] == (99, 99):
                assert all(full)
        # The ring is stored on every face, func included: no read is
        # ever patched, and every full-width region runs flat throughout.
        assert compressed_reads
        for full, reads, copies in compressed_reads:
            assert copies == 0
            assert (reads == 0) == full

    @pytest.mark.parametrize("case", ["z-flat", "y-views", "zy"])
    def test_margin_positions_are_never_read(self, monkeypatch, case):
        # -inf in every position level 0 left unwritten (margins, and
        # the moving ring's cells of later levels, which their commit
        # stores before any read), +inf / NaN in the corners of the
        # fixed ring (which the flat runs' ghost columns read): a read
        # of either would change bits or, against a +inf, warn.
        shape, block = RING_CASES[case]
        monkeypatch.setattr(numpy_engine, "SLAB_BYTES", RING_SLAB_BYTES)
        grid = Grid3D(shape, boundary=RING_BCS["faces"])
        field = random_field(shape, np.random.default_rng(8))
        cfg = _ring_cfg(block, "compressed", 3)
        ex = PipelineExecutor(grid, field, cfg, STENCIL)
        arr, origin = ex.storage.raw_read_array(0)
        on_ring = np.zeros(arr.shape, np.int64)
        for axis in np.flatnonzero(np.equal(ex.storage.shift_vec, 0)):
            for at in (0, -1):
                on_ring[(slice(None),) * axis + (at,)] += 1
        arr[np.isnan(arr)] = -np.inf
        corners = np.flatnonzero(on_ring > 1)
        arr.reshape(-1)[corners[::2]] = np.nan
        arr.reshape(-1)[corners[1::2]] = np.inf
        ring = arr[on_ring > 0].tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in range(cfg.passes):   # run() would consume the array
                ex.run_pass(p)
        got = ex.storage.extract(cfg.total_updates)
        assert arr[on_ring > 0].tobytes() == ring
        assert_same_bits(got, reference_sweeps(grid, field, cfg.total_updates,
                                               STENCIL))

    @pytest.mark.parametrize("bc", ["scalar", "func"])
    def test_validated_slabs_catch_a_clobbered_read(self, monkeypatch, bc):
        # Cells 6.. advanced first: cell 6's level-1 value now sits where
        # cell 5's level-0 value lived.  The slab reading it — a flat one
        # under the ring, a gathered one without — computes other bytes
        # than the legal order does (named for the level check they
        # replaced).
        monkeypatch.setattr(numpy_engine, "SLAB_BYTES", RING_SLAB_BYTES)
        grid = Grid3D((12, 5, 6), boundary=RING_BCS[bc])
        field = random_field(grid.shape, np.random.default_rng(1))
        engine = get_engine("numpy")
        lower, upper = Box((0, 0, 0), (6, 5, 6)), Box((6, 0, 0), (12, 5, 6))

        def lower_after(*regions):
            storage = CompressedStorage(grid, field, (1, 0, 0), 4)
            for region in regions:
                engine.apply(STENCIL, storage, region, 1)
            return storage.extract_region(lower, 1)

        legal = lower_after(lower, upper)
        assert_same_bits(legal, reference_sweeps(
            grid, field, 1, STENCIL)[lower.slices()])
        assert lower_after(upper, lower).tobytes() != legal.tobytes()

    @pytest.mark.parametrize("bc", ["faces", "func"])
    def test_numba_deep_reads_the_ringed_layout(self, deep_engine, bc):
        shape, block = RING_CASES["z-flat"]
        grid = Grid3D(shape, boundary=RING_BCS[bc])
        field = random_field(shape, np.random.default_rng(9))
        cfg = _ring_cfg(block, "compressed", 2, engine="numba-deep")
        assert_same_bits(solve(grid, field, cfg, stencil=STENCIL).field,
                         reference_sweeps(grid, field, 4, STENCIL))


_FACES = [(d, side) for d in range(3) for side in (-1, 1)]


@st.composite
def compressed_cases(draw):
    """A compressed solve: shape (1-cell axes too), blocks on every axis
    (dividing or not), ``n, t, T``, passes, interleaver order, a legal
    sync and a scalar, per-face (``-0.0`` included) or ``func`` boundary
    that varies along every axis."""
    shape = tuple(draw(st.integers(1, 9)) for _ in range(3))
    block = tuple(draw(st.integers(1, n + 1)) for n in shape)
    assume(any(b < n for b, n in zip(block, shape)))  # an axis to shift
    cfg = dict(teams=draw(st.integers(1, 2)),
               threads_per_team=draw(st.integers(1, 3)),
               updates_per_thread=draw(st.integers(1, 2)),
               block_size=block, passes=draw(st.integers(1, 3)),
               storage="compressed")
    d_l = draw(st.integers(1, 3))
    cfg["sync"] = (BarrierSpec() if draw(st.booleans()) else RelaxedSpec(
        d_l, d_l + draw(st.integers(0, 3)), draw(st.integers(0, 2))))
    kind = draw(st.sampled_from(["scalar", "faces", "func"]))
    values = st.sampled_from([-0.0, 0.0, 0.75, -2.5, 1e3])
    if kind == "scalar":
        bc = DirichletBoundary(draw(values))
    elif kind == "faces":
        bc = DirichletBoundary(draw(values), faces=draw(
            st.dictionaries(st.sampled_from(_FACES), values)))
    else:
        a, b, c = (draw(st.sampled_from([-1.5, 0.25, 2.0])) for _ in range(3))
        bc = DirichletBoundary(func=lambda z, y, x: a * z + b * y + c * x)
    event(kind)
    return (Grid3D(shape, boundary=bc), PipelineConfig(**cfg),
            draw(st.sampled_from(ORDERS)), draw(st.integers(0, 2**16)))


class TestCompressedDifferential:
    """The compressed rail against ``reference_sweeps``, generated."""

    @settings(max_examples=120, deadline=None)
    @given(compressed_cases())
    def test_validated_solves_equal_the_reference(self, case):
        grid, cfg, order, seed = case
        field = random_field(grid.shape, np.random.default_rng(seed))
        want = reference_sweeps(grid, field, cfg.total_updates).tobytes()
        got = run_pipelined(grid, field, cfg, order=order,
                            rng=np.random.default_rng(seed + 1))
        assert got.field.tobytes() == want
        # Analyzer legal => run correct: certified draws run threaded too.
        if analyze_schedule(cfg, grid.shape).ok:
            event("threads")
            threaded = solve(grid, field, cfg, backend="threads",
                             validate=True)
            assert threaded.field.tobytes() == want

    @pytest.mark.parametrize("bc", ["scalar", "func"])
    def test_skipping_a_moving_face_store_is_caught(self, bc):
        # z is shifted, so both z faces move; a func boundary moves all
        # six.  Drop any one face's per-level store and the stale ring
        # read changes the result's bytes.
        grid = Grid3D((9, 5, 6), boundary=RING_BCS[bc])
        field = random_field(grid.shape, np.random.default_rng(3))
        cfg = _ring_cfg((4, 99, 99), "compressed", 2)
        want = reference_sweeps(grid, field, cfg.total_updates,
                                STENCIL).tobytes()
        moving = _FACES if bc == "func" else _FACES[:2]
        for face in moving:
            ex = PipelineExecutor(grid, field, cfg, STENCIL)
            kept = [f for f in ex.storage._faces if f[:2] != face]
            assert len(kept) == len(moving) - 1
            ex.storage._faces = kept
            assert ex.run().tobytes() != want, face


# ---------------------------------------------------------------------------
# Serve cache: one vector-v2 key, and nothing older is ever served
# ---------------------------------------------------------------------------

def _job(engine="numpy"):
    from repro.serve import SolveJob

    grid = Grid3D((8, 8, 8))
    field = random_field(grid.shape, np.random.default_rng(9))
    cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                         block_size=(4, 64, 64), sync=RelaxedSpec(1, 2),
                         engine=engine)
    return SolveJob(grid=grid, field=field, config=cfg)


class _V1(repro.engine.Engine):
    name = "retired"
    semantics = "vector-" + "v1"


class TestServeKeys:
    def test_schema_and_class(self):
        from repro.serve.job import KEY_SCHEMA

        assert KEY_SCHEMA == 3
        assert get_engine("numpy").semantics == "vector-v2"
        assert repro.engine.Engine.semantics == "vector-v2"

    def test_numpy_deep_and_oracle_share_one_key(self, deep_engine,
                                                 oracle_engine):
        from repro.serve import Service

        oracle_engine("oracle")
        names = ("numpy", "numba-deep", "oracle")
        assert len({get_engine(n).semantics for n in names}) == 1
        assert len({_job(n).content_key() for n in names}) == 1
        fields = [solve(j.grid, j.field, j.config).field
                  for j in map(_job, names)]
        for other in fields[1:]:
            assert_same_bits(other, fields[0])
        with Service(workers=0) as svc:
            cold = svc.submit_job(_job("numpy"))
            svc.drain()
            warm = [svc.submit_job(_job(n)) for n in names[1:]]
            assert svc.stats.backend_solves == 1
            assert all(w.cache_hit for w in warm)
            assert_same_bits(warm[0].result(timeout=0).field,
                             cold.result(timeout=0).field)

    def test_an_entry_written_under_the_old_class_is_never_served(
            self, tmp_path, monkeypatch):
        from repro.serve import ResultCache, Service, job as job_module

        # What the parent release wrote to a shared cache directory for
        # this very problem: version 1.12.0, key schema 2, the old class.
        register_engine(_V1())
        try:
            with monkeypatch.context() as old:
                old.setattr(job_module, "KEY_SCHEMA", 2)
                old.setattr(repro, "__version__", "1.12.0")
                old_key = _job("retired").content_key()
                schema_only = _job("numpy").content_key()
            class_only = _job("retired").content_key()
        finally:
            unregister_engine("retired")
        new = _job()
        assert len({old_key, schema_only, class_only,
                    new.content_key()}) == 4
        fresh = solve(new.grid, new.field, new.config)
        poison = solve(new.grid, new.field + 1.0, new.config)
        ResultCache(disk_dir=tmp_path).put(old_key, poison)
        assert (tmp_path / f"{old_key}.entry").is_file()
        with Service(workers=0,
                     cache=ResultCache(disk_dir=tmp_path)) as svc:
            fut = svc.submit_job(_job())
            svc.drain()
            assert not fut.cache_hit and svc.stats.backend_solves == 1
            assert_same_bits(fut.result(timeout=0).field, fresh.field)
        assert (tmp_path / f"{new.content_key()}.entry").is_file()
