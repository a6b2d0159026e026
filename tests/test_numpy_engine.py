"""The numpy engine's slab accumulate: allocation-free, scratch-safe.

Bit-identity to the other engines is pinned by
``test_engine_equivalence.py`` on test-sized grids, where every region
fits one slab.  This file covers what that battery cannot see: regions
walked in *several* slabs (both directions, every traversal axis), the
per-thread scratch buffers surviving shape changes and real threads,
and the absence of region-sized temporaries.  The ``conftest`` oracle is
the independent reference throughout — it evaluates
``StarStencil.apply`` on gathered copies and commits with one write per
block region (the role the ``_match_blocked`` test names remember).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import Grid3D, PipelineConfig, RelaxedSpec, jacobi7, solve
from repro.core.storage import CompressedStorage, TwoGridStorage
from repro.engine import get_engine, numpy_engine
from repro.grid import Box, DirichletBoundary, random_field
from repro.kernels import anisotropic_jacobi

BOUNDARY = DirichletBoundary(
    func=lambda z, y, x: 0.1 * z + 0.2 * y - 0.05 * x)
ORACLE = "oracle"


@pytest.fixture(autouse=True)
def _oracle(oracle_engine):
    oracle_engine(ORACLE)


def _cfg(block, storage="twogrid", engine="numpy", passes=2):
    return PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                          block_size=block, sync=RelaxedSpec(1, 2),
                          storage=storage, passes=passes, engine=engine)


def _problem(shape, seed=11, boundary=BOUNDARY):
    grid = Grid3D(shape, boundary=boundary)
    return grid, random_field(shape, np.random.default_rng(seed))


def _spy_patched_gathers(monkeypatch, storage):
    """The offsets of ``storage``'s gathers that returned a patched copy."""
    patched = []
    gather = storage.gather

    def spy(region, off, level):
        out = gather(region, off, level)
        if not np.may_share_memory(out, storage.raw_read_array(level)[0]):
            patched.append(off)
        return out
    monkeypatch.setattr(storage, "gather", spy)
    return patched


class TestSlabWalk:
    @pytest.mark.parametrize("storage", ["twogrid", "compressed"])
    @pytest.mark.parametrize("block", [(4, 64, 64), (64, 3, 64),
                                       (64, 64, 5), (5, 4, 64)])
    @pytest.mark.parametrize("planes", [1, 3])
    def test_multi_slab_regions_match_blocked(self, monkeypatch, storage,
                                              block, planes):
        # Shrink the slab so test-sized regions split into many slabs;
        # the block shapes put the compressed grid's traversal axis on
        # z, y and x, and two passes walk it forwards and backwards.
        grid, field = _problem((12, 10, 11))
        monkeypatch.setattr(numpy_engine, "SLAB_BYTES", planes * 10 * 8 * 8)
        st = anisotropic_jacobi(1.0, 2.0, 0.5).damped(0.8)
        ref = solve(grid, field, _cfg(block, storage, ORACLE), stencil=st)
        got = solve(grid, field, _cfg(block, storage), stencil=st)
        assert np.array_equal(got.field, ref.field)


class TestScratchReuse:
    @pytest.mark.parametrize("storage", ["twogrid", "compressed"])
    def test_one_thread_alternating_region_shapes(self, storage):
        # Big, small, big again: a grown buffer re-viewed for a smaller
        # or differently shaped slab must never leak stale values.
        problems = [_problem((12, 30, 31), seed=1), _problem((5, 6, 7), seed=2)]
        block = (4, 64, 64)
        want = [solve(g, f, _cfg(block, storage, ORACLE)).field
                for g, f in problems]
        for _ in range(3):
            for (g, f), ref in zip(problems, want):
                got = solve(g, f, _cfg(block, storage)).field
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("storage", ["twogrid", "compressed"])
    def test_threads_rail_matches_blocked(self, storage):
        # One scratch pair per stage thread (threading.local).
        grid, field = _problem((16, 12, 13))
        cfg = _cfg((4, 64, 64), storage)
        ref = solve(grid, field, _cfg((4, 64, 64), storage, ORACLE))
        for _ in range(3):
            got = solve(grid, field, cfg, backend="threads")
            assert np.array_equal(got.field, ref.field)

    def test_float32_and_float64_share_the_buffers(self):
        for dtype in (np.float64, np.float32, np.float64):
            grid = Grid3D((9, 8, 10), boundary=BOUNDARY, dtype=dtype)
            field = random_field(grid.shape,
                                 np.random.default_rng(3)).astype(dtype)
            ref = solve(grid, field, _cfg((4, 64, 64), engine=ORACLE))
            got = solve(grid, field, _cfg((4, 64, 64)))
            assert got.field.dtype == np.dtype(dtype)
            assert np.array_equal(got.field, ref.field)


def _storage(kind, grid, field):
    if kind == "twogrid":
        return TwoGridStorage(grid, field)
    return CompressedStorage(grid, field, (1, 0, 0), 2)


class TestAllocationFree:
    """A warm apply never materialises the region."""

    # ``limit`` is the transient allowed per strided operand of a pass:
    # NumPy's ufunc iterator takes one 64 KiB buffer (8192 items) for
    # each, hence 96 KiB.  The last pass of a slab is strided on both
    # sides — scratch interior (or a gathered view) in, destination view
    # out — so two are alive at once and the peak may reach ``2 * limit``
    # (measured 135 384 B twogrid, 139 616 B compressed); a third would
    # mean a pass through a buffer the engine does not own.  Nothing
    # else may be sizeable.  Both layouts store the Dirichlet ring on
    # every face, this file's ``func`` boundary included, so no read is
    # ever a patched copy: full-width compressed slabs run flat, the
    # others read views.
    @pytest.mark.parametrize("kind, shape, region, limit", [
        ("twogrid", (8, 128, 128), Box((0, 0, 0), (8, 128, 128)), 96 << 10),
        ("compressed", (10, 130, 130), Box((1, 1, 1), (9, 129, 129)),
         96 << 10),
        ("compressed", (32, 128, 128), Box((0, 0, 0), (32, 128, 128)),
         512 << 10),
    ])
    def test_warm_apply_peak_allocation(self, monkeypatch, kind, shape,
                                        region, limit):
        grid, field = _problem(shape)
        patched = self._warm_apply(monkeypatch, kind, grid, field, region,
                                   limit)
        assert patched == []

    def test_face_constant_ring_leaves_two_patched_gathers(self,
                                                           monkeypatch):
        # Named for the layout that still patched the two z faces: the
        # stored z ring leaves none, and the full region never gathers.
        grid, field = _problem((32, 128, 128), boundary=DirichletBoundary(0.5))
        patched = self._warm_apply(monkeypatch, "compressed", grid, field,
                                   grid.domain, 512 << 10)
        assert patched == []

    @staticmethod
    def _warm_apply(monkeypatch, kind, grid, field, region, limit):
        """Pin a warm apply's allocations; the offsets it patched."""
        monkeypatch.setattr(numpy_engine, "_scratch", numpy_engine._Scratch())
        engine = get_engine("numpy")
        engine.apply(jacobi7(), _storage(kind, grid, field), region, 1)
        storage = _storage(kind, grid, field)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            engine.apply(jacobi7(), storage, region, 1)
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert region.ncells * 8 >= 1 << 20
        assert peak - base < 2 * limit, \
            f"{peak - base} B peak in a warm apply"
        assert now - base < 4 << 10, f"{now - base} B kept by a warm apply"
        # Still exactly two scratch buffers per thread, each one slab
        # (of padded rows on the flat path: +3 %), never the region.
        raw = numpy_engine._scratch.raw
        assert len(raw) == 2
        assert raw[0].size == raw[1].size <= 1.05 * numpy_engine.SLAB_BYTES
        want = _storage(kind, grid, field)
        get_engine(ORACLE).apply(jacobi7(), want, region, 1)
        assert np.array_equal(storage.extract_region(region, 1),
                              want.extract_region(region, 1))
        # Host-independent: which copies a warm apply patches.
        spied = _storage(kind, grid, field)
        patched = _spy_patched_gathers(monkeypatch, spied)
        engine.apply(jacobi7(), spied, region, 1)
        return patched
