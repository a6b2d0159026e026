"""The engine differential battery: every engine bit-identical to numpy.

The invariant of :mod:`repro.engine` is the repo's signature move — an
execution engine may reorder the traversal, fuse writes into the
destination storage or compile the loops, but the produced bits must
equal the ``numpy`` reference engine on every kernel × storage ×
backend combination.  This file pins that invariant:

* shared / ``simmpi`` / ``procmpi`` solves for the 7-point Jacobi, the
  embedded 2-D star and an anisotropic stencil, per engine, compared
  bit-for-bit (``np.array_equal``) against the numpy engine;
* cache sharing in :mod:`repro.serve`: engines of one semantics class
  produce one content key, so an engine change is a pure cache hit;
* edge cases: degenerate 1-cell-axis grids, zero-weight and absent
  offsets, empty regions, pure-center stencils and float32/float64
  dtype preservation;
* the non-default legs: on every host ``conftest``'s independent
  ``StarStencil.apply`` oracle, registered per test under the two
  retired built-in names (ordinary free names now; this also keeps the
  battery's test ids stable across the deletion of those engines), plus
  ``numba``/``numba-deep`` wherever ``available_engines()`` has them
  (CI runs both ways);
* the ``numba-deep`` whole-block-traversal engine's *traversal logic*,
  certified everywhere in interpreted mode — the compiled loop body is a plain
  Python function, so the identical gather/patch/write sequence runs
  under the test without the dependency;
* the JIT-cache pin: ``cache=True`` compilations mean a warm worker
  process re-importing the engine package never re-JITs per job
  (subprocess probe over ``jit_cache_stats``, skip-marked).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import Grid3D, PipelineConfig, RelaxedSpec, solve
from repro.core.storage import TwoGridStorage
from repro.engine import (
    HAVE_NUMBA,
    Engine,
    available_engines,
    engine_semantics,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.grid import Box, random_field
from repro.kernels import (
    StarStencil,
    anisotropic_jacobi,
    jacobi5_2d,
    jacobi7,
    jacobi_sweep_padded,
    reference_sweeps,
)

RNG_SEED = 7

STUBS = ("blocked", "inplace")
ENGINES = available_engines() + STUBS
NONDEFAULT = [e for e in ENGINES if e != "numpy"]

STENCILS = {
    "jacobi": jacobi7(),
    "star2d": jacobi5_2d(),
    "aniso": anisotropic_jacobi(1.0, 2.0, 0.5),
}


def _cfg(storage: str = "twogrid", engine: str = "numpy",
         passes: int = 2) -> PipelineConfig:
    return PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                          block_size=(4, 64, 64), sync=RelaxedSpec(1, 2),
                          storage=storage, passes=passes, engine=engine)


def _problem(shape=(12, 10, 11), dtype=np.float64):
    grid = Grid3D(shape, dtype=dtype)
    field = random_field(grid.shape, np.random.default_rng(RNG_SEED))
    return grid, field.astype(dtype)


@pytest.fixture
def stubs(oracle_engine):
    for name in STUBS:
        oracle_engine(name)


def _needs_fork(engine):
    from repro.dist.procmpi import default_start_method

    if engine in STUBS and default_start_method() != "fork":
        pytest.skip("test-registered engines reach procmpi ranks by fork")


# ---------------------------------------------------------------------------
# Registry behaviour
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_builtins_registered_in_canonical_order(self):
        names = available_engines()
        expected = ("numpy",) + (
            ("numba", "numba-deep") if HAVE_NUMBA else ())
        assert names == expected

    def test_unknown_engine_lists_choices(self):
        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("fortran")

    def test_missing_optional_dependency_is_named(self):
        if HAVE_NUMBA:
            pytest.skip("numba installed: the engine is available here")
        with pytest.raises(ValueError, match="numba.*not installed"):
            get_engine("numba")

    def test_config_validates_engine_name(self):
        with pytest.raises(ValueError, match="engine"):
            _cfg(engine="fortran")

    def test_all_builtins_share_the_vector_semantics_class(self):
        classes = {engine_semantics(n) for n in available_engines()}
        assert classes == {"vector-v2"}

    def test_custom_engine_registers_and_unregisters(self):
        class Stub(Engine):
            name = "stub-engine"
            semantics = "stub-v1"

        try:
            register_engine(Stub())
            assert "stub-engine" in available_engines()
            with pytest.raises(ValueError, match="already registered"):
                register_engine(Stub())
        finally:
            unregister_engine("stub-engine")
        assert "stub-engine" not in available_engines()


# ---------------------------------------------------------------------------
# Bit identity on the shared backend, both storage schemes
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("stubs")
class TestSharedBitIdentity:
    @pytest.mark.parametrize("engine", NONDEFAULT)
    @pytest.mark.parametrize("kernel", sorted(STENCILS))
    @pytest.mark.parametrize("storage", ["twogrid", "compressed"])
    def test_engine_matches_numpy_bitwise(self, engine, kernel, storage):
        grid, field = _problem()
        st = STENCILS[kernel]
        ref = solve(grid, field, _cfg(storage=storage), stencil=st)
        got = solve(grid, field, _cfg(storage=storage, engine=engine),
                    stencil=st)
        assert np.array_equal(got.field, ref.field)
        # And both stay byte-identical to plain sweeps.
        plain = reference_sweeps(grid, field, ref.levels_advanced, stencil=st)
        assert got.field.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("engine", NONDEFAULT)
    def test_engine_override_argument_wins(self, engine):
        grid, field = _problem()
        a = solve(grid, field, _cfg(), engine=engine)
        b = solve(grid, field, _cfg(engine=engine))
        assert a.config.engine == engine
        assert np.array_equal(a.field, b.field)


# ---------------------------------------------------------------------------
# Bit identity through the distributed backends (engine rides the config)
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("stubs")
class TestDistributedBitIdentity:
    @pytest.mark.parametrize("engine", NONDEFAULT)
    @pytest.mark.parametrize("kernel", sorted(STENCILS))
    def test_simmpi_engine_matches_numpy(self, engine, kernel):
        grid, field = _problem()
        st = STENCILS[kernel]
        ref = solve(grid, field, _cfg(), topology=(1, 1, 2),
                    backend="simmpi", stencil=st)
        got = solve(grid, field, _cfg(engine=engine), topology=(1, 1, 2),
                    backend="simmpi", stencil=st)
        assert np.array_equal(got.field, ref.field)

    @pytest.mark.parametrize("engine", NONDEFAULT)
    @pytest.mark.parametrize("kernel", sorted(STENCILS))
    def test_procmpi_inherits_engine_and_matches(self, engine, kernel):
        _needs_fork(engine)
        grid, field = _problem()
        st = STENCILS[kernel]
        sim = solve(grid, field, _cfg(engine=engine), topology=(1, 1, 2),
                    backend="simmpi", stencil=st)
        proc = solve(grid, field, _cfg(engine=engine), topology=(1, 1, 2),
                     backend="procmpi", stencil=st)
        shared = solve(grid, field, _cfg(), stencil=st)
        assert np.array_equal(proc.field, sim.field)
        assert proc.field.tobytes() == shared.field.tobytes()

    @pytest.mark.parametrize("engine", NONDEFAULT)
    def test_multi_halo_sweeps_take_an_engine(self, engine):
        # Sect. 2.1's multi-halo sweeps: the one-stage T = h config.
        _needs_fork(engine)
        grid, field = _problem((10, 9, 8))
        cfg = PipelineConfig(teams=1, threads_per_team=1,
                             updates_per_thread=2, passes=2,
                             block_size=grid.shape)
        ref = solve(grid, field, cfg, topology=(1, 1, 2), backend="simmpi")
        got = solve(grid, field, cfg, topology=(1, 1, 2), backend="simmpi",
                    engine=engine)
        proc = solve(grid, field, cfg, topology=(1, 1, 2), backend="procmpi",
                     engine=engine)
        assert np.array_equal(got.field, ref.field)
        assert np.array_equal(proc.field, ref.field)


# ---------------------------------------------------------------------------
# Serving layer: one semantics class, one cache entry
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("stubs")
class TestServeRoundTrip:
    def test_content_keys_shared_across_engines(self):
        from repro.serve import SolveJob

        grid, field = _problem()
        base = SolveJob(grid=grid, field=field, config=_cfg()).content_key()
        for engine in NONDEFAULT:
            job = SolveJob(grid=grid, field=field,
                           config=_cfg(engine=engine))
            assert job.content_key() == base

    def test_custom_semantics_class_changes_the_key(self):
        from repro.serve import SolveJob

        class OtherSemantics(Engine):
            name = "other-sem"
            semantics = "approx-v1"

        grid, field = _problem()
        base = SolveJob(grid=grid, field=field, config=_cfg()).content_key()
        try:
            register_engine(OtherSemantics())
            other = SolveJob(grid=grid, field=field,
                             config=_cfg(engine="other-sem")).content_key()
        finally:
            unregister_engine("other-sem")
        assert other != base

    def test_engine_change_is_a_pure_cache_hit(self):
        """solve(engine=...) round-trips through the service: the second
        engine's job is served from the first engine's cache entry."""
        from repro.serve import Service

        grid, field = _problem()
        direct = [solve(grid, field, _cfg(engine=e)) for e in ENGINES]
        with Service(workers=0) as svc:
            cold = svc.submit(grid, field, _cfg())
            svc.drain()
            warm = [svc.submit(grid, field, _cfg(engine=e))
                    for e in NONDEFAULT]
            stats = svc.stats
            results = [cold.result(timeout=0)] + \
                [w.result(timeout=0) for w in warm]
        assert stats.backend_solves == 1
        assert stats.cache_hits == len(NONDEFAULT)
        assert all(w.cache_hit for w in warm)
        for served, ran in zip(results[1:], results[:-1]):
            assert np.array_equal(served.field, ran.field)
        for a, b in zip(direct, direct[1:]):
            assert np.array_equal(a.field, b.field)

    def test_auto_config_rejects_engine_override(self):
        from repro.serve import Service

        grid, field = _problem()
        with Service(workers=0) as svc:
            with pytest.raises(ValueError, match="auto"):
                svc.submit(grid, field, "auto", engine="numpy")


# ---------------------------------------------------------------------------
# Edge cases: degenerate geometry, pathological stencils, dtypes
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("stubs")
class TestEdgeCases:
    @pytest.mark.parametrize("engine", NONDEFAULT)
    @pytest.mark.parametrize("shape", [(1, 6, 7), (6, 1, 7), (6, 7, 1),
                                       (1, 1, 5), (1, 1, 1)])
    def test_degenerate_one_cell_axes(self, engine, shape):
        grid, field = _problem(shape)
        ref = solve(grid, field, _cfg())
        got = solve(grid, field, _cfg(engine=engine))
        assert np.array_equal(got.field, ref.field)
        plain = reference_sweeps(grid, field, ref.levels_advanced)
        assert got.field.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("engine", NONDEFAULT)
    def test_zero_weight_offsets_are_skipped_not_gathered_into_nan(self, engine):
        # A present-but-zero weight must contribute nothing — even when
        # the neighbour value is non-finite, 0 * inf == nan must not
        # leak into the result (the numpy reference skips such terms).
        st = StarStencil(weights={(0, 0, -1): 0.5, (0, 0, 1): 0.0,
                                  (0, -1, 0): 0.5}, name="half-dead")
        grid = Grid3D((4, 4, 4))
        field = np.full(grid.shape, np.inf)
        padded_ref = grid.padded(field)
        ref = jacobi_sweep_padded(padded_ref.copy(), stencil=st)
        got = jacobi_sweep_padded(padded_ref.copy(), stencil=st,
                                  engine=engine)
        assert np.array_equal(got, ref)
        # Interior cells away from the low-x/low-y faces read only inf
        # neighbours through the nonzero weights; nothing may be NaN.
        assert not np.isnan(got).any()

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kernel", ["star2d", "jacobi"])
    def test_absent_offsets_match_reference(self, engine, kernel):
        grid, field = _problem((6, 7, 8))
        st = STENCILS[kernel]
        ref = reference_sweeps(grid, field, 4, stencil=st)
        got = reference_sweeps(grid, field, 4, stencil=st, engine=engine)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pure_center_stencil(self, engine):
        st = StarStencil(weights={}, center_weight=0.5, name="decay")
        grid, field = _problem((5, 4, 3))
        ref = reference_sweeps(grid, field, 3, stencil=st)
        got = reference_sweeps(grid, field, 3, stencil=st, engine=engine)
        assert np.array_equal(got, ref)
        np.testing.assert_allclose(got, field * 0.125, rtol=0, atol=0)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_region_is_a_noop(self, engine):
        grid, field = _problem((4, 4, 4))
        storage = TwoGridStorage(grid, field)
        raw = [storage.raw_read_array(v)[0].tobytes() for v in (0, 1)]
        get_engine(engine).apply(jacobi7(), storage, Box((0, 0, 0), (0, 0, 0)), 1)
        assert [storage.raw_read_array(v)[0].tobytes()
                for v in (0, 1)] == raw

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_padded_region_is_a_noop(self, engine):
        grid, field = _problem((4, 4, 4))
        src = grid.padded(field)
        dst = src.copy()
        get_engine(engine).apply_padded(jacobi7(), src, dst,
                                        (2, 0, 0), (2, 4, 4))
        assert np.array_equal(dst, src)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("storage", ["twogrid", "compressed"])
    def test_dtype_preserved_and_bits_match(self, engine, dtype, storage):
        grid, field = _problem(dtype=dtype)
        ref = solve(grid, field, _cfg(storage=storage))
        got = solve(grid, field, _cfg(storage=storage, engine=engine))
        assert got.field.dtype == np.dtype(dtype)
        assert np.array_equal(got.field, ref.field)


# ---------------------------------------------------------------------------
# The optional numba leg (skip-marked; CI runs with and without numba)
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
class TestNumbaEngine:
    def test_registered_with_jit_flag(self):
        eng = get_engine("numba")
        assert eng.jit and eng.requires == "numba"



# ---------------------------------------------------------------------------
# The deep-JIT engine: interpreted-mode traversal battery (no numba needed)
# ---------------------------------------------------------------------------

class TestDeepTraversal:
    @pytest.mark.parametrize("kernel", sorted(STENCILS))
    @pytest.mark.parametrize("storage", ["twogrid", "compressed"])
    def test_bit_identical_to_numpy(self, deep_engine, kernel, storage):
        grid, field = _problem()
        st = STENCILS[kernel]
        ref = solve(grid, field, _cfg(storage=storage), stencil=st)
        got = solve(grid, field, _cfg(storage=storage,
                                      engine="numba-deep"), stencil=st)
        assert np.array_equal(got.field, ref.field)

    @pytest.mark.parametrize("storage", ["twogrid", "compressed"])
    def test_boundary_faces_and_callable(self, deep_engine, storage):
        from repro.grid import DirichletBoundary

        for boundary in (
                DirichletBoundary(1.25),
                DirichletBoundary(faces={(0, -1): 2.0, (1, 1): -0.5,
                                         (2, -1): 0.75}),
                DirichletBoundary(
                    func=lambda z, y, x: 0.1 * z + 0.2 * y - 0.05 * x)):
            grid = Grid3D((9, 8, 10), boundary=boundary)
            field = random_field(grid.shape,
                                 np.random.default_rng(RNG_SEED))
            ref = solve(grid, field, _cfg(storage=storage))
            got = solve(grid, field, _cfg(storage=storage,
                                          engine="numba-deep"))
            assert np.array_equal(got.field, ref.field)

    @pytest.mark.parametrize("shape", [(1, 6, 7), (6, 1, 7), (6, 7, 1),
                                       (1, 1, 1)])
    def test_degenerate_axes(self, deep_engine, shape):
        # twogrid only: compressed storage rejects degenerate shapes
        # outright (no axis can carry the shift), for every engine.
        grid, field = _problem(shape)
        ref = solve(grid, field, _cfg())
        got = solve(grid, field, _cfg(engine="numba-deep"))
        assert np.array_equal(got.field, ref.field)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_preserved(self, deep_engine, dtype):
        grid, field = _problem(dtype=dtype)
        ref = solve(grid, field, _cfg(storage="compressed"))
        got = solve(grid, field, _cfg(storage="compressed",
                                      engine="numba-deep"))
        assert got.field.dtype == np.dtype(dtype)
        assert np.array_equal(got.field, ref.field)

    def test_damped_center_term(self, deep_engine):
        st = STENCILS["jacobi"].damped(0.8)
        grid, field = _problem()
        for storage in ("twogrid", "compressed"):
            ref = solve(grid, field, _cfg(storage=storage), stencil=st)
            got = solve(grid, field, _cfg(storage=storage,
                                          engine="numba-deep"), stencil=st)
            assert np.array_equal(got.field, ref.field)

    def test_threads_backend_bit_identical(self, deep_engine):
        grid, field = _problem()
        ref = solve(grid, field, _cfg(), backend="threads")
        got = solve(grid, field, _cfg(engine="numba-deep"),
                    backend="threads")
        assert np.array_equal(got.field, ref.field)

    def test_simmpi_backend_bit_identical(self, deep_engine):
        grid, field = _problem()
        ref = solve(grid, field, _cfg(), topology=(1, 1, 2),
                    backend="simmpi")
        got = solve(grid, field, _cfg(engine="numba-deep"),
                    topology=(1, 1, 2), backend="simmpi")
        assert np.array_equal(got.field, ref.field)

    def test_shares_the_vector_semantics_class(self, deep_engine):
        assert deep_engine.semantics == "vector-v2"
        assert deep_engine.name == "numba-deep"
        assert deep_engine.jit and deep_engine.requires == "numba"

    def test_storage_deep_access_validates_reads(self, deep_engine):
        """Named for the up-front read check the storage no longer runs
        (the schedule is certified instead); what the deep traversal
        relies on is the raw-array contract."""
        from repro.core.storage import TwoGridStorage

        grid, field = _problem((6, 6, 6))
        storage = TwoGridStorage(grid, field)
        # The raw contract: cell c of the level lives at arr[c + origin].
        arr, origin = storage.raw_read_array(0)
        assert np.array_equal(arr[grid.domain.slices(origin)], field)
        c = (1, 4, 5)
        assert arr[tuple(c[d] + origin[d] for d in range(3))] == field[c]


# ---------------------------------------------------------------------------
# JIT cache behaviour (cache=True): warm workers never re-JIT per job
# ---------------------------------------------------------------------------

class TestJitCache:
    def test_stats_are_zero_without_numba(self):
        from repro.engine import jit_cache_stats

        stats = jit_cache_stats()
        assert set(stats) == {"hits", "misses"}
        if not HAVE_NUMBA:
            assert stats == {"hits": 0, "misses": 0}

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_warm_worker_loads_from_disk_cache(self, tmp_path):
        """A fresh process that re-imports the engine package and runs a
        solve per engine must satisfy every compilation from the on-disk
        cache (hits), not fresh JITs (misses) — the second run is the
        'warm spawned worker' of the serve/procmpi rails."""
        import subprocess
        import sys

        probe = (
            "import json, numpy as np\n"
            "import repro\n"
            "from repro import Grid3D, PipelineConfig, RelaxedSpec, solve\n"
            "from repro.engine import jit_cache_stats\n"
            "from repro.grid import random_field\n"
            "grid = Grid3D((8, 8, 8))\n"
            "field = random_field(grid.shape, np.random.default_rng(0))\n"
            "cfg = PipelineConfig(teams=1, threads_per_team=2,\n"
            "                     updates_per_thread=2,\n"
            "                     block_size=(4, 64, 64),\n"
            "                     sync=RelaxedSpec(1, 2))\n"
            "for engine in ('numba', 'numba-deep'):\n"
            "    solve(grid, field, cfg, engine=engine)\n"
            "print(json.dumps(jit_cache_stats()))\n"
        )

        def run() -> dict:
            out = subprocess.run([sys.executable, "-c", probe],
                                 capture_output=True, text=True,
                                 check=True)
            return __import__("json").loads(out.stdout.strip()
                                            .splitlines()[-1])

        first = run()   # may compile (cold disk cache)
        second = run()  # fresh process, warm disk cache
        assert second["misses"] == 0, (
            f"warm worker re-JITted: {second} (cold run: {first})")
        assert second["hits"] >= 1
