"""The measured-performance database and engine="auto" selection.

Pins the contract of :mod:`repro.perf.db` and everything wired to it:

* deterministic ranking and best-pick from injected measurements;
  stable fallback to the static default engine on an empty database
  or an unknown host;
* save/load round-trip, schema refusal, BENCH-document ingest;
* the generation counter: fresh calibration data invalidates the
  serve autoconf memo (the staleness regression test);
* ``engine="auto"`` through ``repro.solve`` (eager) and the service
  (late-bound at execution), with cache purity across engines pinned
  by event counters;
* ``repro.autotune(perf_db=...)`` reordering engine points by measured
  factors; the cost model's engine-aware throughput term;
* a real ``calibrate()`` smoke over the registered engines.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import Grid3D, PipelineConfig, RelaxedSpec, solve
from repro.engine import DEFAULT_ENGINE, available_engines
from repro.grid import random_field
from repro.perf.db import (
    DB_SCHEMA,
    PerfDB,
    PerfDBError,
    calibrate,
    default_db,
    host_fingerprint,
    perfdb_generation,
    resolve_auto_engine,
    size_class,
)

HOST = "pin-host-8c"
#: The registered non-default candidate on every host (conftest's stub).
SECOND = "oracle"


@pytest.fixture(autouse=True)
def _second_engine(oracle_engine):
    oracle_engine(SECOND)


def _cfg(**kw) -> PipelineConfig:
    base = dict(teams=1, threads_per_team=2, updates_per_thread=2,
                block_size=(4, 64, 64), sync=RelaxedSpec(1, 2))
    base.update(kw)
    return PipelineConfig(**base)


def _problem(shape=(12, 10, 11)):
    grid = Grid3D(shape)
    return grid, random_field(grid.shape, np.random.default_rng(7))


@pytest.fixture
def clean_default_db():
    """Run against a clean process-wide db; restore emptiness after."""
    from repro.serve.autoconf import clear_auto_cache

    db = default_db()
    db.clear()
    clear_auto_cache()
    try:
        yield db
    finally:
        db.clear()
        clear_auto_cache()


# ---------------------------------------------------------------------------
# Core database behaviour
# ---------------------------------------------------------------------------

class TestPerfDB:
    def test_ranking_is_deterministic_and_measured_first(self):
        db = PerfDB()
        db.record("a", "jacobi", "twogrid", "medium", 300.0, host=HOST)
        db.record("b", "jacobi", "twogrid", "medium", 900.0, host=HOST)
        db.record("c", "jacobi", "twogrid", "medium", 600.0, host=HOST)
        ranked = db.rank(["a", "x", "b", "y", "c"], "jacobi", "twogrid",
                         "medium", host=HOST)
        # Measured engines by throughput; unmeasured keep given order.
        assert ranked == ["b", "c", "a", "x", "y"]

    def test_record_keeps_the_max_and_counts_samples(self):
        db = PerfDB()
        db.record("e", "jacobi", "twogrid", "small", 100.0, host=HOST)
        db.record("e", "jacobi", "twogrid", "small", 80.0, host=HOST)
        db.record("e", "jacobi", "twogrid", "small", 120.0, host=HOST)
        assert db.lookup("e", "jacobi", "twogrid", "small",
                         host=HOST) == 120.0
        (row,) = db.to_document()["measurements"]
        assert row["samples"] == 3

    def test_best_falls_back_to_default_when_unmeasured(self):
        db = PerfDB()
        assert db.best(["x", "y"], "jacobi", "twogrid", "large",
                       host=HOST, default="numpy") == "numpy"
        db.record("y", "jacobi", "twogrid", "large", 5.0, host=HOST)
        assert db.best(["x", "y"], "jacobi", "twogrid", "large",
                       host=HOST, default="numpy") == "y"
        # A different (unknown) host still sees the static default.
        assert db.best(["x", "y"], "jacobi", "twogrid", "large",
                       host="other-host", default="numpy") == "numpy"

    def test_factor_neutral_unless_both_sides_measured(self):
        db = PerfDB()
        assert db.factor("e", "jacobi", "twogrid", "small",
                         baseline="numpy", host=HOST) == 1.0
        db.record("e", "jacobi", "twogrid", "small", 400.0, host=HOST)
        assert db.factor("e", "jacobi", "twogrid", "small",
                         baseline="numpy", host=HOST) == 1.0
        db.record("numpy", "jacobi", "twogrid", "small", 100.0, host=HOST)
        assert db.factor("e", "jacobi", "twogrid", "small",
                         baseline="numpy", host=HOST) == 4.0

    def test_generation_bumps_on_record_load_clear(self):
        db = PerfDB()
        g0 = db.generation
        db.record("e", "jacobi", "twogrid", "small", 1.0, host=HOST)
        g1 = db.generation
        assert g1 > g0
        db.clear()
        assert db.generation > g1

    def test_save_load_round_trip(self, tmp_path):
        db = PerfDB()
        db.record("e", "jacobi", "compressed", "medium", 7.5, host=HOST)
        path = tmp_path / "perfdb.json"
        db.save(path)
        other = PerfDB()
        assert other.load(path) == 1
        assert other.to_document() == db.to_document()
        assert other.to_document()["schema"] == DB_SCHEMA

    def test_incompatible_schema_is_refused(self):
        db = PerfDB()
        with pytest.raises(PerfDBError, match="schema"):
            db.load_document({"schema": "repro.perfdb/99",
                              "measurements": []})
        with pytest.raises(PerfDBError):
            db.load_document({"schema": DB_SCHEMA,
                              "measurements": [{"engine": "e"}]})

    def test_rejects_bad_size_class_and_rate(self):
        db = PerfDB()
        with pytest.raises(PerfDBError, match="size class"):
            db.record("e", "jacobi", "twogrid", "huge", 1.0, host=HOST)
        with pytest.raises(PerfDBError, match="throughput"):
            db.record("e", "jacobi", "twogrid", "small", 0.0, host=HOST)

    def test_ingest_bench_document(self):
        doc = {"records": [
            {"scenario": "solve_shared_numba@quick", "kind": "solver",
             "params": {"engine": "numba", "storage": "twogrid",
                        "shape": [48, 48, 48]},
             "metrics": {"mcups": {"value": 42.0}}},
            # No engine param: skipped.
            {"scenario": "solve_shared@quick", "kind": "solver",
             "params": {"shape": [48, 48, 48]},
             "metrics": {"mcups": {"value": 50.0}}},
        ]}
        db = PerfDB()
        assert db.ingest_document(doc, host=HOST) == 1
        assert db.lookup("numba", "jacobi", "twogrid",
                         size_class((48, 48, 48)), host=HOST) == 42.0

    def test_size_class_buckets(self):
        assert size_class((8, 8, 8)) == "small"
        assert size_class((48, 48, 48)) == "medium"
        assert size_class((200, 200, 200)) == "large"

    def test_host_fingerprint_is_stable_here(self):
        assert host_fingerprint() == host_fingerprint()
        assert host_fingerprint()


# ---------------------------------------------------------------------------
# resolve_auto_engine: the engine="auto" decision function
# ---------------------------------------------------------------------------

class TestResolveAutoEngine:
    def test_empty_db_resolves_to_static_default(self):
        assert resolve_auto_engine("twogrid", (32, 32, 32),
                                   db=PerfDB()) == DEFAULT_ENGINE

    def test_unknown_host_resolves_to_static_default(self):
        db = PerfDB()
        db.record(SECOND, "jacobi", "twogrid", "medium", 1000.0,
                  host="somewhere-else")
        assert resolve_auto_engine("twogrid", (48, 48, 48),
                                   db=db) == DEFAULT_ENGINE

    def test_measured_best_wins_deterministically(self):
        db = PerfDB()
        db.record(SECOND, "jacobi", "twogrid", "medium", 500.0)
        db.record(DEFAULT_ENGINE, "jacobi", "twogrid", "medium", 100.0)
        for _ in range(3):
            assert resolve_auto_engine("twogrid",
                                       (48, 48, 48), db=db) == SECOND

    def test_stale_db_naming_a_deleted_engine(self, tmp_path):
        # A perf DB saved before the blocked engine was deleted ranks it
        # 10x over numpy: it loads, and auto still picks a live engine.
        old = PerfDB()
        old.record("blocked", "jacobi", "twogrid", "medium", 1000.0)
        old.record(DEFAULT_ENGINE, "jacobi", "twogrid", "medium", 100.0)
        old.save(tmp_path / "perfdb.json")
        db = PerfDB()
        assert db.load(tmp_path / "perfdb.json") == 2
        assert db.rank(["numpy", "blocked"], "jacobi", "twogrid",
                       "medium")[0] == "blocked"
        assert resolve_auto_engine("twogrid", (48, 48, 48),
                                   db=db) == DEFAULT_ENGINE

    def test_unregistered_candidates_are_skipped(self):
        db = PerfDB()
        db.record("numba-deep", "jacobi", "twogrid", "medium", 9000.0)
        engines = ["numpy", "numba", "numba-deep"]
        got = resolve_auto_engine("twogrid", (48, 48, 48),
                                  engines=engines, db=db)
        if "numba-deep" in available_engines():
            assert got == "numba-deep"
        else:
            assert got == DEFAULT_ENGINE

    def test_measurements_for_other_storage_do_not_leak(self):
        db = PerfDB()
        db.record(SECOND, "jacobi", "compressed", "medium", 1000.0)
        assert resolve_auto_engine("twogrid", (48, 48, 48),
                                   db=db) == DEFAULT_ENGINE


# ---------------------------------------------------------------------------
# engine="auto" through solve and the service
# ---------------------------------------------------------------------------

class TestAutoThroughApi:
    def test_solve_auto_resolves_and_stays_bit_identical(
            self, clean_default_db):
        grid, field = _problem()
        ref = solve(grid, field, _cfg())
        got = solve(grid, field, _cfg(), engine="auto")
        assert got.config.engine == DEFAULT_ENGINE  # empty db
        clean_default_db.record(SECOND, "jacobi", "twogrid",
                                size_class(grid.shape), 500.0)
        clean_default_db.record(DEFAULT_ENGINE, "jacobi", "twogrid",
                                size_class(grid.shape), 100.0)
        got2 = solve(grid, field, _cfg(), engine="auto")
        assert got2.config.engine == SECOND
        assert np.array_equal(got.field, ref.field)
        assert np.array_equal(got2.field, ref.field)

    def test_service_binds_auto_engine_at_execution(self, clean_default_db):
        from repro.serve import Service

        grid, field = _problem()
        with Service(workers=0) as svc:
            f = svc.submit(grid, field, _cfg(), engine="auto")
            # Calibration data lands while the job is queued: the late
            # binding must see it.
            clean_default_db.record(SECOND, "jacobi", "twogrid",
                                    size_class(grid.shape), 500.0)
            clean_default_db.record(DEFAULT_ENGINE, "jacobi", "twogrid",
                                    size_class(grid.shape), 100.0)
            svc.drain()
            res = f.result(timeout=0)
            assert svc.stats.auto_engine_bound == 1
        assert np.array_equal(res.field, solve(grid, field, _cfg()).field)

    def test_auto_engine_cache_purity(self, clean_default_db):
        """Auto and every concrete engine share one cache entry: after
        the first solve, zero further backend invocations."""
        from repro.serve import Service

        clean_default_db.record(SECOND, "jacobi", "twogrid",
                                "small", 500.0)
        grid, field = _problem()
        with Service(workers=0) as svc:
            cold = svc.submit(grid, field, _cfg(), engine="auto")
            svc.drain()
            cold.result(timeout=0)
            assert svc.stats.backend_solves == 1
            warm = [svc.submit(grid, field, _cfg(), engine=e)
                    for e in list(available_engines()) + ["auto"]]
            assert all(w.cache_hit for w in warm)
            assert svc.stats.backend_solves == 1

    def test_concrete_engine_with_auto_config_still_rejected(self):
        grid, field = _problem()
        with pytest.raises(ValueError, match="concrete engine"):
            repro.submit(grid, field, "auto", engine="numpy")

    def test_auto_engine_with_auto_config_is_accepted(
            self, clean_default_db):
        from repro.serve import Service

        grid, field = _problem()
        with Service(workers=0) as svc:
            f = svc.submit(grid, field, "auto", engine="auto")
            svc.drain()
            assert f.result(timeout=0).config.engine in available_engines()


# ---------------------------------------------------------------------------
# The autoconf memo: generation-keyed, so fresh data changes decisions
# ---------------------------------------------------------------------------

class TestAutoconfStaleness:
    def test_new_measurements_invalidate_the_memo(self, clean_default_db):
        """The regression this PR fixes: auto_config memoised per
        geometry, so calibration arriving later was silently ignored."""
        from repro.serve.autoconf import auto_config

        grid, _ = _problem()
        first = auto_config(grid)
        assert first.engine == DEFAULT_ENGINE
        cls = size_class(grid.shape)
        clean_default_db.record(SECOND, "jacobi", first.storage,
                                cls, 500.0)
        clean_default_db.record(DEFAULT_ENGINE, "jacobi", first.storage,
                                cls, 100.0)
        second = auto_config(grid)
        assert second.engine == SECOND
        # And back again once the default engine measures fastest.
        clean_default_db.record(DEFAULT_ENGINE, "jacobi", first.storage,
                                cls, 900.0)
        third = auto_config(grid)
        assert third.engine == DEFAULT_ENGINE

    def test_same_generation_memoises(self, clean_default_db):
        from repro.serve.autoconf import auto_config

        grid, _ = _problem()
        assert auto_config(grid) is auto_config(grid)
        assert perfdb_generation() == perfdb_generation()


# ---------------------------------------------------------------------------
# Autotune and cost-model integration
# ---------------------------------------------------------------------------

class TestMeasuredAutotune:
    def test_perf_db_breaks_the_engine_tie(self):
        from repro.machine.presets import nehalem_ep

        db = PerfDB()
        shape = (120, 120, 120)
        cls = size_class(shape)
        for storage in ("twogrid", "compressed"):
            db.record("numpy", "jacobi", storage, cls, 100.0)
            db.record(SECOND, "jacobi", storage, cls, 300.0)
        kw = dict(shape=shape, bx_values=(60,), bz_values=(10,),
                  T_values=(2,), du_values=(4,),
                  engines=("numpy", SECOND))
        plain = repro.autotune(nehalem_ep(), **kw)
        tuned = repro.autotune(nehalem_ep(), perf_db=db, **kw)
        # Without data: stable order keeps numpy (given first) on top
        # of each tied pair.  With data: the stub leads at 3x.
        assert plain[0].config.engine == "numpy"
        assert tuned[0].config.engine == SECOND
        pairs = {(r.config.engine, r.config.storage): r.mlups
                 for r in tuned}
        for storage in ("twogrid", "compressed"):
            assert pairs[(SECOND, storage)] == pytest.approx(
                3.0 * pairs[("numpy", storage)])

    def test_cost_model_engine_terms(self):
        from repro.machine.presets import nehalem_ep
        from repro.sim.costmodel import engine_factor, engine_throughput

        db = PerfDB()
        assert engine_factor(SECOND, db=db) == 1.0
        m = nehalem_ep()
        assert engine_throughput(m, SECOND, db=db) is m
        db.record(SECOND, "jacobi", "twogrid", "large", 600.0)
        db.record("numpy", "jacobi", "twogrid", "large", 200.0)
        assert engine_factor(SECOND, db=db) == 3.0
        m2 = engine_throughput(m, SECOND, db=db)
        assert m2.core_mlups == pytest.approx(3.0 * m.core_mlups)
        # Everything that is a machine property stays untouched.
        assert m2.mem_bw_socket == m.mem_bw_socket
        assert m2.caches == m.caches


# ---------------------------------------------------------------------------
# Calibration: real microbenchmarks over the registered engines
# ---------------------------------------------------------------------------

class TestCalibrate:
    def test_quick_calibration_measures_every_registered_engine(self):
        db = PerfDB()
        results = calibrate(storages=("twogrid",), quick=True, db=db)
        assert set(results) == {(e, "twogrid")
                                for e in available_engines()}
        assert all(v > 0 for v in results.values())
        # Every size class is seeded so auto resolves at any shape.
        for cls in ("small", "medium", "large"):
            assert db.lookup(DEFAULT_ENGINE, "jacobi", "twogrid",
                             cls) is not None
        # After calibration, auto resolves to something measured here.
        assert resolve_auto_engine("twogrid", (48, 48, 48),
                                   db=db) in available_engines()

    def test_injected_timer_gives_deterministic_rates(self):
        ticks = iter(float(i) for i in range(10000))
        db = PerfDB()
        results = calibrate(engines=("numpy",), storages=("twogrid",),
                            quick=True, db=db,
                            timer=lambda: next(ticks))
        ((_, mlups),) = results.items()
        # dt == 1.0 tick per repeat: rate is cells/1e6, exactly.
        cells = db.lookup("numpy", "jacobi", "twogrid", "small") * 1e6
        assert mlups == pytest.approx(cells / 1e6)

    def test_cli_calibrate_round_trips_a_db_file(self, tmp_path, capsys):
        from repro.perf.cli import main

        path = tmp_path / "perfdb.json"
        assert main(["calibrate", "--quick", "--engines", "numpy",
                     "--storages", "twogrid", "--db", str(path)]) == 0
        assert path.exists()
        db = PerfDB()
        assert db.load(path) >= 3  # one rate x three size classes
        out = capsys.readouterr().out
        assert "engine='auto' now resolves" in out
        # Second run loads the existing file before calibrating.
        assert main(["calibrate", "--quick", "--engines", "numpy",
                     "--storages", "twogrid", "--db", str(path)]) == 0
        assert "loaded" in capsys.readouterr().out
        default_db().clear()  # CLI calibrates into the process-wide db
