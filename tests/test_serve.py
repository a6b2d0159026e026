"""The serving layer: jobs, cache, scheduler, pools, service, futures.

The contract under test, per module:

* **job** — the content key is deterministic, covers everything
  result-affecting, and keys by backend *semantics* (all backends agree
  on ``(1, 1, 1)``; the two distributed transports agree everywhere);
* **cache** — hits are bit-identical and defensively copied; LRU
  eviction; the disk tier round-trips bits and shrugs off corruption;
* **scheduler** — priority order, and batches form only from
  session-compatible small jobs;
* **service** — cache hits run no backend, duplicate in-flight jobs
  coalesce, ``map`` preserves order and fails fast, warm procmpi
  sessions are reused across jobs;
* **autotune** — ``repro.autotune`` is public, its ranking is
  deterministic, and ``config="auto"`` resolves through it.

The throughput acceptance test (``-m perf``) asserts the >=2x warm-pool
advantage on spawn/segment *counters*, never on a wall clock.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace
from typing import get_args

import numpy as np
import pytest

import repro
from repro import Grid3D, PipelineConfig, RelaxedSpec, SolveJob, SolveResult
from repro.core.parameters import BarrierSpec, SyncSpec
from repro.grid import DirichletBoundary, random_field
from repro.kernels import reference_sweeps
from repro.kernels.stencils import StarStencil
from repro.serve import (
    Entry,
    JobQueue,
    ResultCache,
    ServeCancelled,
    Service,
    SolveFuture,
    session_signature,
)
from repro.serve import autoconf
from repro.serve.autoconf import auto_config, ranked_candidates


def small_problem(n: int = 12, seed: int = 0):
    grid = Grid3D((n, n, n))
    field = random_field(grid.shape, np.random.default_rng(seed))
    cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                         block_size=(4, 64, 64), sync=RelaxedSpec(1, 2))
    return grid, field, cfg


def make_job(seed: int = 0, **kwargs) -> SolveJob:
    grid, field, cfg = small_problem(seed=seed)
    kwargs.setdefault("config", cfg)
    return SolveJob(grid=grid, field=field, **kwargs)


# ---------------------------------------------------------------------------
# SolveJob and its content key
# ---------------------------------------------------------------------------

class TestSolveJob:
    def test_key_is_deterministic_and_equal_for_equal_jobs(self):
        assert make_job().content_key() == make_job().content_key()

    def test_key_ignores_priority_and_stencil_name(self):
        # Scheduling priority and display names cannot change the bits.
        assert (make_job(priority=5).content_key()
                == make_job(priority=0).content_key())
        st1 = StarStencil({(0, 0, 1): 0.5, (0, 0, -1): 0.5}, name="a")
        st2 = StarStencil({(0, 0, 1): 0.5, (0, 0, -1): 0.5}, name="b")
        assert (make_job(stencil=st1).content_key()
                == make_job(stencil=st2).content_key())

    def test_key_covers_field_config_and_stencil(self):
        base = make_job().content_key()
        assert make_job(seed=1).content_key() != base
        grid, field, cfg = small_problem()
        loose = PipelineConfig(teams=1, threads_per_team=2,
                               updates_per_thread=2, block_size=(4, 64, 64),
                               sync=RelaxedSpec(1, 4))
        assert make_job(config=loose).content_key() != base
        barrier = PipelineConfig(teams=1, threads_per_team=2,
                                 updates_per_thread=2,
                                 block_size=(4, 64, 64), sync=BarrierSpec())
        assert make_job(config=barrier).content_key() != base
        damped = StarStencil({(0, 0, 1): 0.25, (0, 0, -1): 0.25},
                             center_weight=0.5)
        assert make_job(stencil=damped).content_key() != base

    def test_backend_semantics_classes(self):
        # On (1,1,1) every backend computes bit-identical fields, so all
        # three share one key; on wider topologies the two distributed
        # transports share one key that differs per topology.
        single = {make_job(backend=b).content_key()
                  for b in ("shared", "simmpi", "procmpi")}
        assert len(single) == 1
        sim = make_job(backend="simmpi", topology=(1, 1, 2)).content_key()
        proc = make_job(backend="procmpi", topology=(1, 1, 2)).content_key()
        assert sim == proc
        assert sim not in single
        assert make_job(backend="simmpi",
                        topology=(1, 2, 1)).content_key() != sim

    def test_auto_job_is_unresolved_until_configured(self):
        job = make_job(config="auto")
        assert not job.resolved
        with pytest.raises(ValueError, match="unresolved"):
            job.content_key()
        _, _, cfg = small_problem()
        assert job.with_config(cfg).resolved

    def test_callable_boundary_is_uncacheable(self):
        grid = Grid3D((8, 8, 8),
                      boundary=DirichletBoundary(0.0, func=_linear_boundary))
        job = SolveJob(grid=grid,
                       field=random_field(grid.shape,
                                          np.random.default_rng(0)),
                       config=small_problem()[2])
        assert not job.cacheable
        with pytest.raises(ValueError, match="not cacheable"):
            job.content_key()

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_digests_keep_their_bytes_for_every_layout(self, layout):
        # The key hashes the C-ordered snapshot in place and the cache
        # digest hashes a contiguous field without a copy; both must
        # equal the formulas that hashed a C-ordered copy's bytes.
        import hashlib

        from repro.serve import cache as cache_module, job as job_module

        grid, field, cfg = small_problem(seed=3)
        wide = np.zeros((grid.shape[0], 2 * grid.shape[1], grid.shape[2]))
        wide[:, ::2, :] = field
        given = {"C": field, "F": np.asfortranarray(field),
                 "strided": wide[:, ::2, :]}[layout]
        assert np.array_equal(given, field)
        job = SolveJob(grid=grid, field=given, config=cfg)
        assert job.field.flags.c_contiguous
        assert job_module.KEY_SCHEMA == 3
        st = job.stencil or job_module.jacobi7()
        parts = [f"repro/{repro.__version__}/key{job_module.KEY_SCHEMA}",
                 f"shape:{grid.shape}",
                 f"dtype:{np.dtype(grid.dtype).str}",
                 f"boundary:{job_module._canon_boundary(grid)}",
                 f"config:{job_module._canon_config(cfg)}",
                 f"stencil:{job_module._canon_stencil(st)}",
                 f"semantics:{job.semantics()}",
                 f"engine:{job.engine_semantics()}"]
        old = hashlib.sha256("\n".join(parts).encode())
        old.update(b"\nfield:")
        old.update(np.ascontiguousarray(given).tobytes())
        assert job.content_key() == old.hexdigest()
        meta = {"levels": 4}
        old = hashlib.sha256(cache_module._json(
            [given.dtype.str, given.shape, meta]).encode())
        old.update(given.tobytes())
        assert cache_module._digest(given, meta) == old.hexdigest()

    def test_validation(self):
        grid, field, cfg = small_problem()
        with pytest.raises(ValueError, match="unknown backend"):
            SolveJob(grid=grid, field=field, config=cfg, backend="mpi")
        with pytest.raises(ValueError, match="topology"):
            SolveJob(grid=grid, field=field, config=cfg, topology=(2, 2))
        with pytest.raises(ValueError, match="single-process"):
            SolveJob(grid=grid, field=field, config=cfg, topology=(1, 1, 2))
        with pytest.raises(ValueError, match="field shape"):
            SolveJob(grid=grid, field=field[:-1], config=cfg)
        with pytest.raises(ValueError, match="'auto'"):
            SolveJob(grid=grid, field=field, config="best")
        with pytest.raises(TypeError, match="PipelineConfig"):
            SolveJob(grid=grid, field=field, config=42)


def _linear_boundary(z, y, x):
    return z + y + x


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------

def _result_for(job: SolveJob):
    return repro.solve(job.grid, job.field, job.config)


class TestResultCache:
    def test_hit_is_bit_identical_and_isolated(self):
        cache = ResultCache(max_entries=4)
        job = make_job()
        res = _result_for(job)
        cache.put(job.content_key(), res)
        hit = cache.get(job.content_key())
        assert hit is not None
        assert np.array_equal(hit.field, res.field)
        # Mutating a returned field must not corrupt the cached bits.
        hit.field[...] = -1.0
        again = cache.get(job.content_key())
        assert np.array_equal(again.field, res.field)
        assert cache.metrics.counter("hits") == 2 and cache.metrics.counter("misses") == 0

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        res = _result_for(make_job())
        cache.put("a" * 64, res)
        cache.put("b" * 64, res)
        assert cache.get("a" * 64) is not None  # refresh: b is now LRU
        cache.put("c" * 64, res)
        assert cache.get("b" * 64) is None
        assert cache.get("a" * 64) is not None
        assert cache.metrics.counter("evictions") == 1

    def test_disk_tier_round_trips_bits(self, tmp_path):
        job = make_job()
        res = _result_for(job)
        key = job.content_key()
        writer = ResultCache(max_entries=2, disk_dir=tmp_path)
        writer.put(key, res)
        # A fresh cache (cold memory) must hit via the disk tier.
        reader = ResultCache(max_entries=2, disk_dir=tmp_path)
        hit = reader.get(key)
        assert hit is not None and reader.metrics.counter("disk_hits") == 1
        assert hit.field.tobytes() == res.field.tobytes()
        # The metadata comes back equal and typed; only the trace, an
        # observability artefact, stays in the memory tier.
        assert hit.config == res.config and hit.stats == res.stats
        for name in ("levels_advanced", "backend", "topology", "n_ranks",
                     "halo", "bytes_exchanged", "messages", "metrics"):
            assert getattr(hit, name) == getattr(res, name), name
        assert hit.trace is None
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.entry"]
        writer.clear(disk=True)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("sync", [BarrierSpec(), RelaxedSpec(2, 5, 1)])
    def test_result_json_round_trips_every_sync_spec(self, sync):
        # The (de)serialisation lives with the types; a new field the
        # JSON document cannot carry, or a new SyncSpec, fails here.
        job = make_job()
        res = _result_for(job)
        res = replace(res, config=replace(res.config, sync=sync))
        doc = json.loads(json.dumps(res.to_json()))
        back = SolveResult.from_json(doc, res.field)
        assert replace(back, field=None) == replace(res, field=None, trace=None)
        assert type(back.config.sync) is type(sync)
        assert get_args(SyncSpec) == (BarrierSpec, RelaxedSpec)

    def test_corrupt_disk_entry_is_a_miss_and_removed(self, tmp_path):
        key = "d" * 64
        path = tmp_path / f"{key}.entry"
        path.write_bytes(b"not an entry")
        cache = ResultCache(disk_dir=tmp_path)
        assert cache.get(key) is None
        assert not path.exists()

    @pytest.mark.parametrize("damage", [
        "truncated-field", "truncated-header", "bit-flipped-field",
        "bit-flipped-header", "foreign-pickle", "foreign-zip",
        "foreign-header"])
    def test_damaged_disk_entry_is_a_removed_miss(self, tmp_path, damage):
        job = make_job()
        key = job.content_key()
        ResultCache(disk_dir=tmp_path).put(key, _result_for(job))
        path = tmp_path / f"{key}.entry"
        data = path.read_bytes()
        header, _, field = data.partition(b"\n")
        buf = io.BytesIO()
        if damage == "truncated-field":
            data = data[:len(data) - len(field) // 2]
        elif damage == "truncated-header":
            data = header[:len(header) // 2]
        elif damage == "bit-flipped-field":
            data = data[:-1] + bytes([data[-1] ^ 0x01])
        elif damage == "bit-flipped-header":
            # A metadata digit that still parses.
            at = data.index(b'"levels_advanced": ') + 19
            data = data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]
            assert json.loads(data.partition(b"\n")[0])["result"] != \
                json.loads(header)["result"]
        elif damage == "foreign-pickle":
            # A pickled object array: refused, never unpickled.
            np.save(buf, np.array([{"x": 1}], dtype=object), allow_pickle=True)
            data = header + b"\n" + buf.getvalue()
        elif damage == "foreign-zip":
            np.savez(buf, field=np.zeros(3))
            data = header + b"\n" + buf.getvalue()
        else:
            data = b'{"format": 1, "sha256": "' + b"0" * 64 + b'"}\n' + field
        path.write_bytes(data)
        cache = ResultCache(disk_dir=tmp_path)
        assert cache.get(key) is None
        assert cache.metrics.counter("misses") == 1 and cache.metrics.counter("disk_hits") == 0
        assert not any(tmp_path.iterdir())

    def test_intact_entry_of_an_engine_missing_here_is_kept(self, tmp_path):
        # Entries are shared by semantics class: one written by a process
        # with an optional engine is a miss where that engine is absent,
        # and is still there for a process that has it.
        from repro.engine import Engine, register_engine, unregister_engine

        class Elsewhere(Engine):
            name = "elsewhere"

        job = make_job()
        res = _result_for(job)
        key = job.content_key()
        register_engine(Elsewhere())
        try:
            ResultCache(disk_dir=tmp_path).put(key, replace(
                res, config=replace(res.config, engine="elsewhere")))
            unregister_engine("elsewhere")
            assert ResultCache(disk_dir=tmp_path).get(key) is None
            assert len(list(tmp_path.iterdir())) == 1
            register_engine(Elsewhere())
            hit = ResultCache(disk_dir=tmp_path).get(key)
            assert hit.config.engine == "elsewhere"
            assert hit.field.tobytes() == res.field.tobytes()
        finally:
            unregister_engine("elsewhere")


# ---------------------------------------------------------------------------
# Scheduler: priority and batch formation
# ---------------------------------------------------------------------------

def _entry(job: SolveJob) -> Entry:
    return Entry(job=job, key=None, futures=[SolveFuture(job)])


class TestJobQueue:
    def test_priority_then_fifo(self):
        q = JobQueue(batch_limit=1)
        first = _entry(make_job(seed=1, priority=0))
        urgent = _entry(make_job(seed=2, priority=5))
        second = _entry(make_job(seed=3, priority=0))
        for e in (first, urgent, second):
            q.push(e)
        order = [q.pop_batch(timeout=0)[0] for _ in range(3)]
        assert order == [urgent, first, second]

    def test_batches_compatible_small_jobs(self):
        q = JobQueue(batch_limit=8)
        same = [_entry(make_job(seed=i)) for i in range(3)]
        other_topo = _entry(make_job(seed=9, backend="simmpi",
                                     topology=(1, 1, 2)))
        for e in (same[0], other_topo, same[1], same[2]):
            q.push(e)
        batch = q.pop_batch(timeout=0)
        # The three signature-equal jobs batch; the other topology waits.
        assert batch == same
        assert q.pop_batch(timeout=0) == [other_topo]

    def test_large_jobs_never_batch(self):
        q = JobQueue(batch_limit=8, batch_bytes=64)  # everything is "large"
        a, b = _entry(make_job(seed=1)), _entry(make_job(seed=2))
        q.push(a)
        q.push(b)
        assert q.pop_batch(timeout=0) == [a]
        assert q.pop_batch(timeout=0) == [b]

    def test_signature_requires_resolved_job(self):
        with pytest.raises(ValueError, match="unresolved"):
            session_signature(make_job(config="auto"))


# ---------------------------------------------------------------------------
# Autotuning: public API, deterministic ranking, config="auto"
# ---------------------------------------------------------------------------

class TestAutotune:
    def test_public_export(self):
        from repro.core.autotune import autotune as impl

        assert repro.autotune is impl
        results = repro.autotune(_machine(), shape=(24, 24, 24),
                                 bx_values=(24,), bz_values=(4,),
                                 T_values=(1,), du_values=(1, 2))
        assert len(results) == 4  # 2 storages x 2 d_u
        assert all(isinstance(r, repro.TuneResult) for r in results)

    def test_ranking_is_deterministic(self):
        # The satellite contract: two identical sweeps rank identically,
        # so "auto" jobs resolve (and cache) reproducibly.
        a = ranked_candidates(_machine(), (16, 16, 16), distributed=False)
        b = ranked_candidates(_machine(), (16, 16, 16), distributed=False)
        assert [r.config.describe() for r in a] \
            == [r.config.describe() for r in b]
        assert [r.mlups for r in a] == [r.mlups for r in b]

    def test_auto_config_is_memoised_and_valid(self, monkeypatch):
        monkeypatch.setattr(autoconf, "_resolved", {})
        grid = Grid3D((16, 16, 16))
        cfg = auto_config(grid, (1, 1, 2))
        assert cfg == auto_config(grid, (1, 1, 2))
        assert cfg.storage == "twogrid"  # distributed placement constraint
        # And the resolved config actually runs.
        field = random_field(grid.shape, np.random.default_rng(0))
        res = repro.solve(grid, field, cfg, topology=(1, 1, 2),
                          backend="simmpi")
        ref = reference_sweeps(grid, field, cfg.total_updates)
        np.testing.assert_allclose(res.field, ref, rtol=0, atol=1e-13)

    def test_service_resolves_auto(self):
        grid, field, _ = small_problem()
        with Service(workers=0) as svc:
            fut = svc.submit(grid, field, "auto")
            svc.drain()
            res = fut.result(timeout=0)
        assert fut.job.resolved
        assert res.config == auto_config(grid)
        ref = reference_sweeps(grid, field, res.levels_advanced)
        np.testing.assert_allclose(res.field, ref, rtol=0, atol=1e-13)


def _machine():
    from repro.machine.presets import nehalem_ep

    return nehalem_ep()


# ---------------------------------------------------------------------------
# Service behaviour
# ---------------------------------------------------------------------------

class TestService:
    def test_results_match_reference_across_backends(self):
        grid, field, cfg = small_problem()
        ref = reference_sweeps(grid, field, cfg.total_updates)
        with Service(workers=2) as svc:
            futs = [
                svc.submit(grid, field, cfg),
                svc.submit(grid, field, cfg, topology=(1, 1, 2),
                           backend="simmpi"),
                svc.submit(grid, field, cfg, topology=(2, 1, 1),
                           backend="procmpi"),
            ]
            for fut in futs:
                np.testing.assert_allclose(fut.result(timeout=120).field,
                                           ref, rtol=0, atol=1e-13)

    def test_field_is_snapshotted_at_submission(self):
        # The caller may reuse its buffer the moment submit returns; the
        # job (and with it the content key and the cached result) must
        # keep describing the bytes as submitted.
        grid, field, cfg = small_problem()
        original = field.copy()
        with Service(workers=0) as svc:
            fut = svc.submit(grid, field, cfg)
            field += 1.0
            svc.drain()
            res = fut.result(timeout=0)
            ref = reference_sweeps(grid, original, cfg.total_updates)
            np.testing.assert_allclose(res.field, ref, rtol=0, atol=1e-13)
            hit = svc.submit(grid, original, cfg)
            assert hit.cache_hit
            assert np.array_equal(hit.result(timeout=0).field, res.field)

    def test_cache_hit_runs_no_backend_and_is_bit_identical(self):
        grid, field, cfg = small_problem()
        with Service(workers=0) as svc:
            cold = svc.submit(grid, field, cfg)
            svc.drain()
            warm = svc.submit(grid, field, cfg)
            st = svc.stats
            assert warm.cache_hit
            assert st.backend_solves == 1 and st.cache_hits == 1
            assert np.array_equal(warm.result(timeout=0).field,
                                  cold.result(timeout=0).field)

    def test_duplicate_inflight_jobs_coalesce(self):
        grid, field, cfg = small_problem()
        with Service(workers=0) as svc:
            first = svc.submit(grid, field, cfg)
            second = svc.submit(grid, field, cfg)
            assert second.coalesced
            svc.drain()
            st = svc.stats
            assert st.backend_solves == 1 and st.coalesced == 1
            assert np.array_equal(first.result(timeout=0).field,
                                  second.result(timeout=0).field)

    def test_coalesced_waiters_own_their_fields(self):
        # One solve serves both waiters; a write into one result must not
        # reach the other.
        grid, field, cfg = small_problem()
        ref = reference_sweeps(grid, field, cfg.total_updates)
        with Service(workers=0) as svc:
            first = svc.submit(grid, field, cfg)
            second = svc.submit(grid, field, cfg)
            assert second.coalesced
            svc.drain()
            ra, rb = first.result(timeout=0), second.result(timeout=0)
        assert ra is not rb
        assert not np.shares_memory(ra.field, rb.field)
        ra.field[...] = -1.0
        np.testing.assert_allclose(rb.field, ref, rtol=0, atol=1e-13)

    def test_uncacheable_jobs_always_recompute(self):
        grid = Grid3D((12, 12, 12),
                      boundary=DirichletBoundary(0.0, func=_linear_boundary))
        field = random_field(grid.shape, np.random.default_rng(0))
        _, _, cfg = small_problem()
        with Service(workers=0) as svc:
            svc.submit(grid, field, cfg)
            svc.drain()
            svc.submit(grid, field, cfg)
            svc.drain()
            st = svc.stats
        assert st.backend_solves == 2
        assert st.cache_hits == 0 and st.coalesced == 0

    def test_map_preserves_order_and_fails_fast(self):
        grid, _, cfg = small_problem()
        jobs = [SolveJob(grid=grid,
                         field=random_field(grid.shape,
                                            np.random.default_rng(i)),
                         config=cfg)
                for i in range(4)]
        with Service(workers=0) as svc:
            results = svc.map(jobs)
            for job, res in zip(jobs, results):
                ref = reference_sweeps(grid, job.field, cfg.total_updates)
                np.testing.assert_allclose(res.field, ref, rtol=0,
                                           atol=1e-13)
            # A config invalid for the distributed placement fails only
            # its own job (its certificate refuses the layout), and map
            # re-raises that original error.
            bad_cfg = PipelineConfig(teams=1, threads_per_team=2,
                                     updates_per_thread=2,
                                     block_size=(4, 64, 64),
                                     sync=RelaxedSpec(1, 2),
                                     storage="compressed")
            bad = SolveJob(grid=grid, field=jobs[0].field, config=bad_cfg,
                           topology=(1, 1, 2), backend="simmpi")
            with pytest.raises(ValueError, match="two-grid"):
                svc.map([jobs[0], bad])

    def test_cancel_before_start(self):
        grid, field, cfg = small_problem()
        with Service(workers=0) as svc:
            fut = svc.submit(grid, field, cfg)
            assert fut.cancel()
            assert not fut.cancel()  # already cancelled
            svc.drain()
            st = svc.stats
            assert st.backend_solves == 0 and st.cancelled == 1
            with pytest.raises(ServeCancelled):
                fut.result(timeout=0)

    def test_batching_stats_in_sync_mode(self):
        grid, _, cfg = small_problem()
        with Service(workers=0, cache=False) as svc:
            for i in range(5):
                svc.submit(grid,
                           random_field(grid.shape,
                                        np.random.default_rng(i)), cfg)
            svc.drain()
            st = svc.stats
        assert st.batches == 1 and st.batched_jobs == 5
        assert st.backend_solves == 5

    def test_warm_sessions_are_reused_across_procmpi_jobs(self):
        grid, _, cfg = small_problem()
        with Service(workers=1, cache=False) as svc:
            futs = [svc.submit(grid,
                               random_field(grid.shape,
                                            np.random.default_rng(i)),
                               cfg, topology=(1, 1, 2), backend="procmpi")
                    for i in range(4)]
            for fut in futs:
                fut.result(timeout=120)
            st = svc.stats
        assert st.sessions_created == 1
        assert st.sessions_reused == 3
        assert st.process_spawns == 2  # one warm world of two ranks

    def test_procmpi_jobs_are_certified_before_a_session(self):
        # Warm sessions bypass solve(), so the service certifies first:
        # an exchange plan the analyzer refuses spawns nothing.
        from repro.analysis import StaticAnalysisError, assert_legal

        assert_legal.cache_clear()
        grid = Grid3D((8, 8, 8))
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=4, block_size=(4, 8, 8),
                             sync=RelaxedSpec(1, 4))
        with Service(workers=0, cache=False) as svc:
            fut = svc.submit(grid, random_field(grid.shape,
                                                np.random.default_rng(0)),
                             cfg, topology=(1, 1, 2), backend="procmpi")
            svc.drain()
            with pytest.raises(StaticAnalysisError, match="exchange-plan"):
                fut.result(timeout=0)
            assert svc.stats.sessions_created == 0

    def test_in_thread_jobs_of_one_geometry_certify_once(self, monkeypatch):
        from repro.analysis import assert_legal, checker

        calls = []
        real = checker.analyze_schedule
        monkeypatch.setattr(checker, "analyze_schedule",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        assert_legal.cache_clear()
        grid, _, cfg = small_problem()
        fields = [random_field(grid.shape, np.random.default_rng(i))
                  for i in range(2)]
        with Service(workers=0, cache=False) as svc:
            futs = [svc.submit(grid, f, cfg) for f in fields]
            svc.drain()
            for f, fut in zip(fields, futs):
                assert fut.result(timeout=0).field.tobytes() == \
                    reference_sweeps(grid, f, cfg.total_updates).tobytes()
            assert svc.stats.backend_solves == 2
        assert len(calls) == 1

    def test_submit_after_close_raises(self):
        grid, field, cfg = small_problem()
        svc = Service(workers=0)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.submit(grid, field, cfg)

    def test_module_level_front_end(self):
        import repro.serve as serve

        grid, field, cfg = small_problem(n=8)
        try:
            fut = repro.submit(grid, field, cfg)
            res = fut.result(timeout=60)
            ref = reference_sweeps(grid, field, cfg.total_updates)
            np.testing.assert_allclose(res.field, ref, rtol=0, atol=1e-13)
            # repro.submit/map are the api-module wrappers (one public
            # implementation path, lazily importing the service).
            assert repro.map is repro.map_jobs is repro.api.map_jobs
            assert repro.submit is repro.api.submit
            results = repro.map([SolveJob(grid=grid, field=field,
                                          config=cfg)])
            assert np.array_equal(results[0].field, res.field)
        finally:
            serve.shutdown()


# ---------------------------------------------------------------------------
# The acceptance criterion: warm set-up paid once, on counters
# ---------------------------------------------------------------------------

@pytest.mark.perf
class TestThroughputAcceptance:
    JOBS = 16
    TOPOLOGY = (1, 1, 2)

    def _problems(self):
        grid, _, cfg = small_problem()
        fields = [random_field(grid.shape, np.random.default_rng(i))
                  for i in range(self.JOBS)]
        return grid, fields, cfg

    def test_solve_and_service_each_warm_one_world(self):
        from repro.dist import SEGMENTS_COUNTER, SPAWNS_COUNTER, drop_warm_pool
        from repro.obs import registry

        def spawns():
            return registry.counter(SPAWNS_COUNTER)

        def segments():
            return registry.counter(SEGMENTS_COUNTER)

        grid, fields, cfg = self._problems()
        n_ranks = self.TOPOLOGY[0] * self.TOPOLOGY[1] * self.TOPOLOGY[2]

        # The sequential loop: 16 solve() calls, from a cold start, on
        # the process-wide warm world.
        drop_warm_pool()
        s0, g0 = spawns(), segments()
        seq_results = [repro.solve(grid, f, cfg, topology=self.TOPOLOGY,
                                   backend="procmpi") for f in fields]
        seq_spawns = spawns() - s0
        seq_segments = segments() - g0

        # The same 16 jobs through the service's own pool.
        s0, g0 = spawns(), segments()
        with Service(workers=1, cache=False) as svc:
            futs = [svc.submit(grid, f, cfg, topology=self.TOPOLOGY,
                               backend="procmpi") for f in fields]
            pool_results = [fut.result(timeout=300) for fut in futs]
            st = svc.stats
        pool_spawns = spawns() - s0
        pool_segments = segments() - g0

        for seq, pooled in zip(seq_results, pool_results):
            assert np.array_equal(seq.field, pooled.field)
        assert st.backend_solves == self.JOBS

        # Either path pays its set-up once for all 16 jobs: one world of
        # n_ranks processes and one session's segments.
        assert seq_spawns == pool_spawns == n_ranks
        assert seq_segments == pool_segments > 0

    def test_cache_warm_path_runs_zero_backends(self):
        grid, fields, cfg = self._problems()
        with Service(workers=0) as svc:
            svc.submit(grid, fields[0], cfg)
            svc.drain()
            warm = svc.submit(grid, fields[0], cfg)
            st = svc.stats
            assert warm.cache_hit and st.backend_solves == 1
